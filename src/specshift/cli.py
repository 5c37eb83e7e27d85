"""Command-line experiment runner.

Usage:

    specshift <command> <config.json> [--seed N] [--output PATH] [--format csv|json]

with command one of ratio-search | divergence | commuting | verify.  ``main``
is the one path from a config to files: it reads the JSON config, applies the
flags over the matching fields and checks ``experiment``, ``output`` and
``format``; the command routes its fields to the library functions, each of
which checks the values it uses (an optional field the config leaves out
gets the library default), and computes; ``main`` then serialises every
file and writes the report, then its sidecars.  Reports are
byte-deterministic for a fixed config: floats are printed with 17
significant digits, row order is fixed, line endings are "\\n".

Exit codes: 0 success, 2 configuration error (any ``ConfigError``), 3 numeric
failure (any other error, or a failed verify check).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .blocks import build_divergent_family, partial_sums
from .catalog import get_function, integer_at_least
from .errors import ConfigError, SpecshiftError
from .hermitian import (apply_function, decompose, hermitian_part, increment_ratio,
                        operator_scale, schatten_from_singular, singular_values,
                        spectral_truncation, trace_transfer_check)
from .loewner import divided_difference, perturbation_identity_residual, restrict_to_grid
from .search import NORM_KINDS, random_orthogonal, seminorm_lower_bound
from .sequences import NotFound, divergence_check, scalar_ratio_witnesses
from .serialize import (dump_json, family_to_json, matrix_from_json,
                        sequence_witness_to_json, witness_to_json, write_text)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _report_text(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(str(c) for c in row) for row in rows)
        return "\n".join(lines) + "\n"
    return dump_json({"columns": list(columns),
                      "rows": [dict(zip(columns, row)) for row in rows]})


def _write_all(files) -> None:
    """Write (path, text) pairs; every text is serialised before the call,
    so a failure in the computation or the serialisation writes no file."""
    for path, text in files:
        write_text(path, text)


def _sidecar(output: str, suffix: str) -> str:
    stem, _ = os.path.splitext(output)
    return stem + suffix


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def _read_json(path: str, what: str):
    """A JSON input file; a missing, unreadable or malformed file is a
    configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


def _get_function(cfg: dict):
    ref = cfg.get("function")
    if (not isinstance(ref, dict) or not isinstance(ref.get("id"), str)
            or not isinstance(ref.get("params", []), list)):
        raise ConfigError('config needs "function": {"id": "...", "params": [...]}')
    return get_function(ref["id"], ref.get("params", ()))


def _given(cfg: dict, *keys) -> dict:
    """The optional fields among ``keys`` that ``cfg`` has; the library
    default applies to the others."""
    return {key: cfg[key] for key in keys if key in cfg}


def _get_output(cfg: dict) -> str:
    """The report path; checked before any computation so an unwritable
    location fails fast with a configuration error."""
    output = cfg.get("output")
    if not isinstance(output, str) or not output:
        raise ConfigError('config needs "output": a file path for the report')
    parent = os.path.dirname(os.path.abspath(output))
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory {parent!r} does not exist")
    if os.path.isdir(output):
        raise ConfigError(f"output {output!r} is a directory")
    return output


def _get_format(cfg: dict) -> str:
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f'format must be "csv" or "json", got {fmt!r}')
    return fmt


# ---------------------------------------------------------------------------
# ratio-search
# ---------------------------------------------------------------------------

def run_ratio_search(cfg: dict) -> tuple:
    f = _get_function(cfg)
    dims = cfg.get("dims")
    if not isinstance(dims, list) or not dims:
        raise ConfigError('config needs "dims": a list of positive integers')
    grid_cfg = cfg.get("grid")
    if not isinstance(grid_cfg, dict) or "interval" not in grid_cfg:
        raise ConfigError('config needs "grid": {"interval": [a, b], "count": n}')
    grid = restrict_to_grid(grid_cfg["interval"], grid_cfg.get("count"))
    budget, seed = cfg.get("budget"), cfg.get("seed")

    columns = ("dim", "norm_kind", "budget", "seed", "best_ratio", "witness_file")
    rows, sidecars = [], []
    for dim in dims:
        for kind in NORM_KINDS:
            result = seminorm_lower_bound(f, grid, dim, kind, budget, seed)
            suffix = f"_dim{dim}_{kind}.json"
            sidecars.append((suffix, witness_to_json(result, f.reference())))
            rows.append((dim, kind, budget, seed, _fmt(result.value),
                         os.path.basename(_sidecar(cfg["output"], suffix))))
    return columns, rows, sidecars, EXIT_OK


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def run_divergence(cfg: dict) -> tuple:
    f = _get_function(cfg)
    family = build_divergent_family(f, cfg.get("K"), cfg.get("budget"), cfg.get("seed"),
                                    **_given(cfg, "dim", "delta0"))
    docs = family_to_json(family)

    columns = ("n", "delta", "target_ratio", "achieved_ratio", "multiplicity",
               "increment_s1", "perturbation_partial_sum",
               "increment_partial_sum", "status")
    rows = []
    sums = partial_sums(family.blocks)
    for doc in docs:
        # a failed block comes last and adds nothing to the partial sums
        pert_sum, incr_sum = sums[min(doc["n"], len(sums) - 1)]
        rows.append((doc["n"], _fmt(doc["delta"]), _fmt(doc["target_ratio"]),
                     _fmt(doc["achieved_ratio"]), doc["multiplicity"],
                     _fmt(doc["increment_s1"]), _fmt(pert_sum), _fmt(incr_sum),
                     doc["status"]))
    return columns, rows, [("_family.json", docs)], EXIT_OK


# ---------------------------------------------------------------------------
# commuting
# ---------------------------------------------------------------------------

def run_commuting(cfg: dict) -> tuple:
    f = _get_function(cfg)
    levels = cfg.get("K")
    outcome = scalar_ratio_witnesses(f, levels, seed=cfg.get("seed"),
                                     **_given(cfg, "search_grid"))
    columns = ("k", "t", "s", "n", "weighted_perturbation", "weighted_increment",
               "bound_2_pow_1_minus_k", "ok")
    rows = []
    witness_doc = sequence_witness_to_json(outcome, f.reference(), levels)
    if not isinstance(outcome, NotFound):
        blocks = divergence_check(outcome)
        # ok: always true (divergence_check raises first); frozen reports read it
        for k, (t, s, blk) in enumerate(zip(outcome.t, outcome.s, blocks), start=1):
            rows.append((k, _fmt(t), _fmt(s), str(blk.multiplicity),
                         _fmt(blk.weighted_delta_s1), _fmt(blk.weighted_increment_s1),
                         _fmt(2.0 ** (1 - k)), "true"))
    return columns, rows, [("_witness.json", witness_doc)], EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _uniform(rng, dim: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (dim, dim))


def _diagonal(rng, dim: int) -> np.ndarray:
    return np.diag(rng.uniform(-2.0, 2.0, dim))


def _level(rng, _) -> float:
    return float(rng.uniform(0.2, 1.5))


_SCHATTEN_PS = (1, 2, np.inf)
_POLY4 = (0.5, -1.0, 2.0, 0.0, 1.5)
_TRIALS = 12


def _schatten_norms(*stacks) -> list:
    """Per stack and matrix, its norms for each p of ``_SCHATTEN_PS``, from
    one SVD call."""
    s = singular_values(np.stack(stacks))
    return np.stack([schatten_from_singular(s, p) for p in _SCHATTEN_PS], -1).tolist()


def _unitary_invariance(fs, x, q) -> list:
    base, turned = _schatten_norms(x, q @ x @ q.swapaxes(-1, -2))
    return [[abs(t - b) / b for b, t in zip(bs, ts)] for bs, ts in zip(base, turned)]


def _norm_ordering(fs, x) -> list:
    dim = x.shape[-1]
    (norms,) = _schatten_norms(x)
    return [[max((ninf - n2) / n1, (n2 - n1) / n1, (n1 - dim * ninf) / n1)]
            for n1, n2, ninf in norms]


def _triangle_inequality(fs, x, y) -> list:
    return [[max((nxy - (nx + ny)) / (nx + ny) for nx, ny, nxy in zip(*norms))]
            for norms in zip(*_schatten_norms(x, y, x + y))]


def _poly4_calculus(fs, x) -> list:
    a = hermitian_part(x)
    direct, power = np.zeros_like(a), np.eye(a.shape[-1])
    for c in _POLY4:
        direct = direct + c * power
        power = power @ a
    calc = apply_function(fs[0], a)
    err = np.abs(calc - direct).max(axis=(-2, -1))
    return [[e / (1.0 + top) ** 4]
            for e, top in zip(err.tolist(), singular_values(a)[:, 0].tolist())]


def _scalar_reduction(fs, d) -> list:
    fd = apply_function(fs[0], d)
    return np.abs(fd - np.abs(d)).max(axis=(-2, -1))[:, None].tolist()


def _truncation_rank(fs, x, delta) -> list:
    dec = decompose(hermitian_part(x))
    a_d, discarded = spectral_truncation(dec, delta)
    kept = decompose(a_d).eigenvalues
    level = delta[:, None]
    return [[int(n != int(m)) + int(bad)] for n, m, bad in zip(
        discarded, np.count_nonzero(np.abs(dec.eigenvalues) > level, axis=-1),
        np.any((np.abs(kept) > level) & (kept != 0.0), axis=-1))]


def _identity_ratio(fs, x, y) -> list:
    ratios = increment_ratio(fs[0], hermitian_part(x), hermitian_part(y))
    return [[abs(r - 1.0)] for r in ratios.ratio_s1.tolist()]


def _loewner_identity(fs, x, y) -> list:
    a, b = hermitian_part(x), hermitian_part(y)
    return (perturbation_identity_residual(fs[0], a, b) / operator_scale(a, b))[:, None].tolist()


def _trace_transfer(fs, x, y, delta) -> list:
    a, b = hermitian_part(x), hermitian_part(y)
    return (trace_transfer_check(fs, delta, a, b) / operator_scale(a, b))[:, None].tolist()


class _Check(NamedTuple):
    """A verify check: ``_TRIALS`` trials per entry f of ``functions``, all
    drawn from substream (seed, *stream) in a fixed order: per trial its dim,
    then one array per sampler in ``draws``.  ``score`` takes the trials of
    one dim at a time, as a tuple of their functions and one stack per
    sampler, and returns one residual per row in ``names`` for each trial
    (per-trial arithmetic on Python floats, so each residual has the bits a
    trial scored alone gets).  A row reports its worst trial: the max of 0.0
    and its residuals, in trial order."""

    stream: tuple
    names: tuple
    tolerance: float
    score: Callable
    draws: tuple
    functions: tuple = (None,)


def _run_check(check: _Check, seed: int) -> list:
    """The check's rows (name, residual, tolerance)."""
    rng = np.random.default_rng([seed, *check.stream])
    by_dim = {}  # dim -> [(trial index, f, draws)]
    for i, f in enumerate(fn for fn in check.functions for _ in range(_TRIALS)):
        dim = int(rng.integers(2, 9))
        by_dim.setdefault(dim, []).append((i, f, [draw(rng, dim) for draw in check.draws]))
    residuals = {}
    for trials in by_dim.values():
        index, fs, draws = zip(*trials)
        residuals.update(zip(index, check.score(fs, *(np.stack(d) for d in zip(*draws)))))
    worst = [0.0] * len(check.names)
    for i in sorted(residuals):
        worst = [max(w, r) for w, r in zip(worst, residuals[i])]
    return [(name, w, check.tolerance) for name, w in zip(check.names, worst)]


def _verify_checks(seed: int, fixtures) -> list:
    """Run the invariant suites; returns rows (check, residual, tolerance, ok).
    A fixture row cannot read fail: ``decompose`` raises above the tolerance
    it reports (exit 3)."""
    square = get_function("poly", (0.0, 0.0, 1.0))
    table = [
        _Check((1,), ("unitary_invariance_s1", "unitary_invariance_s2",
                      "unitary_invariance_sinf"), 1e-9, _unitary_invariance,
               (_uniform, random_orthogonal)),
        _Check((2,), ("norm_ordering",), 1e-12, _norm_ordering, (_uniform,)),
        _Check((3,), ("triangle_inequality",), 1e-10, _triangle_inequality,
               (_uniform, _uniform)),
        _Check((4,), ("functional_calculus_poly4",), 1e-9, _poly4_calculus, (_uniform,),
               (get_function("poly", _POLY4),)),
        _Check((5,), ("scalar_reduction_diagonal",), 0.0, _scalar_reduction, (_diagonal,),
               (get_function("abs"),)),
        _Check((6,), ("spectral_truncation_rank",), 0.0, _truncation_rank,
               (_uniform, _level)),
        _Check((7,), ("identity_ratio",), 1e-12, _identity_ratio, (_uniform, _uniform),
               (get_function("identity"),)),
    ]
    for sub, (name, fn) in enumerate((
            ("loewner_identity_poly", get_function("poly", (1.0, -2.0, 0.0, 3.0))),
            ("loewner_identity_sin", get_function("sin")),
            ("loewner_identity_exp", get_function("exp")))):
        table.append(_Check((8, sub), (name,), 1e-8, _loewner_identity,
                            (_uniform, _uniform), (fn,)))
    table.append(_Check((9,), ("trace_transfer_reassembly",), 1e-9, _trace_transfer,
                        (_uniform, _uniform, _level),
                        (get_function("abs"), square,
                         get_function("smoothed_abs", (0.05,)))))

    results = [row for check in table for row in _run_check(check, seed)]
    results.append(("divided_difference_tie",
                    abs(divided_difference(square, 2.0, 2.0) - 4.0), 1e-12))

    for idx, fixture in enumerate(fixtures):
        dec = decompose(fixture)
        results.append((f"fixture_{idx}_reconstruction", dec.reconstruction_residual,
                        dec.reconstruction_tolerance))
    return [(name, residual, tolerance, residual <= tolerance)
            for name, residual, tolerance in results]


def run_verify(cfg: dict) -> tuple:
    """The check table; a failed check still gets its report, with exit 3."""
    seed = integer_at_least(cfg.get("seed", 20260810), 0, "seed", ConfigError)
    fixtures = []
    raw_fixtures = cfg.get("matrices", [])
    if not isinstance(raw_fixtures, list):
        raise ConfigError('"matrices" must be a list of matrix objects or paths')
    for entry in raw_fixtures:
        if isinstance(entry, str):
            entry = _read_json(entry, "fixture")
        fixtures.append(matrix_from_json(entry))

    checks = _verify_checks(seed, fixtures)
    columns = ("check", "residual", "tolerance", "status")
    rows = [(name, _fmt(residual), _fmt(tolerance), "pass" if ok else "fail")
            for name, residual, tolerance, ok in checks]
    failed = [name for name, _, _, ok in checks if not ok]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
    return columns, rows, [], EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

#: command -> (runner(cfg), help text); the runner routes the command's config
#: fields to the library functions that check them and returns (columns,
#: rows, [(path suffix, JSON document)], exit code)
_COMMANDS = {
    "ratio-search": (run_ratio_search, "maximise increment ratios over a spectra grid"),
    "divergence": (run_divergence, "assemble a family of blocks with ratio targets 2**n"),
    "commuting": (run_commuting, "scalar sequence witnesses and divergence bookkeeping"),
    "verify": (run_verify, "run the numerical invariant suites"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="specshift",
        description="Trace-norm increment experiments for functions of "
                    "self-adjoint matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to the JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--output", default=None,
                         help="override the config output path")
        cmd.add_argument("--format", choices=("csv", "json"), default=None,
                         help="override the config report format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _read_json(args.config, "config")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        cfg.update((key, getattr(args, key)) for key in ("seed", "output", "format")
                   if getattr(args, key) is not None)
        if cfg.get("experiment") not in (None, args.command):
            raise ConfigError(f"config is for experiment {cfg['experiment']!r}, "
                              f"not {args.command!r}")
        output, fmt = _get_output(cfg), _get_format(cfg)
        columns, rows, sidecars, code = _COMMANDS[args.command][0](cfg)
        _write_all([(output, _report_text(columns, rows, fmt))]
                   + [(_sidecar(output, suffix), dump_json(doc)) for suffix, doc in sidecars])
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpecshiftError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # noqa: BLE001 - exit-code contract allows only 0/2/3
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
