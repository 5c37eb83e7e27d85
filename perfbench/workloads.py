"""The four benchmark workloads: seeded CLI configs and output checks.

One execution of a workload is one or more `specshift` CLI invocations
(`cli.main(argv)` in the benchmark's own process).  Each invocation is one
operation: it fails on a nonzero exit code or on any problem the output
checks below report.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

from specshift.catalog import get_function
from specshift.errors import SpecshiftError
from specshift.hermitian import increment_ratio
from specshift.search import NORM_KINDS
from specshift.serialize import matrix_from_json

DEFAULT_SEED = 1
VERIFY_INVOCATIONS = 30

#: relative agreement required between a reported `best_ratio` and a fresh
#: eigensolve of its witness pair (the search scores candidates in their
#: construction basis, so the two paths differ by rounding only)
RESCORE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """A CLI command on a fixed config family (each config's "experiment"
    names the command).

    ``configs(seed)`` gives the configs of one timed execution and
    ``warmup(seed)`` the smaller configs of the untimed warm-up, which runs
    the same code paths so imports and lazy set-up are done before timing.
    """

    name: str
    configs: Callable[[int], list]
    warmup: Callable[[int], list]
    env: dict = field(default_factory=dict)


def _function(fid: str) -> dict:
    return {"id": fid, "params": []}


def _divergence(seed: int, k: int = 10, dim: int = 8) -> list:
    return [{"experiment": "divergence", "function": _function("sqrt_abs"),
             "K": k, "delta0": 1.0, "budget": 4, "seed": seed, "dim": dim}]


def _ratio_search(seed: int, dims=(2, 4, 8, 16), budget: int = 4) -> list:
    return [{"experiment": "ratio-search", "function": _function("abs"),
             "dims": list(dims), "grid": {"interval": [-1.0, 1.0], "count": 17},
             "budget": budget, "seed": seed}]


def _commuting(seed: int, k: int = 30, grid: int = 2001) -> list:
    return [{"experiment": "commuting", "function": _function("sqrt_abs"),
             "K": k, "search_grid": grid, "seed": seed}]


def _verify(seed: int, count: int = VERIFY_INVOCATIONS) -> list:
    return [{"experiment": "verify", "seed": VERIFY_INVOCATIONS * seed + i}
            for i in range(count)]


WORKLOADS = {
    w.name: w for w in (
        Workload("divergence", _divergence,
                 lambda seed: _divergence(seed, k=2, dim=2)),
        Workload("ratio_search", _ratio_search,
                 lambda seed: _ratio_search(seed, dims=(2, 4), budget=2),
                 env={"SPECSHIFT_THREADS": "2"}),
        Workload("commuting", _commuting,
                 lambda seed: _commuting(seed, k=3, grid=101)),
        Workload("verify", _verify,
                 lambda seed: _verify(seed, count=1)),
    )
}


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def sidecar(output: str, suffix: str) -> str:
    stem, _ = os.path.splitext(output)
    return stem + suffix


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def report_digest(output: str) -> str:
    """Digest of the report and every sidecar, for the byte-determinism check."""
    stem, _ = os.path.splitext(output)
    folder, base = os.path.split(stem)
    h = hashlib.sha256()
    for name in sorted(os.listdir(folder)):
        if name == os.path.basename(output) or (
                name.startswith(base + "_") and name.endswith(".json")):
            h.update(name.encode())
            with open(os.path.join(folder, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks: each returns (problems, bound values, integer outcome)
# ---------------------------------------------------------------------------

def _check_ratio_search(cfg, output, rows):
    problems = []
    expected = [(d, k) for d in cfg["dims"] for k in NORM_KINDS]
    got = [(int(r["dim"]), r["norm_kind"]) for r in rows]
    if got != expected:
        problems.append(f"rows {got} != expected {expected}")
    f = get_function(cfg["function"]["id"], cfg["function"]["params"])
    values = []
    for row in rows:
        best = float(row["best_ratio"])
        values.append(best)
        if not best >= 1.0:
            problems.append(f"dim {row['dim']} {row['norm_kind']}: best_ratio "
                            f"{best!r} below the scalar floor 1")
        witness_path = os.path.join(os.path.dirname(output), row["witness_file"])
        with open(witness_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["value"] != best or doc["norm_kind"] != row["norm_kind"]:
            problems.append(f"witness {row['witness_file']} disagrees with its row")
            continue
        witness = increment_ratio(f, matrix_from_json(doc["A"]), matrix_from_json(doc["B"]))
        rescored = witness.ratio_s1 if row["norm_kind"] == "schatten1" else witness.ratio_op
        if not abs(rescored - best) <= RESCORE_RTOL * abs(best):
            problems.append(f"dim {row['dim']} {row['norm_kind']}: re-scored "
                            f"{rescored!r} != reported {best!r}")
    outcome = {"rows": [f"{d}/{k}" for d, k in got]}
    return problems, values, outcome


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _check_divergence(cfg, output, rows):
    problems = []
    k = cfg["K"]
    if [int(r["n"]) for r in rows] != list(range(1, k + 1)):
        problems.append(f"expected blocks 1..{k}, got {[r['n'] for r in rows]}")
    for row in rows:
        if row["status"] != "ok":
            problems.append(f"block {row['n']}: status {row['status']}")
        inc = float(row["increment_s1"])
        if not 0.5 <= inc <= 1.0:
            problems.append(f"block {row['n']}: aggregate increment {inc!r} outside [1/2, 1]")
        if not float(row["achieved_ratio"]) > float(row["target_ratio"]):
            problems.append(f"block {row['n']}: ratio below target")
    for col in ("perturbation_partial_sum", "increment_partial_sum"):
        if not _increasing([float(r[col]) for r in rows]):
            problems.append(f"{col} does not increase")
    with open(sidecar(output, "_family.json"), encoding="utf-8") as fh:
        family = json.load(fh)
    if [(b["status"], b["multiplicity"]) for b in family] != [
            (r["status"], r["multiplicity"]) for r in rows]:
        problems.append("family sidecar disagrees with the report")
    values = [float(r["achieved_ratio"]) / float(r["target_ratio"]) for r in rows]
    outcome = {"ok_blocks": sum(r["status"] == "ok" for r in rows),
               "multiplicities": [r["multiplicity"] for r in rows]}
    return problems, values, outcome


def _check_commuting(cfg, output, rows):
    problems = []
    k = cfg["K"]
    if [int(r["k"]) for r in rows] != list(range(1, k + 1)):
        problems.append(f"expected levels 1..{k}, got {len(rows)} rows")
    for row in rows:
        if row["ok"] != "true":
            problems.append(f"level {row['k']}: ok={row['ok']}")
    with open(sidecar(output, "_witness.json"), encoding="utf-8") as fh:
        witness = json.load(fh)
    if witness["status"] != "ok" or witness["n"] != [r["n"] for r in rows]:
        problems.append("witness sidecar disagrees with the report")
    values = [float(r["weighted_increment"]) / float(r["weighted_perturbation"])
              / 2.0 ** int(r["k"]) for r in rows]
    outcome = {"levels": len(rows), "multiplicities": [r["n"] for r in rows]}
    return problems, values, outcome


def _check_verify(cfg, output, rows):
    problems = [f"check {r['check']}: {r['status']}" for r in rows if r["status"] != "pass"]
    if not rows:
        problems.append("no checks reported")
    values = [1.0 if r["status"] == "pass" else 0.0 for r in rows]
    outcome = {"checks": [r["check"] for r in rows]}
    return problems, values, outcome


_CHECKS = {
    "ratio-search": _check_ratio_search,
    "divergence": _check_divergence,
    "commuting": _check_commuting,
    "verify": _check_verify,
}


def check_invocation(cfg: dict, output: str, exit_code: int):
    """Check one invocation's report and sidecars.

    Returns (problems, values, outcome): the list of problems found (empty
    when the operation succeeded), the per-row values whose mean is
    `bound_mean`, and the integer outcome compared with the recorded
    reference.  A report that cannot be read is a problem, not a crash.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        rows = read_rows(output)
        more, values, outcome = _CHECKS[cfg["experiment"]](cfg, output, rows)
    except (OSError, KeyError, IndexError, ValueError, TypeError, SpecshiftError) as exc:
        return problems + [f"unreadable output: {type(exc).__name__}: {exc}"], [], None
    return problems + more, values, outcome
