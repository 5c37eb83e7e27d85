"""Scalar sequence machinery for jointly diagonalisable pairs.

A commuting compact self-adjoint pair is simultaneously diagonal in some
orthonormal basis, so its increment bookkeeping reduces to scalar sequences
(t_k, s_k) with per-level constraints

    0 < |t_k - s_k| < 2**-k   and   |f(t_k) - f(s_k)| / |t_k - s_k| > 2**k.

Choosing the multiplicity n_k = floor(1/|f(t_k) - f(s_k)|) + 1 then makes the
weighted increments sum past any bound (each term is at least 1) while the
weighted perturbations stay below the geometric majorant 2**(1-k) per level.
A witness is built complete: ``make_sequence_witness`` validates the levels
and keeps the increments |f(t_k) - f(s_k)| it computes, with n_k from them.
Level k is the 1x1 direct-sum block (t_k) vs (s_k) with multiplicity n_k, a
``blocks.SumBlock`` from ``divergence_check``, which evaluates no f; the
multiplicity rule, ladder grid and partial sums come from ``blocks``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .blocks import SumBlock, floor_reciprocal, ladder_grid
from .catalog import ScalarFunction, integer_at_least, max_quotient
from .errors import BadArgument, InvariantViolation
from .hermitian import HermitianOperator

__all__ = [
    "SequenceWitness",
    "NotFound",
    "make_sequence_witness",
    "scalar_ratio_witnesses",
    "divergence_check",
]


@dataclass(frozen=True)
class SequenceWitness:
    """Finite prefix of sequences violating a uniform difference-quotient
    bound at every level, with each level's multiplicity n_k and increment
    |f(t_k) - f(s_k)|."""

    t: Tuple[float, ...]
    s: Tuple[float, ...]
    n: Tuple[int, ...]
    increments: Tuple[float, ...]

    @property
    def length(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class NotFound:
    """Search outcome when some level admits no qualifying pair.

    Persistent failures from a level onward are the numerical signature of a
    finite difference-quotient bound (local Lipschitzness) at that scale.
    """

    level: int
    best_quotient: float
    levels_found: int


def make_sequence_witness(f: ScalarFunction, t, s) -> SequenceWitness:
    """Validate the per-level constraints and fill the increments
    |f(t_k) - f(s_k)| and the multiplicities n_k = floor(1/increment) + 1, in
    exact integer arithmetic on the double-precision increments, which are
    nonzero: a validated level has quotient > 2**k."""
    t = tuple(float(x) for x in t)
    s = tuple(float(x) for x in s)
    if len(t) != len(s):
        raise InvariantViolation(f"length mismatch: {len(t)} != {len(s)}")
    increments = tuple(np.abs(np.subtract(*f.values_at(np.array([t, s])))).tolist())
    n = []
    for k, (tk, sk, inc) in enumerate(zip(t, s, increments), start=1):
        gap = abs(tk - sk)
        if not 0.0 < gap < 2.0 ** -k:
            raise InvariantViolation(
                f"level {k}: |t-s| = {gap!r} not in (0, 2**-{k})")
        quotient = inc / gap
        if not quotient > 2.0 ** k:
            raise InvariantViolation(
                f"level {k}: quotient {quotient!r} does not exceed 2**{k}")
        n.append(floor_reciprocal(inc) + 1)
    return SequenceWitness(t, s, tuple(n), increments)


def _level_points(level: int, search_grid: int, seed: int, sample) -> np.ndarray:
    """Search backbone at level k, a function of (k, search_grid, seed) and
    f's ``sample`` only: an equispaced grid on [-2**-k, 2**-k], a dyadic
    ladder of max(64, 2k) rungs accumulating at 0 (the equispaced grid alone
    cannot resolve quotients past ~2**log2(grid)), seeded random points, and
    the points ``sample`` (f's ``sample_points`` or None) asks for."""
    radius = 2.0 ** -level
    extras = np.random.default_rng([seed, level]).uniform(-radius, radius, size=64)
    return ladder_grid(radius, search_grid, max(64, 2 * level), sample, extras)


def _best_level_pair(f: ScalarFunction, pts: np.ndarray, radius: float):
    """Best difference quotient over point pairs with |t - s| < radius, as
    (quotient, (t, s)), or (-inf, None) when no pair qualifies.  ``pts``
    must be sorted and unique, as ``_level_points`` returns them.  By the
    mediant inequality the best pair is adjacent in ``pts``; ties go to the
    first adjacent maximiser."""
    q, i, j = max_quotient(pts, f.values_at(pts), radius)
    return q, None if i is None else (float(pts[i]), float(pts[j]))


def scalar_ratio_witnesses(f: ScalarFunction, levels: int, search_grid: int = 2001, *,
                           seed: int) -> Union[SequenceWitness, NotFound]:
    """Search each level k = 1..levels for a pair beating quotient 2**k.

    Returns a validated witness when every level succeeds, otherwise a
    NotFound carrying the first failing level and the best quotient seen
    there.  Deterministic given (seed, search_grid).
    """
    for value, minimum, what in ((levels, 1, "K"), (search_grid, 3, "search_grid"),
                                 (seed, 0, "seed")):
        integer_at_least(value, minimum, what, BadArgument)
    t_seq = []
    s_seq = []
    for k in range(1, levels + 1):
        radius = 2.0 ** -k
        pts = _level_points(k, search_grid, seed, f.sample_points)
        best_q, best_pair = _best_level_pair(f, pts, radius)
        # past 2**1023 the target exceeds every finite quotient
        if best_pair is None or not (k < 1024 and best_q > 2.0 ** k):
            return NotFound(level=k, best_quotient=best_q, levels_found=k - 1)
        x, y = best_pair
        t_seq.append(max(x, y))
        s_seq.append(min(x, y))
    return make_sequence_witness(f, t_seq, s_seq)


def divergence_check(witness: SequenceWitness) -> Tuple[SumBlock, ...]:
    """Realise every level k as the 1x1 block (t_k) vs (s_k) with
    multiplicity n_k and verify n_k |t_k - s_k| < 2**(1-k) on each.

    The trace norms of a 1x1 block are |t_k - s_k| and the witness's
    increment |f(t_k) - f(s_k)|, so no eigensolve or f is needed.  The
    per-level bound is implied by the witness invariants, so its failure
    raises InvariantViolation naming the level.
    """
    blocks = []
    for k, (t, s, n, inc) in enumerate(
            zip(witness.t, witness.s, witness.n, witness.increments), start=1):
        blk = SumBlock(HermitianOperator([[t]]), HermitianOperator([[s]]), n,
                       abs(t - s), inc)
        wp = blk.weighted_delta_s1
        bound = 2.0 ** (1 - k)
        if not wp < bound:
            raise InvariantViolation(
                f"level {k}: n|t-s| = {wp!r} reaches the bound {bound!r}")
        blocks.append(blk)
    return tuple(blocks)
