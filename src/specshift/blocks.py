"""Direct-sum assembly of operator pairs.

A direct sum is a tuple of ``SumBlock``s, each a pair (A, B) with a symbolic
integer multiplicity N.  It is never materialised: trace-norm quantities are
additive over blocks, so every aggregate is a sum of N * block quantity.
``weighted`` performs that product exactly (integer times the exact rational
value of the stored float, rounded once), which keeps bookkeeping identities
bitwise reproducible and safe for huge multiplicities.

A divergent family builds its blocks from the scalar probe of each block
grid, and runs the rotation search only at a block whose probe misses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import ScalarFunction, finite_reals, integer_at_least
from .errors import (BadArgument, BadSchedule, DegeneratePair, InvariantViolation,
                     PreconditionViolated, RefinementOverflow)
from .hermitian import (HermitianOperator, RatioWitness, apply_function, decompose,
                        hermitian_part, schatten_from_singular, singular_values)
from .loewner import FiniteSpectrumSet
from .search import scalar_probe, seminorm_lower_bound

__all__ = [
    "SumBlock",
    "BlockRecord",
    "DivergentFamily",
    "weighted",
    "floor_reciprocal",
    "ladder_grid",
    "segment_refine",
    "amplify_to_unit",
    "default_delta_schedule",
    "build_divergent_family",
    "partial_sums",
]

#: subdivision cap for segment refinement
MAX_SUBDIVISION = 2 ** 20


def weighted(multiplicity: int, value: float) -> float:
    """multiplicity * value with the product formed exactly, then rounded."""
    return float(multiplicity * Fraction(value))


def floor_reciprocal(value: float) -> int:
    """floor(1/value) in exact rational arithmetic on the stored float."""
    return int(Fraction(1) / Fraction(value))


def ladder_grid(half: float, count: int, rungs: int, sample, extras=()) -> np.ndarray:
    """Sorted unique points: ``count`` equispaced on [-half, half], the
    two-sided dyadic ladder +-half * 2**-r for r = 1..rungs accumulating at
    0, the point 0 itself, ``extras``, and ``sample(half)`` unless ``sample``
    (a function's ``sample_points``) is None."""
    ladder = half * 0.5 ** np.arange(1, rungs + 1)
    sampled = () if sample is None else sample(half)
    return np.unique(np.concatenate([
        np.linspace(-half, half, count), ladder, -ladder, [0.0], extras, sampled]))


@dataclass(frozen=True)
class SumBlock:
    """One block of a direct sum: a pair (A, B) repeated ``multiplicity`` times."""

    a: HermitianOperator
    b: HermitianOperator
    multiplicity: int
    delta_s1: float
    increment_s1: float

    def __post_init__(self):
        if self.a.dim != self.b.dim:
            raise InvariantViolation(
                f"block dims differ: {self.a.dim} != {self.b.dim}")
        if self.multiplicity < 1:
            raise InvariantViolation(
                f"multiplicity must be >= 1, got {self.multiplicity}")
        if not self.delta_s1 > 0.0:
            raise InvariantViolation("block pair is degenerate (A = B)")

    @property
    def weighted_delta_s1(self) -> float:
        return weighted(self.multiplicity, self.delta_s1)

    @property
    def weighted_increment_s1(self) -> float:
        return weighted(self.multiplicity, self.increment_s1)


def _path_point(a: HermitianOperator, diff: np.ndarray, t: float) -> HermitianOperator:
    if t == 0.0:
        return a
    return HermitianOperator(a.matrix + t * diff)


class _RefinedPair(tuple):
    """The pair (A', B') ``segment_refine`` returns, with the
    ||f(B')-f(A')||_1 it measured as ``increment`` for the amplification."""


def segment_refine(f: ScalarFunction, a: HermitianOperator,
                   b: HermitianOperator) -> Tuple[HermitianOperator, HermitianOperator]:
    """Shrink (A, B) along the straight segment until the function increment
    drops below 1, without decreasing the trace-norm increment ratio.

    The segment t -> f((1-t)A + tB) is subdivided into n equal parts with n
    doubling (1, 2, 4, ...) until every consecutive increment is < 1; the
    sub-segment with the largest increment (smallest index on ties) is
    returned, so a pair with ||f(B)-f(A)||_1 < 1 comes back as (A, B) itself.
    Its endpoints are dyadic, so the sub-segment length is exactly
    ||B-A||_1 / n, and the maximal sub-increment is at least 1/n of the total
    by the triangle inequality, which preserves the ratio.  The f-images are
    one stack; each level adds those of its midpoints A + (k/n)(B-A), k odd,
    from one ``apply_function`` call and its n increments from one SVD call.

    By the same inequality no n' below n * max(increments) can succeed, so
    RefinementOverflow is raised as soon as that product passes
    2 * MAX_SUBDIVISION (the cap with slack for rounding).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    diff = b.matrix - a.matrix
    images = np.array([apply_function(f, a), apply_function(f, b)])
    n = 1
    while n <= MAX_SUBDIVISION:
        increments = schatten_from_singular(singular_values(np.diff(images, axis=0)), 1)
        if np.all(increments < 1.0):
            k = int(np.argmax(increments))  # first maximum: smallest k
            right = b if k + 1 == n else _path_point(a, diff, (k + 1) / n)
            refined = _RefinedPair((_path_point(a, diff, k / n), right))
            refined.increment = float(increments[k])
            return refined
        if n * increments.max() > 2 * MAX_SUBDIVISION:
            break
        n *= 2
        t = np.arange(1, n, 2)[:, None, None] / n
        mids = apply_function(f, hermitian_part(a.matrix + t * diff))
        grown = np.empty((n + 1, *diff.shape), np.result_type(images, mids))
        grown[::2], grown[1::2] = images, mids
        images = grown
    raise RefinementOverflow(
        f"no subdivision up to {MAX_SUBDIVISION} brought all increments below 1")


def amplify_to_unit(a: HermitianOperator, b: HermitianOperator,
                    increment: float) -> SumBlock:
    """Repeat the pair so the aggregate increment lands in [1/2, 1], given
    its increment ||f(B)-f(A)||_1 in (0, 1) as ``segment_refine`` measures it.

    The multiplicity is the exact floor of the reciprocal increment; the
    aggregate ratio equals the block ratio because both norms scale by the
    same integer.
    """
    delta_s1 = float(schatten_from_singular(singular_values(b.matrix - a.matrix), 1))
    if not delta_s1 > 0.0:
        raise DegeneratePair("cannot amplify a pair with A = B")
    if not 0.0 < increment < 1.0:
        raise PreconditionViolated(
            f"increment must lie in (0, 1), got {increment!r}")
    return SumBlock(a, b, floor_reciprocal(increment), delta_s1, increment)


@dataclass(frozen=True)
class BlockRecord:
    """Outcome of one divergence-family block construction."""

    index: int
    delta: float
    target_ratio: float
    achieved_ratio: float
    block: Optional[SumBlock]
    status: str  # "ok" | "failed"


@dataclass(frozen=True)
class DivergentFamily:
    """Blocks whose aggregate ratios exceed 2**n inside shrinking spectra
    windows, truncated at the first block that missed its target."""

    records: Tuple[BlockRecord, ...]
    failure: Optional[BlockRecord]

    def __post_init__(self):
        for rec in self.records:
            blk = rec.block
            if rec.status != "ok" or blk is None:
                raise InvariantViolation("family records must be successful blocks")
            for op in (blk.a, blk.b):
                top = float(np.abs(decompose(op).eigenvalues).max())
                if not top < rec.delta:
                    raise InvariantViolation(
                        f"block {rec.index}: spectrum reaches {top:g}, "
                        f"not strictly inside (-{rec.delta:g}, {rec.delta:g})")
            agg = blk.weighted_increment_s1
            if not 0.5 - 1e-9 <= agg <= 1.0 + 1e-9:
                raise InvariantViolation(
                    f"block {rec.index}: aggregate increment {agg!r} outside [1/2, 1]")

    @property
    def blocks(self) -> Tuple[SumBlock, ...]:
        return tuple(rec.block for rec in self.records)

    @property
    def all_records(self) -> Tuple[BlockRecord, ...]:
        if self.failure is None:
            return self.records
        return self.records + (self.failure,)


def default_delta_schedule(block_count: int, delta0: float) -> Iterator[float]:
    """delta_n = delta0 * 2**-n for n = 1..block_count, yielded lazily;
    BadSchedule unless block_count is an integer >= 1, delta0 a finite real
    and the windows positive, finite and strictly shrinking (so delta0 > 0;
    delta0 * 2**-n may underflow).  The computed windows never grow, and two
    are equal only at the smallest subnormal, with 0.0 next: the last two
    decide (delta_0 = inf), in O(1)."""
    integer_at_least(block_count, 1, "K", BadSchedule)
    (delta0,) = finite_reals([delta0], "delta0", BadSchedule)
    # 2.0 ** -n is 0.0 from n = 1075 on, and raises OverflowError for huge n
    last, before = (delta0 * 2.0 ** -min(n, 1075) if n else math.inf
                    for n in (block_count, block_count - 1))
    if not 0.0 < last < before:
        raise BadSchedule(f"delta0 * 2**-n with delta0 = {delta0!r} is not positive, "
                          f"finite and decreasing for n = 1..{block_count}")
    return (delta0 * 2.0 ** -n for n in range(1, block_count + 1))


def _block_grid(delta: float, level: int, sample) -> FiniteSpectrumSet:
    """Grid inside [-delta/2, delta/2]: 65 equispaced points plus a dyadic
    ladder accumulating at 0 so kink quotients can reach the 2**level target,
    and the points ``sample`` (a function's ``sample_points`` or None) asks for."""
    return FiniteSpectrumSet(ladder_grid(delta / 2.0, 65, 2 * level + 8, sample))


def _block_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _block_record(f: ScalarFunction, index: int, delta: float,
                  witness: Optional[RatioWitness]) -> BlockRecord:
    """Refine and amplify a block's witness and score it against 2**index."""
    target, achieved, block = 2.0 ** index, 0.0, None
    if witness is not None:
        try:
            pair = segment_refine(f, witness.a, witness.b)
            block = amplify_to_unit(*pair, pair.increment)
            achieved = block.weighted_increment_s1 / block.weighted_delta_s1
        except (PreconditionViolated, DegeneratePair, RefinementOverflow):
            pass
    status = "ok" if block is not None and achieved > target else "failed"
    return BlockRecord(index, delta, target, achieved, block, status)


def build_divergent_family(f: ScalarFunction, block_count: int,
                           per_block_budget: int, seed: int, dim: int = 2,
                           delta0: float = 1.0) -> DivergentFamily:
    """For each n <= block_count, search for a pair with ratio above 2**n
    inside the window of half-width delta_n = delta0 * 2**-n
    (``default_delta_schedule``), refine it below unit increment, and
    amplify it back into [1/2, 1].

    A block that misses its target truncates the family; the miss is recorded
    as data, not raised.  That outcome is expected for functions whose
    increments stay controlled near 0.

    Blocks go in order.  Each first refines and amplifies its scalar probe
    (``scalar_probe``); only where that misses the target does it run the
    search (``seminorm_lower_bound``, the only reader of ``dim`` and
    ``per_block_budget``) and refine and amplify its winner instead.  No
    block after a failed one is scored, so a family that stops at block m
    has searched exactly one block, block m.  The schedule's BadSchedule and
    the BadArgument of the seed, dim or budget come before block 1; they
    are checked here, as a family may run no search.
    """
    schedule = default_delta_schedule(block_count, delta0)
    for value, minimum, what in ((seed, 0, "seed"), (dim, 1, "dim"),
                                 (per_block_budget, 1, "budget")):
        integer_at_least(value, minimum, what, BadArgument)
    records = []
    for index, delta in enumerate(schedule, start=1):
        grid = _block_grid(delta, index, f.sample_points)
        record = _block_record(f, index, delta, scalar_probe(f, grid, dim))
        if record.status == "failed":
            bound = seminorm_lower_bound(f, grid, dim, "schatten1", per_block_budget,
                                         _block_seed(seed, index))
            record = _block_record(f, index, delta, bound.witness)
        if record.status == "failed":
            return DivergentFamily(tuple(records), record)
        records.append(record)
    return DivergentFamily(tuple(records), None)


def partial_sums(blocks: Sequence[SumBlock]) -> List[Tuple[float, float]]:
    """Running sums (sum of N_n ||B_n - A_n||_1, sum of N_n ||f(B_n) - f(A_n)||_1)
    over the first n of ``blocks`` for n = 0, 1, ..., len(blocks), the empty
    prefix (0.0, 0.0) first; one pass, each sum the one before plus a block."""
    sums = [(0.0, 0.0)]
    for blk in blocks:
        perturbation_sum, increment_sum = sums[-1]
        sums.append((perturbation_sum + blk.weighted_delta_s1,
                     increment_sum + blk.weighted_increment_s1))
    return sums
