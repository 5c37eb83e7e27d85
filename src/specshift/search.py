"""Seeded lower-bound search for the increment-ratio seminorms on a finite
spectra set.

Candidates are pairs A = diag(a), B = Q diag(b) Q^T with a, b drawn from the
grid (with repetition) and Q orthogonal.  A is kept diagonal without loss of
generality: every norm involved is unitarily invariant, so one rotation can
always be absorbed.

Search phases, in deterministic order:

  0. scalar probe: the largest quotient over every unordered pair of grid
     points, embedded at the requested dimension.  By the mediant
     inequality it is attained at a pair of adjacent points, so
     ``catalog.max_quotient`` scans only those, and no diagonal pair scores
     higher, in either norm.  ``scalar_probe`` returns this phase's witness
     alone: a divergent family scores it first and searches only where it
     misses;
  1+ `budget` seeded random restarts, each drawing (a, b) from substream
     (seed, r).  A restart whose a-priori bound from its spectra alone (by
     Lidskii-Mirsky, ||X - Y|| >= ||sort(x) - sort(y)||) is below the probe
     can never win: it is not ascended and draws no rotation.  The kept
     restarts draw Q0 next from their substreams and refine Q in one
     lockstep batch: a sweep of 8-angle coarse scans over the Givens
     coordinates at dims up to 11 (theta = 0, which turns nothing, is not
     scored), then a polish of Cayley steps along the ratio's gradient over
     all rotation generators, each iteration after the first scoring the 3
     step lengths around a lane's last step, and the other 9 only where
     those miss.  Every candidate, sweep or polish, is a rotation scored on
     its own frame, and each step scores all of its candidates with one
     stacked ``eigvalsh``, in one thread.
     When every restart is ruled out no ascent runs.

The incumbent is the best value with the earliest phase index, so the result
is deterministic given (seed, budget), independent of evaluation order, and
nondecreasing in budget.  Candidate ratios reuse the construction
decomposition of B (no fresh eigensolve), which keeps trivial identities
exact: the identity function scores 1.0 bit for bit.  The winner's two
ratios (operator and Schatten-1) are rescored by the kernel that scored it:
the probe's single-entry quotient, or ``_norms`` on a restart's final frame,
so the reported value equals the searched one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import ScalarFunction, integer_at_least, max_quotient, pointwise
from .errors import BadArgument
from .hermitian import (HermitianOperator, RatioWitness, decompose, hermitian_part,
                        noise_floor)
from .loewner import FiniteSpectrumSet

__all__ = ["NORM_KINDS", "SeminormLowerBound", "scalar_probe", "seminorm_lower_bound"]

NORM_KINDS = ("operator", "schatten1")

_STEPS = 4.0 * 2.0 ** -np.arange(12)  # the polish's steps along a unit gradient
_POLISH_ITERS = 40


def _sweep_pairs(dim: int) -> list:
    """Coordinate pairs (i, j) the coarse sweep turns: all C(dim, 2) where
    their 8 angles each cost no more trials than the polish (dim <= 11), else none."""
    pairs = list(itertools.combinations(range(dim), 2))
    return pairs if 8 * len(pairs) <= _STEPS.size * _POLISH_ITERS else []


@dataclass(frozen=True)
class SeminormLowerBound:
    """Best increment ratio found, with the pair that attains it.

    ``value`` equals the witness's ratio of the requested kind exactly.
    ``witness`` is None when the grid admits no unequal pair, i.e. it has a
    single point.
    """

    value: float
    witness: Optional[RatioWitness]
    norm_kind: str
    budget_used: int
    seed: int
    budget: int


@dataclass(frozen=True)
class _Lanes:
    """Spectra of L candidate families scored together: lane l pairs
    diag(a_l) with Q diag(b_l) Q^T for whatever Q the ascent proposes."""

    spec: np.ndarray   # (2, L, n): b and f(b) per lane
    diag: np.ndarray   # (2, L, n): a and f(a) per lane
    floor: np.ndarray  # (2, L, 1): noise floors of the denominator and numerator

    def take(self, lane) -> "_Lanes":
        """The lanes selected by the index or mask ``lane``."""
        return _Lanes(self.spec[:, lane], self.diag[:, lane], self.floor[:, lane])


def _magnitudes(spec: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Largest |entry| of each lane's spectra (row 0) and f-values (row 1)."""
    return np.abs(np.concatenate([spec, diag], axis=-1)).max(axis=-1)


class _Evaluator:
    """The one ratio scorer of ascent candidates, over a fixed grid and function table.

    Per lane, a denominator at most ``noise_floor`` of max|a_i|, |b_i|
    invalidates a candidate, and a numerator at most ``noise_floor`` of
    max|f(a_i)|, |f(b_i)| scores an exact 0.0, as f constant on the grid must.
    """

    def __init__(self, pts: np.ndarray, fvals: np.ndarray, kind: str):
        self.pts = pts
        self.fvals = fvals
        self.kind = kind

    def lanes(self, starts) -> _Lanes:
        """Lanes for a list of candidates (ia, ib, ...), one lane each."""
        ia = np.array([c[0] for c in starts])
        ib = np.array([c[1] for c in starts])
        spec = np.stack([self.pts[ib], self.fvals[ib]])
        diag = np.stack([self.pts[ia], self.fvals[ia]])
        floor = noise_floor(ia.shape[1], _magnitudes(spec, diag))
        return _Lanes(spec, diag, floor[..., None])

    def ratios(self, lanes: _Lanes, m: np.ndarray) -> np.ndarray:
        """(L, k) ratios of the (2, L, k, n, n) stack ``m`` of denominator
        and numerator matrices."""
        s1, op = _norms(m)
        den, num = s1 if self.kind == "schatten1" else op
        # a subnormal den below its floor may overflow num / den: masked, -inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(den <= lanes.floor[0], -np.inf,
                            np.where(num <= lanes.floor[1], 0.0, num / den))


def _frames(lanes: _Lanes, q: np.ndarray) -> np.ndarray:
    """(2, L, ..., n, n) stack of diag(b) - Q^T diag(a) Q and its f-valued
    twin for each lane and each of its rotations Q in the (L, ..., n, n)
    stack ``q``: orthogonally similar to the candidate."""
    shape = lanes.spec.shape[:2] + (1,) * (q.ndim - 3) + lanes.spec.shape[-1:]
    m = -(q.swapaxes(-1, -2) * lanes.diag.reshape(shape)[..., None, :]) @ q
    d = np.arange(q.shape[-1])
    m[..., d, d] += lanes.spec.reshape(shape)
    return m


def _norms(m: np.ndarray):
    """Schatten-1 and operator norms of each symmetric matrix of the stack
    ``m`` (lower triangles read): the sum and the max of |eigenvalues|."""
    lam = np.abs(np.linalg.eigvalsh(m))
    return lam.sum(axis=-1), lam.max(axis=-1)


def _lane_bounds(lanes: _Lanes, kind: str) -> np.ndarray:
    """Upper bound on each lane's ratio over every rotation Q.

    Numerator at most sum|f(a_i) - c| + sum|f(b_i) - c| at the median c of
    f(a) and f(b), i.e. their upper half's sum minus their lower half's
    (operator norm: their range).  Denominator at least sum|sort(a) -
    sort(b)| by Lidskii-Mirsky (Weyl: the max); +inf where the slack
    swallows it.  The slack, ``noise_floor`` at rel 1e-9 per side, covers
    the rounding of a scored norm: while the arithmetic stays normal that
    is O(n^3 eps max|entries|) (Q's drift, frame, eigvalsh: 5.4e-15
    max|entries| measured at n = 16), which 1e-9 * n * max|entries| dwarfs."""
    n = lanes.spec.shape[-1]
    gap = np.abs(np.sort(lanes.spec[0], axis=-1) - np.sort(lanes.diag[0], axis=-1))
    fv = np.sort(np.concatenate([lanes.spec[1], lanes.diag[1]], axis=-1), axis=-1)
    if kind == "schatten1":
        den, num = gap.sum(axis=-1), fv[:, n:].sum(axis=-1) - fv[:, :n].sum(axis=-1)
    else:
        den, num = gap.max(axis=-1), fv[:, -1] - fv[:, 0]
    slack = noise_floor(n, _magnitudes(lanes.spec, lanes.diag), 1e-9)
    den = den - slack[0]
    with np.errstate(divide="ignore"):
        return np.where(den > 0, (num + slack[1]) / den, np.inf)


_COS, _SIN = pointwise(math.cos), pointwise(math.sin)  # np.cos/sin need not round alike


def _givens(dim: int, i: int, j: int, thetas: np.ndarray) -> np.ndarray:
    """Rotations in the (i, j) plane, one per angle: shape (*thetas.shape, dim, dim)."""
    g = np.broadcast_to(np.eye(dim), thetas.shape + (dim, dim)).copy()
    c, s = _COS(thetas), _SIN(thetas)
    g[..., i, i] = c
    g[..., j, j] = c
    g[..., i, j] = -s
    g[..., j, i] = s
    return g


def _gradient(lanes: _Lanes, frames: np.ndarray, value: np.ndarray, kind: str):
    """(L, n, n) gradient of each lane's log(ratio) at its frames in the skew
    generators K of Q's rotations; zero where the lane scores -inf or 0.0.

    Turning diag(x) by I + tK moves the frame by K_ij (x_j - x_i), so a norm
    with subgradient S has slope 2 S_ij (x_j - x_i) in K_ij, i < j, a skew
    matrix: S = U sign(Lambda) U^T for Schatten-1, sign(lam) u u^T at the
    eigenvalue of largest modulus for the operator norm."""
    dec = decompose(hermitian_part(frames))
    lam, u = dec.eigenvalues, dec.eigenvectors
    if kind == "schatten1":
        s = (u * np.sign(lam)[..., None, :]) @ u.swapaxes(-1, -2)
        norm = np.abs(lam).sum(axis=-1)
    else:
        top = np.argmax(np.abs(lam), axis=-1)[..., None]
        v = np.take_along_axis(u, top[..., None], axis=-1)
        peak = np.take_along_axis(lam, top, axis=-1)
        s = np.sign(peak)[..., None] * v * v.swapaxes(-1, -2)
        norm = np.abs(peak[..., 0])
    live = value > 0
    d = 2.0 * s * (lanes.spec[..., None, :] - lanes.spec[..., :, None])
    d = d / np.where(live, norm, 1.0)[..., None, None]
    return np.where(live[:, None, None], d[1] - d[0], 0.0)


def _cayley(g: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(I - tG/2)^-1 (I + tG/2) for G each skew matrix of the (L, n, n) stack
    ``g`` scaled to unit Frobenius norm (zero stays zero) and each step t of
    its row of the (L, s) array ``steps``: shape (L, s, n, n)."""
    size = np.linalg.norm(g, axis=(-2, -1), keepdims=True)
    half = (g / np.where(size > 0, size, 1.0))[:, None] * (steps[..., None, None] / 2.0)
    eye = np.eye(g.shape[-1])
    return np.linalg.solve(eye - half, eye + half)


def _best_step(ev: _Evaluator, lanes: _Lanes, q: np.ndarray, g: np.ndarray, idx: np.ndarray):
    """Each lane's best Cayley retraction of its rotation ``q[l]`` along
    ``g[l]`` among the ``_STEPS`` indices in row l of ``idx``, all scored in
    one stack: (rotations, scores, step indices)."""
    trials = q[:, None] @ _cayley(g, _STEPS[idx])
    vals = ev.ratios(lanes, _frames(lanes, trials))
    row, k = np.arange(len(q)), np.argmax(vals, axis=1)
    return trials[row, k], vals[row, k], idx[row, k]


def _ascent(ev: _Evaluator, lanes: _Lanes, q: np.ndarray):
    """Lockstep ascent over rotations Q from each lane of ``lanes`` with
    starting rotation ``q[l]`` (an (L, n, n) stack, updated in place).

    One sweep over the ``_sweep_pairs`` (i, j) scores the rotations Q G(i, j,
    theta) at 7 angles per lane on their own frames, like every polish
    trial, and a lane takes its best if it beats the lane; the objective is
    pi-periodic in each angle (a sign flip of two columns leaves Q diag(b)
    Q^T unchanged), and theta = 0 would re-score the lane's own frame, which
    never beats it.  Where b_i = b_j, G leaves the candidate as it is, so
    those scores are -inf: rounding never turns a no-op into a move, and
    ``best`` stays the score of the lane's frame.  Then each polish iteration
    retracts Q along the unit gradient by Cayley steps of the ``_STEPS``
    lengths, and a lane takes its best trial if it beats the lane.  The
    first iteration scores all 12 steps; later ones score the bracket of 3
    steps around the lane's last step first, and only the lanes it misses
    score their other 9.  A lane that none of the 12 beats is at a fixed
    point and would repeat its trials, so it retires; every matrix of a
    stack gets the bits it gets alone, so each lane ends as it would alone.
    The polish stops after ``_POLISH_ITERS`` iterations or once every lane
    has retired.  Returns the final frames' scores, as the witness rescores
    them, and the final rotations.
    """
    dim, lane = q.shape[-1], np.arange(len(q))
    best = ev.ratios(lanes, _frames(lanes, q[:, None]))[:, 0]
    coarse = np.delete(np.linspace(-math.pi / 2, math.pi / 2, 9)[:-1], 4)  # theta = 0: Q itself
    for i, j in _sweep_pairs(dim):
        trials = q[:, None] @ _givens(dim, i, j, coarse)
        vals = ev.ratios(lanes, _frames(lanes, trials))
        vals[lanes.spec[0, :, i] == lanes.spec[0, :, j]] = -np.inf  # G leaves B as it is
        k = np.argmax(vals, axis=1)
        better = vals[lane, k] > best
        q[better], best[better] = trials[better, k[better]], vals[better, k[better]]
    every, step = np.arange(_STEPS.size), np.zeros(len(q), dtype=np.intp)
    for it in range(_POLISH_ITERS):
        live = lanes.take(lane)
        g = _gradient(live, _frames(live, q[lane]), best[lane], ev.kind)
        lo = np.clip(step[lane] - 1, 0, every.size - 3)[:, None]
        stages = ((lo + every[:3], every[:-3] + 3 * (every[:-3] >= lo)) if it else
                  (np.broadcast_to(every, (lane.size, every.size)),))
        stuck = np.ones(lane.size, dtype=bool)
        for idx in stages:
            at = lane[stuck]
            if at.size:
                trial, val, k = _best_step(ev, lanes.take(at), q[at], g[stuck], idx[stuck])
                gain = val > best[at]
                q[at[gain]], best[at[gain]], step[at[gain]] = trial[gain], val[gain], k[gain]
                stuck[stuck] = ~gain
        lane = lane[~stuck]
        if not lane.size:
            break
    return best.tolist(), q


def _scalar_probe(ev: _Evaluator, dim: int):
    """Best quotient over all pairs of grid points, embedded at ``dim``
    by padding both spectra with the first point of the pair.  The pair is
    adjacent, and ties go to the first adjacent maximiser."""
    value, i, j = max_quotient(ev.pts, ev.fvals)
    ia = np.full(dim, i, dtype=np.intp)
    ib = ia.copy()
    ib[0] = j
    return value, (ia, ib, None)


def _restart_start(n_pts: int, dim: int, seed: int, index: int):
    """Spectra (ia, ib) of restart ``index`` from substream (seed, index), and
    that substream's generator: its next draw is Q0, made if ascended."""
    rng = np.random.default_rng([seed, index])
    ia = rng.integers(0, n_pts, size=dim)
    ib = rng.integers(0, n_pts, size=dim)
    for _ in range(16):
        if not np.array_equal(ia, ib):
            break
        ib = rng.integers(0, n_pts, size=dim)
    else:
        ib = ia.copy()
        ib[0] = (ia[0] + 1) % n_pts
    return ia, ib, rng


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthogonal matrix from the QR factors of a standard normal draw, with
    the signs of R's diagonal folded into Q (Haar distributed)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _witness_from_candidate(ev: _Evaluator, ia, ib, q):
    """Materialise the candidate pair with both ratios computed along the
    same arithmetic path and floors the search used to score it; the probe's
    denominator is a gap between grid points, so no floor applies to it."""
    a, b = ev.pts[ia], ev.pts[ib]
    lanes = ev.lanes([(ia, ib)])
    if q is None:
        # the probe pair differs only in entry 0: both norms are its modulus
        b_mat = np.diag(b)
        den_s1 = den_op = abs(float(b[0] - a[0]))
        num_s1 = num_op = abs(float(ev.fvals[ib[0]] - ev.fvals[ia[0]]))
    else:
        b_mat = (q * b) @ q.T
        s1, op = _norms(_frames(lanes, q[None]))
        (den_s1, num_s1), (den_op, num_op) = s1[:, 0].tolist(), op[:, 0].tolist()
    floor = float(lanes.floor[1, 0, 0])
    return RatioWitness(
        a=HermitianOperator(np.diag(a)),
        b=HermitianOperator(b_mat),
        ratio_s1=0.0 if num_s1 <= floor else num_s1 / den_s1,
        ratio_op=0.0 if num_op <= floor else num_op / den_op,
    )


def scalar_probe(f: ScalarFunction, f0: FiniteSpectrumSet, dim: int) -> Optional[RatioWitness]:
    """Phase 0 alone: the witness ``seminorm_lower_bound`` returns wherever
    no restart beats the scalar probe, None where ``f0`` has a single point.
    Both of its ratios are the probe's quotient, so no norm kind enters."""
    pts = f0.points
    if pts.size < 2:
        return None
    ev = _Evaluator(pts, f.values_at(pts), "schatten1")  # its kind scores nothing here
    return _witness_from_candidate(ev, *_scalar_probe(ev, dim)[1])


def seminorm_lower_bound(f: ScalarFunction, f0: FiniteSpectrumSet, dim: int,
                         norm_kind: str, budget: int, seed: int) -> SeminormLowerBound:
    """Maximise the increment ratio of ``f`` over pairs with spectra in ``f0``.

    ``budget`` counts random restarts; ``budget_used`` reports the candidates
    settled: the probe pairs and every restart's ascent candidates, scored,
    settled unscored (theta = 0, the steps outside a bracket that gained, a
    retired lane's trials) or ruled out by the restart's bound.
    Deterministic given (seed, budget), and nondecreasing in budget under a
    fixed seed.
    """
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    for value, minimum, what in ((dim, 1, "dim"), (budget, 1, "budget"), (seed, 0, "seed")):
        integer_at_least(value, minimum, what, BadArgument)
    pts = f0.points
    if pts.size < 2:
        return SeminormLowerBound(0.0, None, norm_kind, 0, seed, budget)

    ev = _Evaluator(pts, f.values_at(pts), norm_kind)
    probe_value, probe = _scalar_probe(ev, dim)
    starts = [_restart_start(pts.size, dim, seed, r) for r in range(budget)]
    lanes = ev.lanes(starts)
    # a restart wins only by a strict > over the probe: one whose bound is
    # below it is not ascended, draws no rotation and keeps -inf
    keep = _lane_bounds(lanes, norm_kind) >= probe_value
    values = np.full(budget, -np.inf)
    qs = np.zeros((budget, dim, dim))
    if keep.any():
        qs[keep] = [random_orthogonal(starts[r][2], dim) for r in np.flatnonzero(keep)]
        values[keep], qs[keep] = _ascent(ev, lanes.take(keep), qs[keep])
    # ties go to the earliest phase: the probe, then the first restart
    r = int(np.argmax(values))
    best = (*starts[r][:2], qs[r]) if values[r] > probe_value else probe
    witness = _witness_from_candidate(ev, *best)
    value = witness.ratio_s1 if norm_kind == "schatten1" else witness.ratio_op
    # C(n, 2) probe pairs (the mediant inequality settles them all), then per
    # restart, ascended or screened, a start, 8 angles per pair the sweep
    # turns and 12 polish trials per iteration (theta = 0, the steps outside
    # a bracket that gained and a retired lane's trials are settled)
    used = math.comb(pts.size, 2) + budget * (
        1 + 8 * len(_sweep_pairs(dim)) + _STEPS.size * _POLISH_ITERS)
    return SeminormLowerBound(value, witness, norm_kind, used, seed, budget)
