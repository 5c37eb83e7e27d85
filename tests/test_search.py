"""Tests for the seminorm lower-bound search."""

import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specshift import (BadArgument, ConfigError, DomainError, FiniteSpectrumSet,
                       HermitianOperator,
                       ScalarFunction, apply_function, catalog_ids, get_function,
                       increment_ratio, restrict_to_grid, search, seminorm_lower_bound, singular_values)
from specshift.blocks import _block_grid, _block_seed, build_divergent_family
from specshift.catalog import pointwise
from specshift.search import (_POLISH_ITERS, _STEPS, _ascent, _cayley, _Evaluator,
                              _frames, _gradient, _lane_bounds, _norms, _restart_start,
                              _scalar_probe, _witness_from_candidate, random_orthogonal)

from conftest import count_calls


def _grid9():
    return restrict_to_grid((-1, 1), 9)


def _ascended_start(n_pts, dim, seed, index):
    """Restart ``index``'s start (ia, ib, Q0) as it is when ascended: Q0 is
    the next draw of the generator ``_restart_start`` hands back."""
    ia, ib, rng = _restart_start(n_pts, dim, seed, index)
    return ia, ib, random_orthogonal(rng, dim)


def test_identity_is_exactly_one():
    f = get_function("identity")
    grids = [_grid9(), FiniteSpectrumSet([0.0, 0.3]),
             FiniteSpectrumSet([-2.0, -1.0, 5.0]),
             restrict_to_grid((0.1, 0.9), 17)]
    for grid in grids:
        for dim in (1, 2, 5):
            for kind in ("operator", "schatten1"):
                res = seminorm_lower_bound(f, grid, dim, kind, 2, 1)
                assert res.value == 1.0


def test_abs_on_two_point_set_is_exactly_zero():
    res = seminorm_lower_bound(get_function("abs"),
                               FiniteSpectrumSet([-1.0, 1.0]), 3, "schatten1", 4, 2)
    assert res.value == 0.0
    assert res.witness is not None


def test_single_point_grid_is_degenerate():
    res = seminorm_lower_bound(get_function("abs"),
                               FiniteSpectrumSet([0.5]), 2, "schatten1", 3, 0)
    assert res.witness is None
    assert res.value == 0.0


def test_abs_dim8_reaches_scalar_floor():
    # oracle: exhaustive sweep over scalar pairs of the grid gives exactly 1
    grid = _grid9()
    pts = grid.points
    best = max(abs(abs(y) - abs(x)) / abs(y - x)
               for x, y in itertools.combinations(pts, 2))
    assert best == 1.0
    res = seminorm_lower_bound(get_function("abs"), grid, 8, "schatten1", 4, 5)
    assert res.value >= 1.0


def test_scalar_floor_always_probed(rng):
    # value is at least the best scalar quotient for every function tried
    grid = restrict_to_grid((-1, 1), 7)
    pts = grid.points
    for fid, params in (("abs", ()), ("sin", ()), ("signed_square", ()),
                        ("smoothed_abs", (0.1,))):
        f = get_function(fid, params)
        floor = max(abs(f(y) - f(x)) / abs(y - x)
                    for x, y in itertools.combinations(pts, 2))
        probe, _ = _scalar_probe(_Evaluator(pts, f.values_at(pts), "schatten1"), 3)
        res = seminorm_lower_bound(f, grid, 3, "schatten1", 2, 9)
        assert res.value >= probe >= floor - 1e-12


@settings(max_examples=100, deadline=None)
@given(fid=st.sampled_from(catalog_ids()),
       interval=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0), (-3.0, 0.25)]),
       count=st.integers(2, 17), dim=st.integers(1, 6), budget=st.integers(1, 4),
       seed=st.integers(0, 2**31), kind=st.sampled_from(["operator", "schatten1"]))
def test_search_never_reports_below_its_probe(fid, interval, count, dim, budget, seed, kind):
    # a restart replaces the probe only when its final frame's score, the
    # value its witness reports, is strictly above the probe
    f = get_function(fid, _PARAMS.get(fid, ()))
    grid = restrict_to_grid(interval, count)
    probe, _ = _scalar_probe(_Evaluator(grid.points, f.values_at(grid.points), kind), dim)
    res = seminorm_lower_bound(f, grid, dim, kind, budget, seed)
    assert res.value >= probe


def _quotient_conditioning(f, a, b):
    """For the Schatten-1 and operator ratios of (A, B): max|entries| / norm
    of B - A plus the same for f(B) - f(A).  Roundings of relative size eps
    in the entries move a ratio by up to about eps times this, in any
    basis."""
    cond = np.zeros(2)
    for x, y in ((a.matrix, b.matrix),
                 (apply_function(f, a), apply_function(f, b))):
        s = singular_values(y - x)
        with np.errstate(divide="ignore"):
            cond += max(np.abs(x).max(), np.abs(y).max()) / np.array([s.sum(), s[0]])
    return cond


class TestFrameKernelAccuracy:
    """The frame kernel's ratios agree with ``increment_ratio``, which
    rebuilds f(B) from a fresh eigensolve of B in the original basis, to
    1e-12 relative, on the search's witness and on each ascended restart's
    final candidate.  Where a norm is small against the entries both sides
    lose digits to cancellation, so the tolerance grows with
    ``_quotient_conditioning`` (measured errors stay below 1e-14 of it).
    sqrt_abs is left out: it is not Lipschitz at 0, a grid point here, so
    the fresh eigensolve's O(eps) error in an eigenvalue 0 becomes an
    O(sqrt(eps)) error in f."""

    @settings(max_examples=60, deadline=None)
    @given(fid=st.sampled_from([fid for fid in catalog_ids() if fid != "sqrt_abs"]),
           interval=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0), (-3.0, 0.25)]),
           count=st.integers(2, 17), dim=st.integers(1, 8),
           seed=st.integers(0, 2**31), kind=st.sampled_from(["operator", "schatten1"]))
    def test_ratios_match_a_fresh_eigensolve(self, fid, interval, count, dim, seed, kind):
        f = get_function(fid, _PARAMS.get(fid, ()))
        grid = restrict_to_grid(interval, count)
        res = seminorm_lower_bound(f, grid, dim, kind, 2, seed)
        witnesses = [(res.value, res.witness)]
        ev = _Evaluator(grid.points, f.values_at(grid.points), kind)
        starts = [_ascended_start(count, dim, seed, r) for r in range(2)]
        values, qs = _ascent(ev, ev.lanes(starts), np.stack([c[2] for c in starts]))
        witnesses += [(value, _witness_from_candidate(ev, ia, ib, q))
                      for (ia, ib, _), value, q in zip(starts, values, qs)]
        for value, w in witnesses:
            # a floored numerator scores an exact 0.0 and a floored
            # denominator -inf: neither is a ratio to compare
            if value > 0:
                assert value == (w.ratio_s1 if kind == "schatten1" else w.ratio_op)
                fresh = increment_ratio(f, w.a, w.b)
                cond = _quotient_conditioning(f, w.a, w.b)
                for got, want, c in ((w.ratio_s1, fresh.ratio_s1, cond[0]),
                                     (w.ratio_op, fresh.ratio_op, cond[1])):
                    assert abs(got - want) <= 1e-12 * max(1.0, c) * want


def test_budget_monotonicity_fixed_seed():
    f = get_function("abs")
    grid = _grid9()
    values = [seminorm_lower_bound(f, grid, 3, "schatten1", budget, 13).value
              for budget in range(1, 21)]
    assert all(b >= a for a, b in zip(values, values[1:]))


@settings(max_examples=100, deadline=None)
@given(fid=st.sampled_from(catalog_ids()),
       interval=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0)]),
       count=st.integers(2, 9), dim=st.integers(2, 4), seed=st.integers(0, 2**31),
       kind=st.sampled_from(["operator", "schatten1"]))
def test_value_nondecreasing_in_budget(fid, interval, count, dim, seed, kind):
    # restart r draws from substream (seed, r) whatever the budget, so a
    # larger budget adds restarts and the best of them can only rise
    f = get_function(fid, _PARAMS.get(fid, ()))
    grid = restrict_to_grid(interval, count)
    values = [seminorm_lower_bound(f, grid, dim, kind, budget, seed).value
              for budget in (1, 2, 4)]
    assert values[0] <= values[1] <= values[2]


def test_deterministic_given_seed_and_budget():
    f = get_function("smoothed_abs", (0.05,))
    grid = _grid9()
    r1 = seminorm_lower_bound(f, grid, 4, "schatten1", 5, 21)
    r2 = seminorm_lower_bound(f, grid, 4, "schatten1", 5, 21)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness.b.matrix, r2.witness.b.matrix)


def test_witness_recomputable_by_increment_ratio():
    for fid, params in (("abs", ()), ("smoothed_abs", (0.05,)), ("sin", ())):
        f = get_function(fid, params)
        res = seminorm_lower_bound(f, _grid9(), 4, "schatten1", 5, 3)
        recomputed = increment_ratio(f, res.witness.a, res.witness.b)
        assert recomputed.ratio_s1 == pytest.approx(res.value, rel=1e-9)


def test_value_equals_witness_ratio_exactly():
    res = seminorm_lower_bound(get_function("abs"), _grid9(), 4, "operator", 3, 8)
    assert res.value == res.witness.ratio_op


def test_dim1_operator_ratios_bounded_by_lipschitz_constant():
    cases = [("abs", (), 1.0), ("sin", (), 1.0), ("identity", (), 1.0),
             ("smoothed_abs", (0.3,), 1.0)]
    for fid, params, lip in cases:
        f = get_function(fid, params)
        res = seminorm_lower_bound(f, _grid9(), 1, "operator", 4, 17)
        assert res.value <= lip + 1e-12


def test_operator_kind_and_s1_kind_both_search(rng):
    f = get_function("abs")
    op = seminorm_lower_bound(f, _grid9(), 4, "operator", 4, 2)
    s1 = seminorm_lower_bound(f, _grid9(), 4, "schatten1", 4, 2)
    # lower bounds, both at least the scalar floor of 1
    assert op.value >= 1.0
    assert s1.value >= 1.0


def test_budget_used_counts_evaluations():
    res = seminorm_lower_bound(get_function("abs"), _grid9(), 2, "schatten1", 3, 4)
    assert res.budget_used > 0


@pytest.mark.parametrize("count,dim,budget,expected", [
    (5, 1, 1, 491), (5, 2, 1, 499), (5, 3, 2, 1020), (5, 4, 1, 539),
    (17, 2, 4, 2092), (17, 4, 4, 2252), (17, 11, 1, 1057), (17, 12, 1, 617),
    (17, 16, 4, 2060)])
@pytest.mark.parametrize("kind", ["operator", "schatten1"])
def test_budget_used_is_probe_plus_ascent(count, dim, budget, expected, kind):
    # C(n, 2) probe pairs, then per restart, ascended or screened, one start,
    # 8 coarse angles per coordinate pair at dims <= 11, where the sweep
    # runs, and 40 polish iterations of 12 trials each, settled alike by a
    # lane that stalls at a fixed point
    res = seminorm_lower_bound(get_function("abs"), restrict_to_grid((-1, 1), count),
                               dim, kind, budget, 0)
    assert res.budget_used == expected == (
        math.comb(count, 2) + budget * (1 + 8 * math.comb(dim, 2) * (dim <= 11) + 12 * 40))


#: (dim, kind) -> matrices through np.linalg.eigvalsh and calls of
#: search._givens (one per coordinate pair the sweep turns)
RATIO_SEARCH_WORK = {
    (2, "operator"): (304, 1), (2, "schatten1"): (306, 1),
    (4, "operator"): (570, 6), (4, "schatten1"): (564, 6),
    (8, "operator"): (2346, 28), (8, "schatten1"): (2286, 28),
    (16, "operator"): (1036, 0), (16, "schatten1"): (1040, 0),
}


def test_ratio_search_benchmark_counted_work(monkeypatch):
    # the searches of perfbench's ratio_search config (abs, 17 points on
    # [-1, 1], budget 4, seed 1): these counts repeat exactly, so they move
    # only when the work the search does moves.  No sweep at dim 16.
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        matrices.append(math.prod(m.shape[:-2]))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    swept = count_calls(monkeypatch, search, "_givens")
    work = {}
    for dim, kind in RATIO_SEARCH_WORK:
        matrices.clear()
        swept.clear()
        seminorm_lower_bound(get_function("abs"), restrict_to_grid((-1, 1), 17),
                             dim, kind, 4, 1)
        work[dim, kind] = (sum(matrices), len(swept))
    assert work == RATIO_SEARCH_WORK


def test_invalid_arguments():
    # integer arguments raise a configuration error that is still a ValueError
    assert issubclass(BadArgument, ConfigError) and issubclass(BadArgument, ValueError)
    f = get_function("abs")
    grid = _grid9()
    with pytest.raises(BadArgument, match="dim must be an integer >= 1, got 0"):
        seminorm_lower_bound(f, grid, 0, "schatten1", 1, 0)
    with pytest.raises(BadArgument, match="budget must be an integer >= 1, got 0"):
        seminorm_lower_bound(f, grid, 1, "schatten1", 0, 0)
    with pytest.raises(ValueError):
        seminorm_lower_bound(f, grid, 1, "nuclear", 1, 0)
    with pytest.raises(BadArgument, match="seed must be an integer >= 0, got -1"):
        seminorm_lower_bound(f, grid, 1, "schatten1", 1, -1)


def _fingerprint(res):
    """(value as hex, budget_used, sha256 of the witness B matrix bytes)."""
    digest = hashlib.sha256(res.witness.b.matrix.tobytes()).hexdigest()
    return res.value.hex(), res.budget_used, digest


class TestFrozenWitnesses:
    """Outputs recorded from the search of the scalar probe and the screened
    restarts; the search must reproduce them bit for bit."""

    ABS_GRID_17 = {
        (2, "operator"): ("0x1.0000000000000p+0", 2092,
                          "e4a4874ef08347adcf673e3a0e5ff38c174b3755702ac2306c6f0693ed8d2e8c"),
        (2, "schatten1"): ("0x1.0000000000000p+0", 2092,
                           "e4a4874ef08347adcf673e3a0e5ff38c174b3755702ac2306c6f0693ed8d2e8c"),
        (4, "operator"): ("0x1.00529144f9525p+0", 2252,
                          "31615c000e329811a6255f828d3dbec114c7abe3ed500127adfefc1db3a20f68"),
        (4, "schatten1"): ("0x1.0000000000000p+0", 2252,
                           "a314770e5b180cc7bb9a2882fd246bcc053d4e92f8bf273451ef818743458f22"),
        (8, "operator"): ("0x1.019f1632ffc77p+0", 2956,
                          "726d7bdf300907922e9d43aa6a76858a3135f0d3a492bd63df1f50d9cf366fa4"),
        (8, "schatten1"): ("0x1.0000000000000p+0", 2956,
                           "bbd231d85ea03d919bcb6004ba86422770c718f7ad554b27c0b8433380d575c8"),
        (16, "operator"): ("0x1.0000000000000p+0", 2060,
                           "5efc48be61f78b87c87b6852f2871de11a48d820941b1cb794e495f962bd51b1"),
        (16, "schatten1"): ("0x1.0000000000000p+0", 2060,
                            "5efc48be61f78b87c87b6852f2871de11a48d820941b1cb794e495f962bd51b1"),
    }

    SQRT_ABS_BLOCKS = {
        1: ("0x1.0000000000000p+6", 5595,
            "69e98c722786fc4c14c0734d1b38c8c927d43901d41137607c5f5afcb83d20b3"),
        2: ("0x1.6a09e667f3bcdp+7", 5901,
            "2c79b76cdd5ba4e2e340cb3e6b0a6f0deeae69813909780146a13fbdc58ddcd0"),
        3: ("0x1.0000000000000p+9", 6223,
            "85a6c30ea523b8ba4a24f72957577d35309fa433fb5c90868d72f9fbf24dbb12"),
    }

    @pytest.mark.parametrize("dim,kind", sorted(ABS_GRID_17))
    def test_abs_grid_17_seed_17(self, dim, kind):
        res = seminorm_lower_bound(get_function("abs"), restrict_to_grid((-1, 1), 17),
                                   dim, kind, 4, 17)
        assert _fingerprint(res) == self.ABS_GRID_17[dim, kind]

    @pytest.mark.parametrize("level", sorted(SQRT_ABS_BLOCKS))
    def test_sqrt_abs_block_grids_dim_8(self, level):
        res = seminorm_lower_bound(get_function("sqrt_abs"), _block_grid(2.0 ** -level, level),
                                   8, "schatten1", 4, _block_seed(1, level))
        assert _fingerprint(res) == self.SQRT_ABS_BLOCKS[level]

    def test_smoothed_abs_grid9_seed_31(self):
        res = seminorm_lower_bound(get_function("smoothed_abs", (0.05,)), _grid9(),
                                   3, "schatten1", 6, 31)
        assert _fingerprint(res) == (
            "0x1.ff261b3871160p-1", 3066,
            "e29eb53aadcd0d2303b8cda8dc27626a43452c8ffae39f59de980dae72d67d36")


# One-candidate-at-a-time reference: every candidate builds its own frame
# diag(b) - Q^T diag(a) Q from its own rotation, gets its own eigenvalue
# solves, and every ascent runs alone.  The lockstep search must match it
# bit for bit.

def _dense_norm(m, kind):
    lam = np.abs(np.linalg.eigvalsh(m))
    return float(lam.sum()) if kind == "schatten1" else float(lam.max())


def _oracle_floor(x, y):
    # noise floor of a norm of an n x n difference whose entries reach
    # max|x_i|, |y_i|
    n = x.size
    return 1e-14 * n * max(np.abs(x).max(), np.abs(y).max()) + n * n * 2.0 ** -1022


def _oracle_frame(ev, ia, ib, q):
    """diag(b) - Q^T diag(a) Q and diag(f(b)) - Q^T diag(f(a)) Q."""
    frame = []
    for x in (ev.pts, ev.fvals):
        m = -(q.T * x[ia]) @ q
        m[np.diag_indices(ia.size)] += x[ib]
        frame.append(m)
    return frame


class _CountingEvaluator(_Evaluator):
    """The search's tables with a counter of the candidates the oracle
    scores, one by one (the search itself reports its count in closed
    form), the polish iteration at which each ascent stalled
    (``_POLISH_ITERS`` if it never did), and (ascent, iteration) of each
    polish move that a lane's bracket missed and a far step made."""

    def __init__(self, *args):
        super().__init__(*args)
        self.count = 0
        self.stalls = []
        self.far_moves = []


def _oracle_score(ev, ia, ib, frame):
    a, b = ev.pts[ia], ev.pts[ib]
    fa, fb = ev.fvals[ia], ev.fvals[ib]
    den = _dense_norm(frame[0], ev.kind)
    if den <= _oracle_floor(a, b):
        return -math.inf
    num = _dense_norm(frame[1], ev.kind)
    if num <= _oracle_floor(fa, fb):
        return 0.0
    return num / den


def _oracle_rotated(ev, ia, ib, q, i, j, theta):
    """Score of the candidate with rotation Q G(i, j, theta), on its own
    frame; -inf where b_i = b_j, since G then leaves Q diag(b) Q^T as it is."""
    ev.count += 1
    if ev.pts[ib[i]] == ev.pts[ib[j]]:
        return -math.inf
    turned = q @ _oracle_givens(ia.size, i, j, theta)
    return _oracle_score(ev, ia, ib, _oracle_frame(ev, ia, ib, turned))


def _oracle_givens(dim, i, j, theta):
    g = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _oracle_ascent(ev, ia, ib, q0):
    dim = ia.size
    q = q0
    frame = _oracle_frame(ev, ia, ib, q)
    ev.count += 1
    best = _oracle_score(ev, ia, ib, frame)
    # all 8 angles: theta = 0, which the search skips, re-scores the lane's
    # own frame and so never gains.  The sweep runs at dims <= 11 only:
    # 8 C(11, 2) = 440 <= 12 * 40 < 8 C(12, 2)
    coarse = np.linspace(-math.pi / 2, math.pi / 2, 9)[:-1]
    for i in range(dim - 1 if dim <= 11 else 0):
        for j in range(i + 1, dim):
            coarse_vals = [_oracle_rotated(ev, ia, ib, q, i, j, t) for t in coarse]
            k = int(np.argmax(coarse_vals))
            if coarse_vals[k] > best:
                best = coarse_vals[k]
                q = q @ _oracle_givens(dim, i, j, float(coarse[k]))
                frame = _oracle_frame(ev, ia, ib, q)
    # the polish: this lane alone through the search's gradient and
    # retractions, each trial scored on its own frame.  The first iteration
    # tries all 12 steps; later ones the 3 around the last step taken, then,
    # if none of those gains, the other 9
    lanes = ev.lanes([(ia, ib)])
    last = None
    for step in range(_POLISH_ITERS):
        g = _gradient(lanes, np.stack(frame)[:, None], np.array([best]), ev.kind)
        if last is None:
            stages = [list(range(_STEPS.size))]
        else:
            lo = min(max(last - 1, 0), _STEPS.size - 3)
            bracket = [lo, lo + 1, lo + 2]
            stages = [bracket, [s for s in range(_STEPS.size) if s not in bracket]]
        for stage, steps in enumerate(stages):
            rotations = _cayley(g, _STEPS[steps][None])[0]
            vals = [_oracle_score(ev, ia, ib, _oracle_frame(ev, ia, ib, q @ r))
                    for r in rotations]
            k = int(np.argmax(vals))
            if vals[k] > best:
                break
        else:
            # a fixed point: the remaining iterations would repeat these trials
            ev.count += (_POLISH_ITERS - step) * _STEPS.size
            break
        if stage:
            ev.far_moves.append((len(ev.stalls), step))
        ev.count += _STEPS.size
        q, best, last = q @ rotations[k], vals[k], steps[k]
        frame = _oracle_frame(ev, ia, ib, q)
    else:
        step = _POLISH_ITERS
    ev.stalls.append(step)
    return best, q


def _oracle_search(f, grid, dim, kind, budget, seed):
    """The search with the scalar probe loop and one ascent per restart,
    none of them screened: (value, candidates counted, witness B, the
    counting evaluator)."""
    pts = grid.points
    ev = _CountingEvaluator(pts, np.array([f(x) for x in pts]), kind)
    best_val, best_pair = -math.inf, (0, 1)
    for i in range(pts.size - 1):
        for j in range(i + 1, pts.size):
            ev.count += 1
            quotient = abs(ev.fvals[j] - ev.fvals[i]) / abs(pts[j] - pts[i])
            if quotient > best_val:
                best_val, best_pair = quotient, (i, j)
    ia = np.full(dim, best_pair[0], dtype=np.intp)
    ib = ia.copy()
    ib[0] = best_pair[1]
    best_cand = (ia, ib, None)
    # every restart is ascended; ties go to the probe, then the first restart
    for r in range(budget):
        ia, ib, q0 = _ascended_start(pts.size, dim, seed, r)
        value, q = _oracle_ascent(ev, ia, ib, q0)
        if value > best_val:
            best_val, best_cand = value, (ia, ib, q)
    witness = _witness_from_candidate(ev, *best_cand)
    value = witness.ratio_s1 if kind == "schatten1" else witness.ratio_op
    return value, ev.count, witness.b.matrix, ev


_ORACLE_FUNCTIONS = (("abs", ()), ("sqrt_abs", ()), ("smoothed_abs", (0.05,)),
                     ("sin", ()), ("signed_square", ()), ("identity", ()),
                     ("constant", (1.0,)))


class TestLockstepMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(fn=st.sampled_from(_ORACLE_FUNCTIONS),
           interval=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0)]),
           count=st.integers(2, 9), dim=st.integers(1, 5),
           budget=st.integers(1, 4), seed=st.integers(0, 2**31),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_search_bit_identical(self, fn, interval, count, dim, budget, seed, kind):
        f = get_function(*fn)
        grid = restrict_to_grid(interval, count)
        res = seminorm_lower_bound(f, grid, dim, kind, budget, seed)
        value, used, b_matrix, _ = _oracle_search(f, grid, dim, kind, budget, seed)
        assert res.value.hex() == value.hex()
        assert res.budget_used == used
        assert res.witness.b.matrix.tobytes() == b_matrix.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4), lanes=st.integers(1, 4),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_ascent_lanes_bit_identical(self, data, dim, lanes, kind):
        # lanes whose b is a permutation of a reach a degenerate denominator
        # (-inf) on the coarse angle -pi/2
        grid = restrict_to_grid((-1, 1), 5)
        ev = _Evaluator(grid.points, np.abs(grid.points), kind)
        starts = []
        for _ in range(lanes):
            ia = np.array(data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)))
            ib = np.array(data.draw(st.permutations(ia.tolist())))
            if data.draw(st.booleans()):
                ib = np.array(data.draw(st.lists(st.integers(0, 4),
                                                 min_size=dim, max_size=dim)))
            q0 = _ascended_start(5, dim, data.draw(st.integers(0, 1000)), 0)[2]
            starts.append((ia, ib, np.eye(dim) if data.draw(st.booleans()) else q0))
        values, qs = _ascent(ev, ev.lanes(starts), np.stack([c[2] for c in starts]))
        oracle = _CountingEvaluator(ev.pts, ev.fvals, kind)
        for lane, (ia, ib, q0) in enumerate(starts):
            value, q = _oracle_ascent(oracle, ia, ib, q0)
            assert values[lane] == value
            assert qs[lane].tobytes() == np.asarray(q).tobytes()
        assert oracle.count == lanes * (1 + 8 * math.comb(dim, 2) + 12 * 40)

    def test_dim_12_lanes_retire_apart(self, monkeypatch):
        # past the sweep's cutoff the polish starts from Q0; the four
        # ascended restarts stall at four different polish iterations, so
        # the lockstep polish retires them one at a time
        swept = count_calls(monkeypatch, search, "_givens")
        f = get_function("abs")
        res = seminorm_lower_bound(f, _grid9(), 12, "schatten1", 4, 4)
        assert swept == []
        value, used, b_matrix, oracle = _oracle_search(f, _grid9(), 12, "schatten1", 4, 4)
        assert len(set(oracle.stalls)) == 4 and max(oracle.stalls) < _POLISH_ITERS
        assert res.value.hex() == value.hex()
        assert res.budget_used == used == 36 + 4 * (1 + 12 * 40)
        assert res.witness.b.matrix.tobytes() == b_matrix.tobytes()
        assert res.value > 1.0  # a restart's witness, above abs's probe

    def test_bracket_miss_falls_back_to_every_step(self):
        # the one restart's bracket misses at polish iterations 3 and 4,
        # where a far step still gains, so the lane moves on; it stalls at
        # iteration 6, once none of the 12 steps gains, above abs's probe
        f = get_function("abs")
        res = seminorm_lower_bound(f, _grid9(), 4, "schatten1", 1, 1)
        value, used, b_matrix, oracle = _oracle_search(f, _grid9(), 4, "schatten1", 1, 1)
        assert oracle.far_moves == [(0, 3), (0, 4)] and oracle.stalls == [6]
        assert res.value.hex() == value.hex() and res.value > 1.0
        assert res.budget_used == used == 36 + (1 + 8 * 6 + 12 * 40)
        assert res.witness.b.matrix.tobytes() == b_matrix.tobytes()

    @pytest.mark.parametrize("dim", range(2, 12))
    @pytest.mark.parametrize("kind", ["operator", "schatten1"])
    def test_sweep_angle_zero_rescores_the_lane(self, dim, kind):
        # the 8-angle sweep on the ratio_search config's restarts (abs, 17
        # points on [-1, 1], seed 1): Q G(i, j, 0) = Q, so at theta = 0 each
        # lane's candidate scores its best bit for bit, and a strict gain
        # can never take it; the search skips that angle
        grid = restrict_to_grid((-1, 1), 17)
        ev = _Evaluator(grid.points, get_function("abs").values_at(grid.points), kind)
        starts = [_ascended_start(17, dim, 1, r) for r in range(4)]
        lanes, q = ev.lanes(starts), np.stack([c[2] for c in starts])
        best = ev.ratios(lanes, _frames(lanes, q[:, None]))[:, 0]
        coarse = np.linspace(-math.pi / 2, math.pi / 2, 9)[:-1]
        assert coarse[4] == 0.0
        for i, j in search._sweep_pairs(dim):
            trials = q[:, None] @ search._givens(dim, i, j, coarse)
            vals = ev.ratios(lanes, _frames(lanes, trials))
            assert vals[:, 4].tobytes() == best.tobytes()
            vals[lanes.spec[0, :, i] == lanes.spec[0, :, j]] = -np.inf
            k = np.argmax(vals, axis=1)
            better = vals[np.arange(4), k] > best
            q[better], best[better] = trials[better, k[better]], vals[better, k[better]]

    def test_degenerate_denominator_scores_minus_inf(self):
        grid = FiniteSpectrumSet([-1.0, 1.0])
        ev = _CountingEvaluator(grid.points, grid.points.copy(), "schatten1")
        ia, ib = np.array([0, 1]), np.array([1, 0])
        lanes = ev.lanes([(ia, ib, None)])
        q = np.eye(2)
        swap = q @ search._givens(2, 0, 1, np.array([-math.pi / 2]))
        assert ev.ratios(lanes, _frames(lanes, swap[None]))[0, 0] == -math.inf
        assert _oracle_rotated(ev, ia, ib, q, 0, 1, -math.pi / 2) == -math.inf

    @pytest.mark.parametrize("dim", range(2, 12))
    @pytest.mark.parametrize("kind", ["operator", "schatten1"])
    def test_constant_b_lanes_keep_q0(self, dim, kind):
        # with b constant every rotation leaves B = b I, so a swept pair is a
        # no-op whose rounded frame must not pass for a gain, and the
        # gradient is zero: each lane ends at Q0 with its start score
        rng = np.random.default_rng(dim)
        grid = restrict_to_grid((-1, 1), 9)
        ev = _Evaluator(grid.points, np.abs(grid.points), kind)
        starts = [(rng.integers(0, 9, size=dim), np.full(dim, c)) for c in (0, 2, 4, 8)]
        lanes = ev.lanes(starts)
        q0 = np.stack([random_orthogonal(rng, dim) for _ in starts])
        start = ev.ratios(lanes, _frames(lanes, q0[:, None]))[:, 0]
        values, qs = _ascent(ev, lanes, q0.copy())
        assert qs.tobytes() == q0.tobytes()
        assert np.array(values).tobytes() == start.tobytes()

    def test_constant_function_scores_exact_zero(self):
        f = get_function("constant", (1.0,))
        for dim in (1, 3):
            res = seminorm_lower_bound(f, _grid9(), dim, "schatten1", 3, 5)
            value, used, b_matrix, _ = _oracle_search(f, _grid9(), dim, "schatten1", 3, 5)
            assert res.value == value == 0.0
            assert res.budget_used == used
            assert res.witness.b.matrix.tobytes() == b_matrix.tobytes()

    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_identity_exactly_one(self, dim):
        for kind in ("operator", "schatten1"):
            res = seminorm_lower_bound(get_function("identity"),
                                       restrict_to_grid((-1, 1), 17), dim, kind, 2, 3)
            assert res.value == 1.0


class TestPolishGradient:
    """The polish steps along the gradient of the scored ratio, and along
    no direction where a lane has none."""

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**31),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_gradient_matches_finite_differences(self, dim, seed, kind):
        rng = np.random.default_rng(seed)
        ev = _Evaluator(rng.uniform(-1, 1, 2 * dim), rng.uniform(-1, 1, 2 * dim), kind)
        lanes = ev.lanes([(np.arange(dim), np.arange(dim, 2 * dim))])
        q = random_orthogonal(rng, dim)
        frames = _frames(lanes, q[None])
        # both norms are smooth where the eigenvalues' moduli are clear of 0
        # and of each other
        moduli = np.sort(np.abs(np.linalg.eigvalsh(frames[:, 0])), axis=-1)
        assume(moduli[:, 0].min() > 0.05 and np.diff(moduli, axis=-1).min() > 0.05)
        value = ev.ratios(lanes, frames[:, :, None])[:, 0]
        g = _gradient(lanes, frames, value, kind)[0]
        k = rng.standard_normal((dim, dim))
        k = (k - k.T) / np.linalg.norm(k - k.T)

        def score(t):
            half = t * k / 2
            turn = np.linalg.solve(np.eye(dim) - half, np.eye(dim) + half)
            return ev.ratios(lanes, _frames(lanes, (q @ turn)[None])[:, :, None])[0, 0]

        t = 1e-5
        slope = (score(t) - score(-t)) / (2 * t)
        upper = np.triu_indices(dim, 1)
        # g is the gradient of log(ratio) in the generators K_ij, i < j; a
        # definite frame has a rotation-invariant Schatten-1 norm, so the
        # slope is relative to the ratio where g vanishes
        assert abs(slope - value[0] * (g[upper] @ k[upper])) <= (
            1e-6 * value[0] * max(1.0, np.linalg.norm(g)))

    def test_lanes_without_a_gradient_stay(self):
        # per kind and dim: a lane whose B equals its A (-inf), one whose f
        # is constant (0.0) and one that scores a positive ratio
        grid = restrict_to_grid((-1, 1), 5).points
        for kind, dim in itertools.product(("operator", "schatten1"), (1, 3)):
            # points 5-9 repeat the grid with f = 1 there
            ev = _Evaluator(np.concatenate([grid, grid]),
                            np.concatenate([np.abs(grid), np.ones(5)]), kind)
            ia, ib = np.arange(dim), np.arange(dim) + 1
            lanes = ev.lanes([(ia, ia), (ia + 5, ib + 5), (ia, ib)])
            q = np.stack([random_orthogonal(np.random.default_rng(r), dim) for r in range(3)])
            q[0] = np.eye(dim)
            frames = _frames(lanes, q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = ev.ratios(lanes, frames[:, :, None])[:, 0]
                g = _gradient(lanes, frames, value, kind)
                turns = _cayley(g, np.broadcast_to(_STEPS, (3, _STEPS.size)))
            assert value[0] == -math.inf and value[1] == 0.0 and value[2] > 0
            assert not g[:2].any() and g[2].any() == (dim > 1)
            assert (turns[:2] == np.eye(dim)).all()


def _wiggle(x):
    return abs(x) - 0.3 * x * x + 0.1 * math.sin(3.0 * x)


class TestScaleInvariance:
    """What counts as zero is judged relative to the quantity judged, so
    scaling the grid, or f, by a power of two scales every norm and every
    floor exactly and leaves every decision of the search unchanged.  LAPACK's
    symmetric eigenvalue solver rescales a matrix whose largest entry is
    below about 2^-405 or above about 2^485, which can move a norm by an ulp;
    the property stops at |k| = 400."""

    @settings(max_examples=60, deadline=None)
    @given(fid=st.sampled_from(["abs", "identity"]),
           interval=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0)]),
           count=st.integers(5, 9), k=st.integers(-400, 400), dim=st.integers(1, 5),
           budget=st.integers(1, 4), seed=st.integers(0, 2**31),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_scaled_grid_scores_the_same(self, fid, interval, count, k, dim, budget,
                                         seed, kind):
        f = get_function(fid)
        grid = restrict_to_grid(interval, count)
        scaled = FiniteSpectrumSet(grid.points * 2.0 ** k)
        res = seminorm_lower_bound(f, grid, dim, kind, budget, seed)
        res_scaled = seminorm_lower_bound(f, scaled, dim, kind, budget, seed)
        assert res_scaled.value.hex() == res.value.hex()

    @settings(max_examples=60, deadline=None)
    @given(j=st.integers(-400, 400), count=st.integers(5, 9), dim=st.integers(1, 5),
           budget=st.integers(1, 4), seed=st.integers(0, 2**31),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_scaled_function_scores_scaled(self, j, count, dim, budget, seed, kind):
        f = ScalarFunction("wiggle", (), pointwise(_wiggle))
        f_scaled = ScalarFunction("wiggle-scaled", (),
                                  pointwise(lambda x: 2.0 ** j * _wiggle(x)))
        grid = restrict_to_grid((-1.0, 1.0), count)
        res = seminorm_lower_bound(f, grid, dim, kind, budget, seed)
        res_scaled = seminorm_lower_bound(f_scaled, grid, dim, kind, budget, seed)
        assert res_scaled.value.hex() == (2.0 ** j * res.value).hex()

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kind", ["operator", "schatten1"])
    def test_identity_on_a_tiny_grid_is_exactly_one(self, dim, kind):
        grid = FiniteSpectrumSet(np.linspace(-1.0, 1.0, 9) * 2.0 ** -60)
        res = seminorm_lower_bound(get_function("identity"), grid, dim, kind, 4, 1)
        assert res.value == 1.0

    @pytest.mark.parametrize("dim", [2, 8])
    def test_large_constant_is_exactly_zero(self, dim):
        res = seminorm_lower_bound(get_function("constant", (1e6,)),
                                   restrict_to_grid((-1, 1), 17), dim, "operator", 4, 1)
        assert res.value == 0.0

    def test_increment_ratio_of_a_tiny_pair(self, rng):
        f = get_function("abs")
        for _ in range(5):
            a, b = rng.uniform(-1, 1, (2, 4, 4))
            w = increment_ratio(f, HermitianOperator(a), HermitianOperator(b))
            tiny = increment_ratio(f, HermitianOperator(a * 2.0 ** -60),
                                   HermitianOperator(b * 2.0 ** -60))
            assert (tiny.ratio_s1, tiny.ratio_op) == (w.ratio_s1, w.ratio_op)

    def test_xsin_inv_search_keeps_its_probe_at_delta0_1e_300(self):
        # the numerator is judged against the f-values near 1e-300, not 1
        f = get_function("xsin_inv")
        grid = _block_grid(1e-300 / 2, 1)
        probe, _ = _scalar_probe(_Evaluator(grid.points, f.values_at(grid.points),
                                            "schatten1"), 4)
        res = seminorm_lower_bound(f, grid, 4, "schatten1", 2, _block_seed(0, 1))
        assert probe > 1e15
        assert res.value >= probe


_PARAMS = {"constant": (1.0,), "poly": (0.5, -1.0, 2.0), "smoothed_abs": (0.05,)}


class TestNoDiagonalPairBeatsTheProbe:
    """Why the search scores no diagonal pair besides the probe: for
    diag(a), diag(b) both sum|df_i| / sum|dx_i| (Schatten-1) and
    max|df_i| / max|dx_i| (operator) are at most max_i |df_i| / |dx_i|,
    the largest scalar quotient.  Checked in exact rational arithmetic on
    the stored floats, with room for the probe's own roundings."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), fid=st.sampled_from(catalog_ids()),
           raw=st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                        min_size=2, max_size=9),
           dim=st.integers(1, 5))
    def test_diagonal_ratios_at_most_probe(self, data, fid, raw, dim):
        pts = np.unique(raw)
        assume(pts.size >= 2)
        f = get_function(fid, _PARAMS.get(fid, ()))
        ev = _Evaluator(pts, np.array([f(x) for x in pts]), "schatten1")
        probe, _ = _scalar_probe(ev, dim)
        indices = st.lists(st.integers(0, pts.size - 1), min_size=dim, max_size=dim)
        ia, ib = data.draw(indices), data.draw(indices)
        assume(ia != ib)
        dx = [abs(Fraction(pts[j]) - Fraction(pts[i])) for i, j in zip(ia, ib)]
        df = [abs(Fraction(ev.fvals[j]) - Fraction(ev.fvals[i])) for i, j in zip(ia, ib)]
        cap = Fraction(probe) * (1 + Fraction(4, 2**52))
        assert sum(df) / sum(dx) <= cap
        assert max(df) / max(dx) <= cap


def _rotated_frames(lanes, qs):
    """The (2, L, k, n, n) frames of the (L, k, n, n) rotations ``qs``."""
    return np.stack([_frames(lanes, qs[:, t]) for t in range(qs.shape[1])], axis=2)


def _unfloored(ev, lanes, qs):
    """The ratios ``ev.ratios`` scores, without its degeneracy floor."""
    s1, op = _norms(_rotated_frames(lanes, qs))
    den, num = s1 if ev.kind == "schatten1" else op
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(den > 0, num / den, -np.inf)


class TestLaneBoundIsSound:
    """The a-priori bound that screens a restart lane out of the ascent is
    at least every ratio the lane can score: its ascent's value and its
    score at any rotation, rounding included, with or without the
    degeneracy floor, on grids scaled down into the subnormal range."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), fid=st.sampled_from(catalog_ids()),
           grid=st.one_of(
               st.builds(restrict_to_grid, st.sampled_from(
                   [(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0), (-3.0, 0.25)]), st.integers(2, 17)),
               st.builds(lambda level: _block_grid(2.0 ** -level, level), st.integers(1, 6))),
           scale=st.sampled_from([0, 1, 27, 60, 500, 1000, 1030, 1060]),
           dim=st.integers(1, 6), seed=st.integers(0, 2**31),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_scores_never_exceed_bound(self, data, fid, grid, scale, dim, seed, kind):
        f = get_function(fid, _PARAMS.get(fid, ()))
        # scaling by 2**-scale is exact until points turn subnormal and merge
        grid = FiniteSpectrumSet(np.unique(grid.points * 2.0 ** -scale))
        try:
            fvals = f.values_at(grid.points)
        except DomainError:  # xsin_inv: 1/x overflows below 2**-1024
            assume(False)
        ev = _Evaluator(grid.points, fvals, kind)
        _, (ia, ib, _) = _scalar_probe(ev, dim)
        restarts = [_ascended_start(grid.points.size, dim, seed, r) for r in range(2)]
        # the probe pair, two restarts and a restart whose b permutes its a
        ia_perm, _, q_perm = restarts[0]
        ib_perm = np.array(data.draw(st.permutations(ia_perm.tolist())))
        starts = [(ia, ib, np.eye(dim))] + restarts + [(ia_perm, ib_perm, q_perm)]
        lanes = ev.lanes(starts)
        bound = _lane_bounds(lanes, kind)
        values, _ = _ascent(ev, lanes, np.stack([c[2] for c in starts]))
        assert (np.array(values) <= bound).all()
        rng = np.random.default_rng(seed)
        qs = np.array([[random_orthogonal(rng, dim) for _ in range(4)] for _ in starts])
        assert (ev.ratios(lanes, _rotated_frames(lanes, qs)) <= bound[:, None]).all()
        assert (_unfloored(ev, lanes, qs) <= bound[:, None]).all()

    @pytest.mark.parametrize("scale", [1030, 1040, 1050])
    @pytest.mark.parametrize("kind", ["operator", "schatten1"])
    def test_subnormal_grid_scores_never_exceed_bound(self, scale, kind):
        # sqrt lifts a subnormal grid's values into the normal range: the
        # ratios are huge, and their denominators keep only a few bits,
        # which a slack relative to the entries alone does not cover
        f = get_function("sqrt_abs")
        pts = np.unique(restrict_to_grid((-1.0, 1.0), 17).points * 2.0 ** -scale)
        ev = _Evaluator(pts, f.values_at(pts), kind)
        for dim in (2, 3, 4):
            _, (ia, ib, _) = _scalar_probe(ev, dim)
            starts = [(ia, ib)] + [_restart_start(pts.size, dim, 7, r)[:2] for r in range(3)]
            lanes = ev.lanes(starts)
            rng = np.random.default_rng(dim)
            qs = np.array([[random_orthogonal(rng, dim) for _ in range(8)] for _ in starts])
            assert (_unfloored(ev, lanes, qs) <= _lane_bounds(lanes, kind)[:, None]).all()

    @settings(max_examples=100, deadline=None)
    @given(fid=st.sampled_from(catalog_ids()),
           interval=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-0.5, 2.0), (-3.0, 0.25)]),
           count=st.integers(2, 17), dim=st.integers(1, 6),
           kind=st.sampled_from(["operator", "schatten1"]))
    def test_bound_is_attained_by_the_polish_start(self, fid, interval, count, dim, kind):
        # Q diag(b) Q^T - diag(a) = (x_j - x_i) q0 q0^T is rank one for the
        # probe pair, where a polish of the probe would start, so its ratio
        # is the probe for every Q: the bound, up to its slack, can be no
        # lower, and the median and the sorted matching make it no higher
        f = get_function(fid, _PARAMS.get(fid, ()))
        grid = restrict_to_grid(interval, count)
        ev = _Evaluator(grid.points, np.array([f(x) for x in grid.points]), kind)
        probe, (ia, ib, _) = _scalar_probe(ev, dim)
        bound = _lane_bounds(ev.lanes([(ia, ib)]), kind)[0]
        assert probe <= bound <= probe + 1e-6 * max(1.0, probe)


class TestScreenedLanes:
    """Which lanes the screen sends into the ascent, counted per ascent call."""

    @staticmethod
    def _lane_counts(monkeypatch, ascend=True):
        counts = []

        def spy(ev, lanes, q):
            counts.append(len(q))
            return _ascent(ev, lanes, q) if ascend else ([-math.inf] * len(q), q)

        monkeypatch.setattr(search, "_ascent", spy)
        return counts

    def test_divergence_makes_no_ascent(self, monkeypatch):
        # every restart of the 10 block searches is ruled out
        counts = self._lane_counts(monkeypatch)
        family = build_divergent_family(get_function("sqrt_abs"), 10, 4, 1, dim=8)
        assert family.failure is None
        assert counts == []

    def test_small_windows_make_no_ascent(self, monkeypatch):
        # blocks 27-30 search windows 2**-28 wide and less; the screen's
        # slack scales with their entries, so it still rules out every
        # restart there
        counts = self._lane_counts(monkeypatch)
        family = build_divergent_family(get_function("sqrt_abs"), 30, 4, 1, dim=4)
        assert family.failure is None
        assert counts == []

    def test_screened_restarts_draw_no_rotation(self, monkeypatch):
        # every restart of the divergence family is ruled out (above), so
        # no block search factors a random matrix
        calls = count_calls(monkeypatch, np.linalg, "qr")
        family = build_divergent_family(get_function("sqrt_abs"), 10, 4, 1, dim=8)
        assert family.failure is None
        assert calls == []

    def test_each_ascended_restart_draws_one_rotation(self, monkeypatch):
        f, grid, dim, budget = get_function("abs"), restrict_to_grid((-1, 1), 17), 4, 6
        ev = _Evaluator(grid.points, f.values_at(grid.points), "schatten1")
        probe, _ = _scalar_probe(ev, dim)
        lanes = ev.lanes([_restart_start(grid.points.size, dim, 1, r) for r in range(budget)])
        kept = int((_lane_bounds(lanes, "schatten1") >= probe).sum())
        assert 0 < kept < budget
        calls = count_calls(monkeypatch, np.linalg, "qr")
        seminorm_lower_bound(f, grid, dim, "schatten1", budget, 1)
        assert len(calls) == kept

    @pytest.mark.parametrize("dim", [8, 16])
    @pytest.mark.parametrize("kind", ["operator", "schatten1"])
    def test_abs_keeps_every_restart(self, monkeypatch, dim, kind):
        # the screen is decided before the ascent, which is not run here
        counts = self._lane_counts(monkeypatch, ascend=False)
        seminorm_lower_bound(get_function("abs"), restrict_to_grid((-1, 1), 17),
                             dim, kind, 4, 1)
        assert counts == [4]


@pytest.mark.xfail(strict=True, reason="a dim-n search is not seeded with the dim-(n-1) "
                   "winner (ROADMAP item 7, dimension monotonicity): abs reads "
                   "1.0455201188343886 at dim 4 and 1.0041160324925107 at dim 8")
def test_ratio_search_nondecreasing_in_dim():
    # the ratio_search benchmark's search: abs on 17 points of [-1, 1], budget 4, seed 1
    f, grid = get_function("abs"), restrict_to_grid((-1.0, 1.0), 17)
    values = [seminorm_lower_bound(f, grid, dim, "schatten1", 4, 1).value for dim in (4, 8)]
    assert values[1] >= values[0]
