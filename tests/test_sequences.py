"""Tests for the scalar sequence machinery."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import (BadArgument, ConfigError, InvariantViolation, NotFound,
                       SequenceWitness,
                       divergence_check, get_function, make_sequence_witness,
                       partial_sums, scalar_ratio_witnesses)
from specshift import sequences
from specshift.sequences import _best_level_pair

from conftest import (assert_near_exact, assert_same_blocks, exact_quotient_maxima,
                      one_by_one_blocks)


def _canonical_sqrt_witness(levels):
    """The closed-form witness t_k = 5**-k, s_k = 0: quotient 5**(k/2) > 2**k
    and |t_k - s_k| = 5**-k < 2**-k at every level; its multiplicities are
    filled as it is built."""
    f = get_function("sqrt_abs")
    t = [5.0 ** -k for k in range(1, levels + 1)]
    return f, make_sequence_witness(f, t, [0.0] * levels)


class TestMakeSequenceWitness:
    def test_canonical_witness_validates(self):
        _, w = _canonical_sqrt_witness(30)
        assert w.length == 30

    def test_rejects_equal_points(self):
        f = get_function("sqrt_abs")
        with pytest.raises(InvariantViolation):
            make_sequence_witness(f, [0.0], [0.0])

    def test_rejects_wide_gap(self):
        f = get_function("sqrt_abs")
        with pytest.raises(InvariantViolation, match="level 1"):
            make_sequence_witness(f, [0.6], [0.0])

    def test_rejects_small_quotient(self):
        f = get_function("identity")
        with pytest.raises(InvariantViolation, match="quotient"):
            make_sequence_witness(f, [0.25], [0.0])

    def test_rejects_length_mismatch(self):
        f = get_function("sqrt_abs")
        with pytest.raises(InvariantViolation):
            make_sequence_witness(f, [0.2, 0.1], [0.0])


class TestScalarRatioWitnesses:
    def test_sqrt_abs_found_at_every_level(self):
        w = scalar_ratio_witnesses(get_function("sqrt_abs"), 20, 801, seed=7)
        assert isinstance(w, SequenceWitness)
        assert w.length == 20
        for k in range(1, 21):
            tk, sk = w.t[k - 1], w.s[k - 1]
            gap = abs(tk - sk)
            assert 0.0 < gap < 2.0 ** -k
            f = get_function("sqrt_abs")
            assert abs(f(tk) - f(sk)) / gap > 2.0 ** k

    def test_identity_not_found_at_level_one(self):
        out = scalar_ratio_witnesses(get_function("identity"), 5, 501, seed=7)
        assert isinstance(out, NotFound)
        assert out.level == 1
        assert out.best_quotient == 1.0
        assert out.levels_found == 0

    def test_abs_not_found_at_level_one(self):
        # quotient of abs never exceeds 1 < 2**1
        out = scalar_ratio_witnesses(get_function("abs"), 4, 501, seed=7)
        assert isinstance(out, NotFound)
        assert out.level == 1
        assert out.best_quotient <= 1.0

    def test_xsin_inv_found_at_small_levels_then_lost(self):
        # oracle (frozen): x*sin(1/x) is NOT Lipschitz near 0 -- near
        # x0 = 1/(2*pi) the slope is -2*pi, so a dense grid at level 1 finds
        # quotients far above 2; the sup over each window is infinite, but
        # float64 stops resolving the oscillation at deeper levels: from
        # level 52 on adjacent extrema would lie within about an ulp, the
        # grid has none, and the overall outcome is NotFound.
        f = get_function("xsin_inv")
        x0 = 1.0 / (2.0 * math.pi)
        h = 1e-4
        grid_oracle = abs(f(x0 + h) - f(x0)) / h
        assert grid_oracle > 2.0

        out = scalar_ratio_witnesses(f, 60, 2001, seed=7)
        assert isinstance(out, NotFound)
        assert out.levels_found >= 1
        assert out.level == 52  # frozen for seed 7, grid 2001
        assert out.best_quotient < 2.0 ** 52

    def test_deterministic(self):
        w1 = scalar_ratio_witnesses(get_function("sqrt_abs"), 8, 801, seed=3)
        w2 = scalar_ratio_witnesses(get_function("sqrt_abs"), 8, 801, seed=3)
        assert w1.t == w2.t and w1.s == w2.s

    def test_lipschitz_estimate_implies_not_found(self):
        # every level k with 2**k above the (true) constant fails
        for fid, lip in (("sin", 1.0), ("smoothed_abs", 1.0)):
            f = get_function(fid, (0.2,) if fid == "smoothed_abs" else ())
            out = scalar_ratio_witnesses(f, 3, 301, seed=5)
            assert isinstance(out, NotFound)
            assert 2.0 ** out.level > lip

    def test_first_levels_do_not_depend_on_the_level_count(self):
        # a level's grid is a function of (level, search_grid, seed) only, so
        # the first 40 levels of a 60-level witness are the 40-level witness
        f = get_function("sqrt_abs")
        w40 = scalar_ratio_witnesses(f, 40, 301, seed=1)
        w60 = scalar_ratio_witnesses(f, 60, 301, seed=1)
        assert w60.length == 60
        assert (w60.t[:40], w60.s[:40], w60.n[:40]) == (w40.t, w40.s, w40.n)

    def test_level_grid_size_does_not_depend_on_the_level_count(self, monkeypatch):
        # identity misses at level 1, so each search builds one level grid
        sizes = []
        real = sequences._level_points

        def recorded(*args):
            pts = real(*args)
            sizes.append(pts.size)
            return pts

        monkeypatch.setattr(sequences, "_level_points", recorded)
        for levels in (1, 40, 5000):
            scalar_ratio_witnesses(get_function("identity"), levels, 101, seed=0)
        assert len(sizes) == 3 and len(set(sizes)) == 1

    def test_invalid_arguments(self):
        # a configuration error that is still a ValueError
        assert issubclass(BadArgument, ConfigError) and issubclass(BadArgument, ValueError)
        f = get_function("identity")
        with pytest.raises(BadArgument, match="K must be an integer >= 1, got 0"):
            scalar_ratio_witnesses(f, 0, 101, seed=0)
        with pytest.raises(BadArgument, match="search_grid must be an integer >= 3, got 2"):
            scalar_ratio_witnesses(f, 1, 2, seed=0)
        with pytest.raises(BadArgument, match="seed must be an integer >= 0, got -1"):
            scalar_ratio_witnesses(f, 1, 101, seed=-1)


def _naive_level_pair(f, pts, radius):
    """Oracle: first strict maximum over the adjacent pairs (i, i + 1)."""
    pts = [float(x) for x in pts]
    vals = [f(x) for x in pts]
    best_q, best_pair = -math.inf, None
    for i in range(len(pts) - 1):
        dx = pts[i + 1] - pts[i]
        if dx < radius:
            q = abs(vals[i + 1] - vals[i]) / dx
            if q > best_q:
                best_q, best_pair = q, (pts[i], pts[i + 1])
    return best_q, best_pair


_ORACLE_FUNCTIONS = [("abs", ()), ("identity", ()), ("constant", (1.0,)),
                     ("sqrt_abs", ()), ("xsin_inv", ()), ("signed_square", ())]

# Integer multiples of 1/32 make exact ties (abs, identity, constant); free
# floats exercise the rounding at the band edge.
_point_sets = st.one_of(
    st.lists(st.integers(-64, 64), max_size=100).map(
        lambda xs: np.unique(np.array(xs, dtype=float) / 32.0)),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), max_size=100).map(
        lambda xs: np.unique(np.array(xs, dtype=float))),
)


class TestBestLevelPair:
    @settings(max_examples=300, deadline=None)
    @given(pts=_point_sets,
           fn=st.sampled_from(_ORACLE_FUNCTIONS),
           radius=st.one_of(st.sampled_from([2.0 ** -k for k in range(8)]
                                            + [math.inf]),
                            st.floats(1e-3, 2.5)))
    def test_matches_naive_double_loop(self, pts, fn, radius):
        f = get_function(*fn)
        q, pair = _best_level_pair(f, pts, radius)
        assert (q, pair) == _naive_level_pair(f, pts, radius)
        # no pair beats the adjacent ones in exact arithmetic on the stored
        # floats, and the scan's rounded value is within a few ulps of that
        exact_all, exact_adjacent = exact_quotient_maxima(pts, f.values_at(pts), radius)
        assert exact_all == exact_adjacent
        if pair is None:
            assert exact_all is None
        else:
            assert_near_exact(q, exact_all)

    @pytest.mark.parametrize("fid,params", _ORACLE_FUNCTIONS)
    def test_radius_excluding_every_pair(self, fid, params):
        pts = np.unique(np.random.default_rng(5).uniform(-1.0, 1.0, 90))
        radius = float(np.diff(pts).min())
        assert _best_level_pair(get_function(fid, params), pts, radius) == (
            -math.inf, None)

    def test_tie_keeps_first_pair_in_row_major_order(self):
        # abs on a symmetric grid: every adjacent pair has quotient 1, and
        # the first of them is (-1, -0.975).
        pts = np.linspace(-1.0, 1.0, 81)
        assert _best_level_pair(get_function("abs"), pts, 0.6) == (1.0, (-1.0, -0.975))

    def test_point_at_rounded_down_band_edge_counts(self):
        # 0.45 + 0.25 rounds down, so the point fl(0.45 + 0.25) still lies
        # strictly within the radius of 0.45 and must be scanned.
        p, radius = 0.45, 0.25
        edge = p + radius
        assert Fraction(edge) < Fraction(p) + Fraction(radius)
        pts = np.array([p, edge])
        assert _best_level_pair(get_function("identity"), pts, radius) == (
            1.0, (p, edge))

    @pytest.mark.parametrize("size", [0, 1])
    def test_fewer_than_two_points(self, size):
        assert _best_level_pair(get_function("abs"), np.zeros(size), 1.0) == (
            -math.inf, None)


class TestFrozenWitnesses:
    """Outputs recorded before the level scan was rewritten; the scan must
    reproduce them bit for bit."""

    def test_sqrt_abs_grid_801_seed_1(self):
        w = scalar_ratio_witnesses(get_function("sqrt_abs"), 12, 801, seed=1)
        assert isinstance(w, SequenceWitness)
        assert [(t.hex(), s.hex()) for t, s in zip(w.t, w.s)] == [
            ("0x0.0p+0", f"-0x1.0000000000000p-{64 + k}") for k in range(1, 13)]

    def test_xsin_inv_grid_2001_seed_1(self):
        out = scalar_ratio_witnesses(get_function("xsin_inv"), 60, 2001, seed=1)
        assert isinstance(out, NotFound)
        assert (out.level, out.levels_found) == (52, 51)
        assert out.best_quotient.hex() == "0x1.5a95ce6f1790dp+21"

    def test_sqrt_abs_grid_801_seed_1_multiplicities(self):
        # n_k = floor(1 / |f(t_k) - f(s_k)|) + 1 in exact rationals on the
        # stored doubles, with f(x) = sqrt(|x|) correctly rounded
        w = scalar_ratio_witnesses(get_function("sqrt_abs"), 12, 801, seed=1)
        increments = [Fraction(abs(math.sqrt(abs(t)) - math.sqrt(abs(s))))
                      for t, s in zip(w.t, w.s)]
        assert w.n == tuple(math.floor(1 / d) + 1 for d in increments)


class TestMultiplicitySequence:
    """The multiplicities ``make_sequence_witness`` fills as it builds."""

    @pytest.mark.parametrize("gap,expected", [(0.3, 4), (1.0, 2), (0.5, 3)])
    def test_floor_rule(self, gap, expected):
        # n = floor(1/gap) + 1 on the stored double: f(x) = 8x turns
        # |t - s| = gap/8 into the increment gap exactly, with quotient 8 > 2
        f = get_function("poly", (0.0, 8.0))
        w = make_sequence_witness(f, [gap / 16], [-gap / 16])
        assert w.n == (expected,)

    def test_canonical_values_exact(self):
        _, w = _canonical_sqrt_witness(30)
        for k, n in enumerate(w.n, start=1):
            gap = math.sqrt(5.0 ** -k)
            assert n == int(Fraction(1) / Fraction(gap)) + 1


class TestDivergenceCheck:
    def test_canonical_witness_30_levels(self):
        f, w = _canonical_sqrt_witness(30)
        blocks = divergence_check(w)
        levels = list(zip(w.t, w.s, blocks))
        for k, (_, _, blk) in enumerate(levels, start=1):
            assert blk.weighted_delta_s1 < 2.0 ** (1 - k)
            assert blk.weighted_increment_s1 >= 1.0
        perturbation_sum, increment_sum = partial_sums(blocks)[30]
        assert perturbation_sum < 2.0
        assert increment_sum >= 30.0
        # exact-rational oracle over the stored floats
        rational_pert = sum(
            (Fraction(blk.multiplicity) * Fraction(abs(t - s))
             for t, s, blk in levels), Fraction(0))
        assert rational_pert < 2
        rational_incr = sum(
            (Fraction(blk.multiplicity) * Fraction(abs(f(t) - f(s)))
             for t, s, blk in levels), Fraction(0))
        assert rational_incr >= 30
        assert perturbation_sum == pytest.approx(float(rational_pert), rel=1e-12)

    def test_zero_levels(self):
        _, w = _canonical_sqrt_witness(5)
        perturbation_sum, increment_sum = partial_sums(divergence_check(w))[0]
        assert perturbation_sum == 0.0
        assert increment_sum == 0.0

    def test_hand_built_unit_products(self):
        # t_k = 4**-(k+1) with sqrt_abs: |df| = 2**-(k+1), quotient 2**(k+1),
        # and the hand-chosen n_k = 2**(k+1) (the floor rule gives one more)
        # makes every product exactly 1
        f = get_function("sqrt_abs")
        levels = 10
        t = [4.0 ** -(k + 1) for k in range(1, levels + 1)]
        s = [0.0] * levels
        n = [2 ** (k + 1) for k in range(1, levels + 1)]
        w = dataclasses.replace(make_sequence_witness(f, t, s), n=tuple(n))
        blocks = divergence_check(w)
        for blk in blocks:
            assert blk.weighted_increment_s1 == 1.0
        assert partial_sums(blocks)[levels][1] == float(levels)

    def test_bound_failure_names_level(self):
        # a deliberately oversized multiplicity breaks the per-level bound
        _, w = _canonical_sqrt_witness(3)
        bad = dataclasses.replace(w, n=(10 ** 9, 3, 3))
        with pytest.raises(InvariantViolation, match="level 1"):
            divergence_check(bad)


class TestDiagonalEmbedding:
    """Commuting levels as 1x1 blocks, as ``divergence_check`` builds them."""

    def test_single_level_bookkeeping(self):
        w = SequenceWitness((0.2,), (0.0,), (3,), (0.2,))
        ps, is_ = partial_sums(divergence_check(w))[1]
        assert ps == pytest.approx(0.6, rel=1e-15)
        assert is_ == pytest.approx(0.6, rel=1e-15)

    def test_identity_aggregate_ratio_one(self):
        w = SequenceWitness((0.2, 0.1), (0.0, 0.0), (2, 4), (0.2, 0.1))
        ps, is_ = partial_sums(divergence_check(w))[2]
        assert is_ / ps == pytest.approx(1.0, rel=1e-15)

    def test_bridge_identity_exact(self):
        f, w = _canonical_sqrt_witness(30)
        assert_same_blocks(divergence_check(w), one_by_one_blocks(f, w, 30))
