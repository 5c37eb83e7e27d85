"""Tests for segment refinement, amplification and divergent families."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import blocks, search

from specshift import (BadSchedule, ConfigError, DivergentFamily, DomainError,
                       HermitianOperator, InvariantViolation, PreconditionViolated,
                       RefinementOverflow, ScalarFunction, SumBlock,
                       amplify_to_unit, apply_function, build_divergent_family,
                       decompose, get_function,
                       increment_ratio, partial_sums, segment_refine, singular_values,
                       weighted)

from specshift.catalog import max_quotient, pointwise
from specshift.hermitian import schatten_from_singular
from specshift.serialize import dump_json, family_to_json

from conftest import count_calls, random_hermitian, schatten


def _increment(f, a, b):
    return schatten(apply_function(f, b) - apply_function(f, a), 1)


def _path_point(a, b, k, n):
    """A + (k/n)(B - A), with A and B themselves at k = 0 and k = n."""
    if k == 0:
        return a
    if k == n:
        return b
    return HermitianOperator(a.matrix + (k / n) * (b.matrix - a.matrix))


def _is_dyadic_piece(a, b, a2, b2, n) -> bool:
    """(A', B') is piece k of the segment from A to B cut into n equal parts,
    for the k nearest A' (bit for bit)."""
    diff = b.matrix - a.matrix
    t = np.vdot(diff, a2.matrix - a.matrix).real / np.vdot(diff, diff).real
    k = int(round(t * n))
    return 0 <= k < n and all(np.array_equal(got.matrix, _path_point(a, b, j, n).matrix)
                              for got, j in ((a2, k), (b2, k + 1)))


def _finest_end_increment(f, a, b) -> float:
    """The larger trace-norm increment of the first and the last piece of the
    segment from A to B cut into ``blocks.MAX_SUBDIVISION`` parts; at 1 or
    more no refinement within the cap can succeed."""
    n = blocks.MAX_SUBDIVISION
    return max(_increment(f, _path_point(a, b, k, n), _path_point(a, b, k + 1, n))
               for k in (0, n - 1))


def _refine_by_midpoint(f, a, b):
    """Reference refinement with one ``apply_function`` call per midpoint
    and the images in a list: the pair ``segment_refine`` must return bit
    for bit, and its subdivision n."""
    images = [apply_function(f, a), apply_function(f, b)]
    n = 1
    while n <= blocks.MAX_SUBDIVISION:
        increments = schatten_from_singular(singular_values(np.diff(images, axis=0)), 1)
        if np.all(increments < 1.0):
            k = int(np.argmax(increments))
            return _path_point(a, b, k, n), _path_point(a, b, k + 1, n), n
        n *= 2
        mids = (apply_function(f, _path_point(a, b, k, n)) for k in range(1, n, 2))
        images[1:] = [x for pair in zip(mids, images[1:]) for x in pair]
    raise AssertionError("the reference pair does not refine within the cap")


def _steep_pair(fn, seed, complex_entries):
    """A seeded pair of dim 2 to 6 that f = ``fn`` moves a lot: entries up
    to 1.5 for exp and poly; for sqrt_abs, A near 0 and B near 20 I, so the
    pieces next to A are the steep ones."""
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 5
    if fn == "sqrt_abs":
        near = random_hermitian(rng, dim, 0.5, complex_entries).matrix + 20.0 * np.eye(dim)
        return random_hermitian(rng, dim, 1e-3, complex_entries), HermitianOperator(near)
    return (random_hermitian(rng, dim, 1.5, complex_entries),
            random_hermitian(rng, dim, 1.5, complex_entries))


def _amplify(f, a, b):
    return amplify_to_unit(a, b, _increment(f, a, b))


class TestSegmentRefine:
    def test_scalar_identity_segment(self):
        f = get_function("identity")
        a = HermitianOperator([[0.0]])
        b = HermitianOperator([[3.0]])
        a2, b2 = segment_refine(f, a, b)
        inc = _increment(f, a2, b2)
        assert inc < 1.0
        assert increment_ratio(f, a2, b2).ratio_s1 == pytest.approx(1.0, abs=1e-12)
        # doubling stops at n = 4, largest increment at the first segment
        np.testing.assert_allclose(a2.matrix, [[0.0]])
        np.testing.assert_allclose(b2.matrix, [[0.75]])

    @pytest.mark.parametrize("end,levels", [(0.5, 1), (3.0, 3), (100.0, 8)])
    def test_one_svd_call_per_level(self, monkeypatch, end, levels):
        # n = 1, 2, 4, ... until end / n < 1: each level's n increments come
        # from one stacked call
        calls = count_calls(monkeypatch, np.linalg, "svd")
        a2, b2 = segment_refine(get_function("identity"), HermitianOperator([[0.0]]),
                                HermitianOperator([[end]]))
        assert len(calls) == levels
        assert b2.matrix[0, 0] - a2.matrix[0, 0] == end / 2 ** (levels - 1)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("fn", [("exp", ()), ("sqrt_abs", ()), ("poly", (0, 0, 0, 5))])
    def test_stacked_levels_match_per_midpoint_reference(self, monkeypatch, fn,
                                                         complex_entries):
        # each matrix of a stack gets the bits it gets alone, so one stacked
        # f-evaluation per level refines to the reference's pair bit for bit;
        # f is evaluated at both ends, then once per level (n = 2**levels)
        f = get_function(*fn)
        deep = 0
        for seed in range(10):
            a, b = _steep_pair(fn[0], seed, complex_entries)
            want_a, want_b, n = _refine_by_midpoint(f, a, b)
            calls = count_calls(monkeypatch, blocks, "apply_function")
            pair = segment_refine(f, a, b)
            monkeypatch.undo()
            assert len(calls) == 2 + n.bit_length() - 1
            for got, want in zip(pair, (want_a, want_b)):
                assert got.matrix.dtype == want.matrix.dtype
                assert np.array_equal(got.matrix, want.matrix)
            assert pair.increment == _increment(f, *pair)
            deep += n >= 64
        assert deep >= 3

    def test_small_increment_returned_unchanged(self, rng):
        f = get_function("identity")
        a = HermitianOperator([[0.0]])
        b = HermitianOperator([[0.5]])
        a2, b2 = segment_refine(f, a, b)
        assert a2 is a and b2 is b

    def test_constant_moduli_spectra_unchanged(self):
        # |A| = |B| = I, so the abs increment is 0 and nothing happens
        f = get_function("abs")
        a = HermitianOperator(np.diag([1.0, -1.0]))
        b = HermitianOperator(np.diag([-1.0, 1.0]))
        a2, b2 = segment_refine(f, a, b)
        assert a2 is a and b2 is b

    @settings(max_examples=40, deadline=None)
    @given(fn=st.sampled_from([("abs", ()), ("sin", ()), ("exp", ()),
                               ("smoothed_abs", (0.05,)), ("signed_square", ()),
                               ("poly", (0.5, -1.0, 2.0))]),
           dim=st.integers(1, 6), complex_entries=st.booleans(),
           scale=st.floats(0.25, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_contract_on_seeded_pairs(self, fn, dim, complex_entries, scale, seed):
        f = get_function(*fn)
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, dim, scale, complex_entries)
        b = random_hermitian(rng, dim, scale, complex_entries)
        try:
            a2, b2 = segment_refine(f, a, b)
        except RefinementOverflow:
            # only a genuine overflow: a piece at the cap still moves f by >= 1
            assert _finest_end_increment(f, a, b) >= 1.0
            return
        assert _increment(f, a2, b2) < 1.0
        ratio_in = increment_ratio(f, a, b).ratio_s1
        assert increment_ratio(f, a2, b2).ratio_s1 >= ratio_in * (1 - 1e-9)
        # the ends are A + (k/n)(B - A) and A + ((k+1)/n)(B - A), n = 2**j
        assert any(_is_dyadic_piece(a, b, a2, b2, 2 ** j) for j in range(21))

    def test_overflow_on_jump_function(self, monkeypatch):
        monkeypatch.setattr(blocks, "MAX_SUBDIVISION", 64)
        step = ScalarFunction("step", (), pointwise(lambda x: 0.0 if x < 0.5 else 2.0))
        a = HermitianOperator([[0.0]])
        b = HermitianOperator([[1.0]])
        with pytest.raises(RefinementOverflow, match="up to 64 "):
            segment_refine(step, a, b)

    def test_steep_smooth_function_overflows(self, monkeypatch):
        # exp is smooth, but on this pair (a draw of the property above) the
        # last of 2**20 pieces still moves f by 1.87 and refinement takes
        # minutes; at a cap of 2**12 that piece moves it by 477.5
        monkeypatch.setattr(blocks, "MAX_SUBDIVISION", 2 ** 12)
        f = get_function("exp")
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 6, 4.0, True)
        b = random_hermitian(rng, 6, 4.0, True)
        with pytest.raises(RefinementOverflow, match="up to 4096 "):
            segment_refine(f, a, b)
        assert _finest_end_increment(f, a, b) == pytest.approx(477.51, rel=1e-4)

    def test_hopeless_refinement_raises_early(self, monkeypatch):
        monkeypatch.setattr(blocks, "MAX_SUBDIVISION", 64)
        # total increment 1000: the first halving leaves a piece of ~707, so
        # no n <= 64 can bring every piece below 1
        calls = []
        real = blocks.apply_function

        def counting(f, op):
            calls.append(op)
            return real(f, op)

        monkeypatch.setattr(blocks, "apply_function", counting)
        with pytest.raises(RefinementOverflow):
            segment_refine(get_function("sqrt_abs"), HermitianOperator([[-1e6]]),
                           HermitianOperator([[0.0]]))
        assert len(calls) <= 3


class TestAmplifyToUnit:
    @pytest.mark.parametrize("increment,expected_n,expected_total", [
        (0.3, 3, 0.9), (0.6, 1, 0.6), (0.49, 2, 0.98)])
    def test_multiplicity_arithmetic(self, increment, expected_n, expected_total):
        f = get_function("identity")
        blk = _amplify(f, HermitianOperator([[0.0]]), HermitianOperator([[increment]]))
        assert blk.multiplicity == expected_n
        assert blk.weighted_increment_s1 == pytest.approx(expected_total, rel=1e-15)

    def test_one_svd_of_the_difference_alone(self, monkeypatch):
        # the increment is given; only ||B-A||_1 is computed here
        shapes = []
        real = np.linalg.svd

        def recording(m, **kwargs):
            shapes.append(m.shape)
            return real(m, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        blk = amplify_to_unit(HermitianOperator(np.eye(3)), HermitianOperator(2 * np.eye(3)), 0.3)
        assert shapes == [(3, 3)]
        assert (blk.multiplicity, blk.delta_s1, blk.increment_s1) == (3, 3.0, 0.3)

    def test_rejects_increment_at_least_one(self):
        f = get_function("identity")
        with pytest.raises(PreconditionViolated):
            _amplify(f, HermitianOperator([[0.0]]), HermitianOperator([[1.5]]))

    def test_rejects_zero_increment(self):
        f = get_function("constant", (1.0,))
        with pytest.raises(PreconditionViolated):
            _amplify(f, HermitianOperator([[0.0]]), HermitianOperator([[0.5]]))

    def test_aggregate_always_lands_in_half_one(self, rng):
        f = get_function("identity")
        for _ in range(300):
            inc = float(rng.uniform(1e-6, 1.0 - 1e-9))
            blk = _amplify(f, HermitianOperator([[0.0]]), HermitianOperator([[inc]]))
            total = blk.weighted_increment_s1
            assert 0.5 <= total <= 1.0

    def test_ratio_invariance_under_multiplicity(self, rng):
        f = get_function("smoothed_abs", (0.1,))
        for _ in range(10):
            a = random_hermitian(rng, 3, scale=0.4)
            b = random_hermitian(rng, 3, scale=0.4)
            if not 0.0 < _increment(f, a, b) < 1.0:
                continue
            blk = _amplify(f, a, b)
            block_ratio = blk.increment_s1 / blk.delta_s1
            aggregate_ratio = blk.weighted_increment_s1 / blk.weighted_delta_s1
            assert aggregate_ratio == pytest.approx(block_ratio, abs=1e-12)


class TestWeighted:
    def test_matches_plain_product_for_small_ints(self):
        assert weighted(3, 0.25) == 0.75

    def test_exact_for_huge_multiplicities(self):
        n = 10 ** 40
        x = 2.0 ** -140
        assert weighted(n, x) == float(Fraction(n) * Fraction(x))


class TestBuildDivergentFamily:
    def test_identity_truncates_at_first_block(self):
        fam = build_divergent_family(get_function("identity"), 3, 3, 11)
        assert len(fam.records) == 0
        assert fam.failure is not None
        assert fam.failure.index == 1
        assert fam.failure.status == "failed"
        assert fam.failure.achieved_ratio == pytest.approx(1.0, abs=1e-12)

    def test_square_truncates_at_first_block(self):
        fam = build_divergent_family(get_function("poly", (0, 0, 1)), 3, 3, 11)
        assert fam.failure is not None and fam.failure.index == 1
        # on [-delta/2, delta/2] the ratio is capped by delta = 1/2
        assert fam.failure.achieved_ratio <= 2.0 * 0.5

    def test_window_underflowing_to_one_point_fails_block_1(self):
        # delta_1 = 5e-324, so the grid of [-delta_1/2, delta_1/2] is the one
        # point 0: the search has no pair, and the block fails unrefined
        fam = build_divergent_family(get_function("sqrt_abs"), 1, 1, 0, delta0=1e-323)
        assert fam.records == ()
        assert blocks._block_grid(fam.failure.delta, 1).points.tolist() == [0.0]
        assert (fam.failure.index, fam.failure.achieved_ratio, fam.failure.block,
                fam.failure.status) == (1, 0.0, None, "failed")
        (doc,) = family_to_json(fam)
        assert (doc["multiplicity"], doc["A"], doc["B"]) == ("0", None, None)

    def test_sqrt_abs_all_blocks_succeed(self):
        f = get_function("sqrt_abs")
        count = 6
        fam = build_divergent_family(f, count, 3, 11)
        assert fam.failure is None
        assert len(fam.records) == count
        for rec in fam.records:
            assert rec.achieved_ratio > rec.target_ratio
            agg = rec.block.weighted_increment_s1
            assert 0.5 - 1e-9 <= agg <= 1.0 + 1e-9

    def test_each_block_solves_two_spectra(self, monkeypatch):
        # refinement, amplification and the family's window check read the
        # decompositions kept on the block's A and B
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        fam = build_divergent_family(get_function("sqrt_abs"), 10, 4, 1, dim=8)
        assert fam.failure is None
        assert len(calls) == 2 * len(fam.records) == 20

    def test_each_block_takes_two_svd_calls(self, monkeypatch):
        # no block refines: one call for segment_refine's only level, one for
        # amplify_to_unit's ||B-A||_1
        calls = count_calls(monkeypatch, np.linalg, "svd")
        fam = build_divergent_family(get_function("sqrt_abs"), 10, 4, 1, dim=8)
        assert fam.failure is None
        assert len(calls) == 2 * len(fam.records) == 20

    def test_each_block_forms_its_two_images_once(self, monkeypatch):
        # segment_refine forms f(A) and f(B); the amplification takes the
        # increment it measured from them
        calls = count_calls(monkeypatch, blocks, "apply_function")
        fam = build_divergent_family(get_function("sqrt_abs"), 10, 4, 1, dim=8)
        assert fam.failure is None
        assert len(calls) == 2 * len(fam.records) == 20

    def test_refined_pair_carries_its_increment(self):
        f = get_function("sqrt_abs")
        a, b = HermitianOperator([[0.0]]), HermitianOperator([[100.0]])
        pair = segment_refine(f, a, b)
        assert pair[1] is not b
        assert pair.increment == _increment(f, *pair)

    def test_refined_blocks_take_one_svd_call_per_level(self, monkeypatch):
        # the blocks refine at depths 256, 64 and 16: 9 + 7 + 5 levels, plus
        # one amplification call each
        calls = count_calls(monkeypatch, np.linalg, "svd")
        fam = build_divergent_family(get_function("signed_square"), 3, 4, 0,
                                     dim=2, delta0=256.0)
        assert len(fam.all_records) == 3
        assert len(calls) == 24

    def test_block_spectra_strictly_inside_window(self):
        f = get_function("sqrt_abs")
        fam = build_divergent_family(f, 5, 3, 7)
        for rec in fam.records:
            for op in (rec.block.a, rec.block.b):
                assert np.abs(decompose(op).eigenvalues).max() < rec.delta

    def test_abs_truncates_and_matches_small_dim_oracle(self):
        # oracle: coarse exhaustive scan of 2x2 pairs diag(a) vs R(t) diag(b) R(t)^T
        # with spectra in [-1/4, 1/4]; the trace-norm ratio never gets near 2
        vals = np.linspace(-0.25, 0.25, 7)
        best = 0.0
        thetas = np.linspace(0.0, np.pi / 2, 13)
        for a1 in vals:
            for a2 in vals:
                fa = np.abs([a1, a2])
                for b1 in vals:
                    for b2 in vals:
                        fb = np.abs([b1, b2])
                        for t in thetas:
                            c, s = np.cos(t), np.sin(t)
                            q = np.array([[c, -s], [s, c]])
                            den_m = (q * [b1, b2]) @ q.T - np.diag([a1, a2])
                            den = np.abs(np.linalg.svd(den_m, compute_uv=False)).sum()
                            if den < 1e-12:
                                continue
                            num_m = (q * fb) @ q.T - np.diag(fa)
                            num = np.abs(np.linalg.svd(num_m, compute_uv=False)).sum()
                            best = max(best, num / den)
        assert best < 2.0
        fam = build_divergent_family(get_function("abs"), 5, 3, 11, dim=2)
        assert fam.failure is not None
        assert fam.failure.index == 1
        assert fam.failure.achieved_ratio < fam.failure.target_ratio

    def test_schedule_validation(self):
        f = get_function("identity")
        with pytest.raises(ValueError, match="K must be an integer >= 1, got 0"):
            build_divergent_family(f, 0, 1, 0)
        with pytest.raises(ValueError, match="delta0"):
            build_divergent_family(f, 2, 1, 0, delta0=-0.5)
        # delta0 * 2**-1100 underflows to 0: refused before any search
        with pytest.raises(ValueError, match="n = 1..1100"):
            build_divergent_family(f, 1100, 1, 0)
        assert issubclass(BadSchedule, ConfigError)

    def test_schedule_check_costs_nothing_that_grows_with_k(self):
        # the windows of a million blocks are never formed to be refused
        tracemalloc.start()
        try:
            with pytest.raises(BadSchedule, match="n = 1..1000000$"):
                build_divergent_family(get_function("sqrt_abs"), 10**6, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_family_rejects_bad_records(self):
        f = get_function("sqrt_abs")
        fam = build_divergent_family(f, 2, 2, 3)
        rec = fam.records[0]
        # a record whose spectra escape the window must be rejected
        bad_block = SumBlock(HermitianOperator([[0.0]]),
                             HermitianOperator([[2.0]]), 1, 2.0, math.sqrt(2.0))
        bad = rec.__class__(rec.index, rec.delta, rec.target_ratio,
                            rec.achieved_ratio, bad_block, "ok")
        with pytest.raises(InvariantViolation):
            DivergentFamily((bad,), None)


class TestBatchedBlockSearches:
    """Deterministic cost guard: one search per block and none after the
    block where the family stops, counted without timing."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"ascents": 0, "blocks": 0}
        ascent, bound = search._ascent, blocks.seminorm_lower_bound

        def counted_ascent(*args):
            seen["ascents"] += 1
            return ascent(*args)

        def counted_bound(*args):
            seen["blocks"] += 1
            return bound(*args)

        monkeypatch.setattr(search, "_ascent", counted_ascent)
        monkeypatch.setattr(blocks, "seminorm_lower_bound", counted_bound)
        return seen

    def test_sqrt_abs_seven_blocks_no_ascent(self, counts):
        # every restart is ruled out by the screen
        fam = build_divergent_family(get_function("sqrt_abs"), 7, 1, 0, 2)
        assert fam.failure is None and len(fam.records) == 7
        assert counts == {"ascents": 0, "blocks": 7}

    def test_abs_fails_first_block_one_ascent(self, counts):
        fam = build_divergent_family(get_function("abs"), 7, 1, 0, 4)
        assert fam.failure.index == 1
        assert counts == {"ascents": 1, "blocks": 1}

    @pytest.mark.parametrize("level", range(2, 11))
    def test_probe_that_misses_target_ends_batch(self, counts, level):
        # sqrt(max(|x|, 4**-level)) is flat below 4**-level, which caps its
        # quotients near 0: the family fails at a block that grows with level,
        # whose scalar probe already misses its target, and no block after
        # it is searched
        eps = 4.0 ** -level
        f = ScalarFunction("sqrt_floor", (eps,),
                           pointwise(lambda x: math.sqrt(max(abs(x), eps))))
        fam = build_divergent_family(f, 9, 1, 0, 2)
        assert fam.failure is not None
        m = fam.failure.index
        pts = blocks._block_grid(2.0 ** -m, m).points
        assert not max_quotient(pts, np.array([f(x) for x in pts]))[0] > 2.0 ** m
        assert counts["blocks"] == m

    @pytest.mark.parametrize("m", range(1, 10))
    def test_failure_at_block_m_searches_fewer_than_2m(self, counts, monkeypatch, m):
        # block m fails after its search although its probe beats the target:
        # exactly the m blocks up to it have been searched
        record = blocks._block_record

        def fail_at_m(f, index, delta, bound):
            if index == m:
                return blocks.BlockRecord(index, delta, 2.0 ** index, 0.0, None, "failed")
            return record(f, index, delta, bound)

        monkeypatch.setattr(blocks, "_block_record", fail_at_m)
        fam = build_divergent_family(get_function("sqrt_abs"), 9, 1, 0, 2)
        assert fam.failure.index == m
        assert counts == {"ascents": 0, "blocks": m}


def _sqrt_partial(eps, tiny):
    """sqrt(max(|x|, eps)), undefined on 0 < |x| < tiny."""
    def fn(x):
        if 0 < abs(x) < tiny:
            raise ValueError("outside the domain")
        return math.sqrt(max(abs(x), eps))
    return ScalarFunction("sqrt_partial", (eps, tiny), pointwise(fn))


class TestUndefinedLaterGrid:
    """f may be undefined on the grid of a block after the one where the
    family stops.  f is never evaluated there: its error surfaces only when
    the family reaches that block."""

    # the grid of block n reaches down to 2**-(3n + 9): blocks 1-4 stay
    # inside the domain, blocks 5-7 do not
    TINY = 2.0 ** -22

    def test_family_stopping_before_undefined_grid(self):
        # fails at block 4; the sha256 of its JSON document was recorded
        # from the search of the scalar probe and the screened restarts
        fam = build_divergent_family(_sqrt_partial(4.0 ** -5, self.TINY), 7, 1, 0, 2)
        assert fam.failure.index == 4
        digest = hashlib.sha256(dump_json(family_to_json(fam)).encode()).hexdigest()
        assert digest == "a318344619f0c6e59711c43f9b0945aae92351d91c1a980c06e3b9677c3055eb"

    def test_undefined_grid_inside_a_batch_is_not_searched(self, monkeypatch):
        # sqrt_abs clears every block, so without the failure forced at
        # block 4 the family would go on to the undefined grids 5-7
        record = blocks._block_record

        def fail_at_4(f, index, delta, bound):
            if index == 4:
                return blocks.BlockRecord(index, delta, 16.0, 0.0, None, "failed")
            return record(f, index, delta, bound)

        monkeypatch.setattr(blocks, "_block_record", fail_at_4)
        fam = build_divergent_family(_sqrt_partial(0.0, self.TINY), 7, 1, 0, 2)
        assert fam.failure.index == 4 and len(fam.records) == 3

    def test_reaching_undefined_grid_raises(self):
        with pytest.raises(DomainError):
            build_divergent_family(_sqrt_partial(4.0 ** -9, self.TINY), 7, 1, 0, 2)


def _direct_sum(mats):
    """The block-diagonal matrix with ``mats`` down its diagonal."""
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), np.result_type(*mats))
    at = 0
    for m in mats:
        out[at:at + m.shape[0], at:at + m.shape[0]] = m
        at += m.shape[0]
    return out


class TestDirectSumAdditivity:
    @settings(max_examples=60, deadline=None)
    @given(fid=st.sampled_from(["abs", "exp", "identity", "signed_square", "sin",
                                "sqrt_abs"]),
           dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           multiplicities=st.lists(st.integers(1, 3), min_size=4, max_size=4),
           complex_entries=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_block_norms_add_up(self, fid, dims, multiplicities, complex_entries, seed):
        # f acts block by block and the trace norm of a block-diagonal matrix
        # is the sum over its blocks, so each prefix of partial_sums is the
        # pair of trace norms of the direct sum, block n repeated N_n times
        f = get_function(fid)
        rng = np.random.default_rng(seed)
        pairs = [(random_hermitian(rng, d, 1.0, complex_entries),
                  random_hermitian(rng, d, 1.0, complex_entries)) for d in dims]
        sums = partial_sums([SumBlock(a, b, n, schatten(b.matrix - a.matrix, 1),
                                      _increment(f, a, b))
                             for (a, b), n in zip(pairs, multiplicities)])
        for count in range(1, len(pairs) + 1):
            a, b = (HermitianOperator(_direct_sum(
                        [p[side].matrix for p, n in zip(pairs[:count], multiplicities)
                         for _ in range(n)])) for side in (0, 1))
            perturbation, increment = sums[count]
            assert schatten(b.matrix - a.matrix, 1) == pytest.approx(perturbation, rel=1e-12)
            assert _increment(f, a, b) == pytest.approx(increment, rel=1e-12)


class TestPartialSums:
    def test_empty_prefix(self):
        fam = build_divergent_family(get_function("sqrt_abs"), 2, 2, 3)
        sums = partial_sums(fam.blocks)
        assert sums[0] == (0.0, 0.0) and len(sums) == len(fam.blocks) + 1

    def test_single_block_bookkeeping(self):
        f = get_function("sqrt_abs")
        # increment sqrt(0.81) = 0.9, perturbation 0.81, multiplicity 1
        blk = _amplify(f, HermitianOperator([[0.0]]), HermitianOperator([[0.81]]))
        ps, is_ = partial_sums((blk,))[1]
        assert is_ == pytest.approx(0.9, rel=1e-15)
        assert ps == pytest.approx(0.81, rel=1e-15)

    def test_multiplicity_bookkeeping(self):
        # one block repeated 81 times: t = 0.01/81 gives aggregate
        # perturbation 0.01 and aggregate increment sqrt(t) * 81 = 0.9
        t = 0.01 / 81.0
        blk = SumBlock(HermitianOperator([[0.0]]),
                       HermitianOperator([[t]]), 81, t, math.sqrt(t))
        ps, is_ = partial_sums((blk,))[1]
        assert ps == pytest.approx(0.01, rel=1e-12)
        assert is_ == pytest.approx(0.9, rel=1e-12)

    def test_sqrt_abs_partial_sums_with_rational_majorant(self):
        count = 8
        fam = build_divergent_family(get_function("sqrt_abs"), count, 3, 11)
        ps, is_ = partial_sums(fam.blocks)[count]
        assert is_ >= count / 2
        # every successful block has N * ||B-A||_1 <= 1/ratio < 2**-n, so the
        # perturbation sum is below the geometric series, and in particular
        # below the canonical rational majorant sum(5**(-n/2) + 5**-n) < 1.1
        scale = 10 ** 20
        majorant = Fraction(0)
        for n in range(1, count + 1):
            majorant += (Fraction(scale, math.isqrt(5 ** n * scale ** 2))
                         + Fraction(1, 5 ** n))
        assert majorant < Fraction(11, 10)
        assert ps < 1.0
        assert ps <= float(majorant)

    def test_increment_sum_grows_linearly(self):
        count = 6
        fam = build_divergent_family(get_function("sqrt_abs"), count, 3, 11)
        sums = [incr for _, incr in partial_sums(fam.blocks)]
        for k in range(1, count + 1):
            assert sums[k] - sums[k - 1] >= 0.5 - 1e-9
