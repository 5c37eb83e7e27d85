"""Tests for divided differences, Loewner matrices and the perturbation identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import (BadInterval, DomainError, FiniteSpectrumSet, HermitianOperator,
                       InvariantViolation, ScalarFunction, apply_function, catalog_ids,
                       divided_difference, get_function, loewner_matrix, operator_scale,
                       perturbation_identity_residual, restrict_to_grid)
from specshift.catalog import pointwise

from conftest import count_calls, random_hermitian


def _residual(f, a, b) -> float:
    """``perturbation_identity_residual`` of one pair, as a stack of one."""
    return float(perturbation_identity_residual(f, a.matrix[None], b.matrix[None])[0])


class TestDividedDifference:
    def test_square_generic(self):
        f = get_function("poly", (0, 0, 1))
        assert divided_difference(f, 2.0, 3.0) == pytest.approx(5.0, rel=1e-15)

    def test_square_tie_uses_derivative(self):
        f = get_function("poly", (0, 0, 1))
        assert divided_difference(f, 2.0, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_abs_antipodal(self):
        assert divided_difference(get_function("abs"), 1.0, -1.0) == 0.0

    def test_ties_are_relative_below_scale_one(self):
        # points 2e-10 apart across the kink are no tie: abs is even, so the
        # quotient is exactly 0
        assert divided_difference(get_function("abs"), -1e-10, 1e-10) == 0.0
        # (1 - 2) / (1 - 4) * 1e6 = 1e6 / 3
        assert divided_difference(get_function("sqrt_abs"), 1e-12, 4e-12) == \
            pytest.approx(1e6 / 3, rel=1e-12)

    def test_abs_tie_at_kink_falls_back(self):
        # no derivative at 0: the symmetric central difference of abs is 0
        assert divided_difference(get_function("abs"), 0.0, 0.0) == 0.0


def _loewner(f, lam, mu):
    """The Loewner matrix of f on the grids, from its values there."""
    return loewner_matrix(f, lam, mu, (f.values_at(lam), f.values_at(mu)))


class TestLoewnerMatrix:
    def test_square_grid_formula(self):
        # for x**2 the divided difference is x + y, tie entries included
        f = get_function("poly", (0, 0, 1))
        lm = _loewner(f, [1.0, 2.0], [0.0, 1.0])
        np.testing.assert_allclose(lm.entries, [[1.0, 2.0], [2.0, 3.0]], atol=1e-12)

    def test_identity_all_ones(self, rng):
        lm = _loewner(get_function("identity"),
                      rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3))
        np.testing.assert_allclose(lm.entries, np.ones((4, 3)))

    def test_abs_single_entry(self):
        lm = _loewner(get_function("abs"), [1.0], [-1.0])
        assert lm.entries[0, 0] == 0.0


_PARAMS = {"constant": (0.5,), "poly": (0.5, -1.0, 2.0, 0.0, 1.5), "smoothed_abs": (0.05,)}
#: x -> x**3 with no declared derivative: every tie takes the central difference
_CUBE = ScalarFunction("cube", (), pointwise(lambda x: x * x * x))
_POINTS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 0.3, -0.7, 1.5, 1e-10, -2e-10])


class TestVectorisedLoewnerMatrix:
    """The matrix agrees bit for bit with ``divided_difference`` entry by
    entry, ties and near-ties included."""

    @settings(max_examples=200, deadline=None)
    @given(fid=st.sampled_from(catalog_ids() + ("cube",)),
           lam=st.lists(_POINTS, min_size=1, max_size=6),
           mu=st.lists(_POINTS, min_size=1, max_size=6),
           nudge=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
           scale=st.sampled_from([1.0, 2.0 ** -60]))
    def test_entries_are_divided_differences(self, fid, lam, mu, nudge, scale):
        f = _CUBE if fid == "cube" else get_function(fid, _PARAMS.get(fid, ()))
        lam = np.array(lam) * scale
        # exact ties where mu repeats a point of lam, near-ties a few ulps off
        mu = np.array([y * scale + k * math.ulp(y * scale) for y, k in zip(mu, nudge)])
        try:
            want = [[divided_difference(f, x, y) for y in mu] for x in lam]
        except DomainError:  # xsin_inv at 5e-324: 1/x overflows
            with pytest.raises(DomainError):
                _loewner(f, lam, mu)
            return
        lm = _loewner(f, lam, mu)
        assert [[v.hex() for v in row] for row in lm.entries.tolist()] == \
            [[v.hex() for v in row] for row in want]

    def test_function_without_derivative_takes_central_difference(self):
        # the tie (2, 2) of x**3 takes the central difference, about 3 * 2**2
        lm = _loewner(_CUBE, [1.0, 2.0], [2.0, 3.0])
        assert lm.entries[1, 0] == pytest.approx(12.0, rel=1e-6)


class TestRestrictToGrid:
    def test_two_points(self):
        np.testing.assert_array_equal(restrict_to_grid((0, 1), 2).points, [0.0, 1.0])

    def test_three_points(self):
        np.testing.assert_array_equal(restrict_to_grid((-1, 1), 3).points,
                                      [-1.0, 0.0, 1.0])

    def test_five_points(self):
        np.testing.assert_array_equal(restrict_to_grid((0, 1), 5).points,
                                      [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            restrict_to_grid((1, 0), 5)
        with pytest.raises(BadInterval):
            restrict_to_grid((0, 1), 1)
        with pytest.raises(BadInterval):  # [1, 1 + 2 ulp] holds three floats
            restrict_to_grid((1, 1.0000000000000004), 5)

    @pytest.mark.parametrize("interval, doubles", [((1, 1.0000000000001), 451),
                                                   ((-5e-324, 5e-324), 3)])
    def test_count_up_to_the_doubles_in_the_interval(self, interval, doubles):
        # n = the number of doubles in [a, b] takes every one of them
        pts = restrict_to_grid(interval, doubles).points
        assert pts[0] == interval[0] and pts[-1] == interval[1]
        assert np.all(np.diff(pts) > 0)
        with pytest.raises(BadInterval, match=f"holds no {doubles + 1} distinct"):
            restrict_to_grid(interval, doubles + 1)


class TestFiniteSpectrumSet:
    def test_rejects_unsorted(self):
        with pytest.raises(InvariantViolation):
            FiniteSpectrumSet([1.0, 0.0])

    def test_rejects_duplicates(self):
        with pytest.raises(InvariantViolation):
            FiniteSpectrumSet([0.0, 0.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(InvariantViolation):
            FiniteSpectrumSet([])

    def test_rejects_width_overflow(self):
        # the only pair's gap overflows, so no quotient over it is finite
        with pytest.raises(InvariantViolation):
            FiniteSpectrumSet([-1e308, 1e308])


def _taylor_sin(m: np.ndarray, terms: int = 40) -> np.ndarray:
    """High-accuracy matrix sine by Taylor series; independent oracle for
    the eigenvalue-based functional calculus."""
    out = np.zeros_like(m)
    power = m.copy()
    m2 = m @ m
    for k in range(terms):
        out = out + power / math.factorial(2 * k + 1) * (-1) ** k
        power = power @ m2
    return out


class TestPerturbationIdentity:
    def test_evaluates_f_once_per_spectrum(self, rng, monkeypatch):
        f = get_function("sin")
        a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
        calls = count_calls(monkeypatch, ScalarFunction, "values_at")
        _residual(f, a, b)
        # both spectra, stacked, in one call
        assert len(calls) == 1

    def test_identity_function(self, rng):
        f = get_function("identity")
        for _ in range(5):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            assert _residual(f, a, b) <= 1e-10 * operator_scale(a, b)

    def test_square_function(self, rng):
        f = get_function("poly", (0, 0, 1))
        for _ in range(5):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            assert (_residual(f, a, b)
                    <= 1e-9 * operator_scale(a, b) ** 2)

    def test_sin_against_series_oracle(self, rng):
        f = get_function("sin")
        for _ in range(5):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            # oracle first: eigenvalue calculus matches the Taylor series
            for op in (a, b):
                series = _taylor_sin(op.matrix)
                assert np.abs(apply_function(f, op) - series).max() <= 1e-12
            assert _residual(f, a, b) <= 1e-8

    @pytest.mark.parametrize("k", [0, 30, 60])
    def test_abs_residual_is_scale_covariant(self, k):
        # abs is positively homogeneous, so the identity holds at every scale
        # with a residual proportional to it
        rng = np.random.default_rng(20261018)
        f, s = get_function("abs"), 2.0 ** -k
        for _ in range(5):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            scaled = _residual(
                f, HermitianOperator(s * a.matrix), HermitianOperator(s * b.matrix))
            assert scaled / s <= 1e-12

    def test_catalog_smooth_functions(self, rng):
        fns = [get_function("poly", (1.0, -2.0, 0.0, 3.0, 0.5)),
               get_function("sin"), get_function("exp")]
        for f in fns:
            for _ in range(8):
                dim = int(rng.integers(2, 9))
                a = random_hermitian(rng, dim)
                b = random_hermitian(rng, dim)
                resid = _residual(f, a, b)
                assert resid <= 1e-8 * operator_scale(a, b)
