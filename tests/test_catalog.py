"""Tests for the scalar function catalog."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshift import (BadParams, DomainError, UnknownFunction, catalog_ids,
                       get_function)
from specshift.blocks import _block_grid
from specshift.catalog import ScalarFunction, max_quotient, pointwise
from specshift.search import _Evaluator, _scalar_probe

from conftest import assert_near_exact, exact_quotient_maxima


def test_identity_entry():
    f = get_function("identity", [])
    assert f(2.0) == 2.0
    assert f.derivative_at(2.0) == 1.0
    assert f.operator_lipschitz_near_zero is True


def test_abs_entry():
    f = get_function("abs", [])
    assert f(-3.0) == 3.0
    assert f.derivative_at(0.0) is None
    assert f.derivative_at(-2.0) == -1.0
    # Lipschitz, yet not operator Lipschitz near 0
    assert f.operator_lipschitz_near_zero is False


def test_smoothed_abs_entry():
    f = get_function("smoothed_abs", [0.1])
    assert f(0.0) == pytest.approx(0.1, rel=1e-15)
    assert f.derivative_at(0.0) == 0.0
    assert f.operator_lipschitz_near_zero is True


def test_sqrt_abs_and_xsin_inv_flags():
    for fid in ("sqrt_abs", "xsin_inv"):
        f = get_function(fid)
        assert f.derivative_at(0.0) is None
        assert f.operator_lipschitz_near_zero is False
    assert get_function("xsin_inv")(0.0) == 0.0
    assert get_function("xsin_inv").derivative_at(0.0) is None


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        get_function("sinh")


@pytest.mark.parametrize("fid,params", [
    ("identity", [1.0]),
    ("constant", []),
    ("constant", [1.0, 2.0]),
    ("poly", []),
    ("smoothed_abs", []),
    ("smoothed_abs", [-0.1]),
    ("smoothed_abs", [0.1, 0.2]),
    ("poly", ["x"]),
    ("poly", [10**400]),
    ("constant", ["0.5"]),
    ("smoothed_abs", ["0.05"]),
    ("poly", [1.0, "2"]),
    ("constant", [np.bool_(True)]),
])
def test_bad_params(fid, params):
    with pytest.raises(BadParams):
        get_function(fid, params)


def test_numpy_real_params_are_read_as_floats():
    f = get_function("poly", [np.float64(0.5), np.int64(2)])
    assert f.params == (0.5, 2.0)
    assert all(type(p) is float for p in f.params)


def test_poly_matches_horner_exactly(rng):
    coeffs = (1.0, -2.0, 0.0, 3.0)
    f = get_function("poly", coeffs)
    for x in rng.uniform(-2, 2, 50):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        assert f(float(x)) == acc


def test_derivatives_match_central_differences(rng):
    """Declared derivatives agree with central differences, away from 0 for
    the functions with no derivative at 0."""
    entries = [
        get_function("identity"), get_function("poly", (1.0, -2.0, 0.0, 3.0)),
        get_function("abs"), get_function("signed_square"),
        get_function("sqrt_abs"), get_function("sin"), get_function("exp"),
        get_function("smoothed_abs", (0.2,)), get_function("xsin_inv"),
    ]
    for f in entries:
        checked = 0
        for x in rng.uniform(-2.0, 2.0, 400):
            x = float(x)
            if abs(x) < 0.1 and f.derivative_at(0.0) is None:
                continue
            d = f.derivative_at(x)
            assert d is not None
            h = 1e-6 * max(1.0, abs(x))
            approx = (f(x + h) - f(x - h)) / (2 * h)
            assert approx == pytest.approx(d, rel=1e-5, abs=1e-8)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100


def test_domain_error_on_nonfinite_value():
    f = get_function("poly", (0.0, 1e308))
    with pytest.raises(DomainError):
        f(1e10)


def _horner_floats(x):
    acc = 0.0
    for c in reversed(_FROZEN_PARAMS["poly"]):
        acc = acc * x + c
    return acc


#: each catalog rule written again as Python-float arithmetic, with the
#: parameters of _FROZEN_PARAMS
_ORACLES = {
    "identity": lambda x: x,
    "constant": lambda x: 0.5,
    "poly": _horner_floats,
    "abs": abs,
    "signed_square": lambda x: x * abs(x),
    "sqrt_abs": lambda x: math.sqrt(abs(x)),
    "xsin_inv": lambda x: 0.0 if x == 0.0 else x * math.sin(1.0 / x),
    "sin": math.sin,
    "exp": math.exp,
    "smoothed_abs": lambda x: math.hypot(x, 0.05),
}


def _oracle_or_none(oracle, x):
    """oracle(x) as a float, or None where it raises or is not finite."""
    try:
        y = float(oracle(x))
    except (ArithmeticError, ValueError):
        return None
    return y if math.isfinite(y) else None


_MAGNITUDES = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
              st.floats(1.0, 2.0, exclude_max=True), st.integers(-60, 60),
              st.sampled_from([-1.0, 1.0])))


class TestArrayRules:
    """Each catalog rule evaluates a whole array at once; its values are
    those of the scalar formula, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(fid=st.sampled_from(sorted(_ORACLES)), shift=st.sampled_from([None, 0.25, -3.0]),
           xs=st.lists(_MAGNITUDES, max_size=40))
    def test_values_match_a_float_oracle(self, fid, shift, xs):
        assert sorted(_ORACLES) == list(catalog_ids())
        f, oracle = get_function(fid, _FROZEN_PARAMS.get(fid, ())), _ORACLES[fid]
        if shift is not None:
            f, oracle = f.shifted(shift), (lambda x, g=oracle: g(x) - shift)
        want = [_oracle_or_none(oracle, x) for x in xs]
        if None in want:
            # the first offending point in input order is the one named
            bad = xs[want.index(None)]
            with pytest.raises(DomainError, match=f" at {re.escape(repr(bad))}$"):
                f.values_at(np.array(xs))
            return
        got = f.values_at(np.array(xs))
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert [f(x).hex() for x in xs] == [v.hex() for v in want]

    def test_exp_names_its_first_overflow(self):
        f = get_function("exp")
        with pytest.raises(DomainError, match=r" at 710\.0$"):
            f.values_at([0.0, 710.0, 800.0])
        with pytest.raises(DomainError, match=r" at 710\.0$"):
            f(710.0)

    def test_poly_names_the_point_where_it_overflows(self):
        # 1e308 * x: finite at 1, infinite at 10 and beyond; no RuntimeWarning
        f = get_function("poly", (0.0, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r" at 10\.0$"):
                f.values_at([1.0, 10.0, 1e10, -1e10])

    def test_values_are_float64_in_the_input_shape(self):
        for fid in catalog_ids():
            f = get_function(fid, _FROZEN_PARAMS.get(fid, ()))
            for xs in (np.linspace(-1.0, 1.0, 6).reshape(2, 3), np.float64(0.5),
                       np.empty(0), [0.25, -0.5], np.arange(3)):
                got = f.values_at(xs)
                assert got.dtype == np.float64
                assert got.shape == np.shape(xs)
            assert type(f(1)) is float

    def test_pointwise_maps_a_raising_point_to_a_domain_error(self):
        f = ScalarFunction("partial", (), pointwise(lambda x: math.log(x)))
        assert f.values_at([1.0]).tolist() == [0.0]
        with pytest.raises(DomainError, match=r" at -1\.0$"):
            f.values_at([1.0, 2.0, -1.0, 0.0])


class TestMaxQuotient:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           pts=st.lists(st.floats(-1.0, 1.0), max_size=80).map(
               lambda xs: np.unique(np.array(xs, dtype=float))))
    def test_adjacent_scan_attains_exact_maximum(self, data, pts):
        # any values, not just a catalog function's: the mediant inequality
        # holds for every table, subnormal points and gaps included
        vals = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=pts.size,
                                           max_size=pts.size)), dtype=float)
        with np.errstate(over="ignore"):  # subnormal gaps: inf quotients
            q, i, j = max_quotient(pts, vals)
            adjacent = np.abs(np.diff(vals)) / np.diff(pts)
        exact_all, exact_adjacent = exact_quotient_maxima(pts, vals)
        assert exact_all == exact_adjacent
        if pts.size < 2:
            assert (q, i, j) == (-math.inf, None, None)
            return
        assert (q, j) == (adjacent[i], i + 1)
        assert i == int(np.flatnonzero(adjacent == adjacent.max())[0])
        assert_near_exact(q, exact_all)


def test_smoothed_abs_converges_to_abs():
    for eps in (0.5, 0.1, 0.01):
        f = get_function("smoothed_abs", (eps,))
        xs = np.linspace(-3, 3, 301)
        gap = max(abs(f(float(x)) - abs(float(x))) for x in xs)
        assert gap <= eps


def test_reference_is_plain_data():
    f = get_function("sin")
    assert f.reference() == {"id": "sin", "params": []}


_FROZEN_PARAMS = {"constant": (0.5,), "poly": (0.5, -1.0, 2.0, 0.0, 1.5),
                  "smoothed_abs": (0.05,)}


class TestFrozenQuotientScans:
    """Outputs recorded before the scalar probe and the grid Lipschitz
    estimate shared one quotient scan; both must reproduce them bit for bit."""

    # sha256 of repr([(value.hex(), i, j) for k = 1..10]), the probe on
    # _block_grid(2**-k, k)
    PROBE = {
        "abs": "85973d18bac76e31058f27c900820e3475e3936f1f79f0ee99d4b1354548afd7",
        "constant": "7926450c3d5e050897fd1261f3442d5f312a17f6af579a17e0c4d5ea031427b4",
        "exp": "f4dc19ddf2eaa2eb1a0ede2cccd5298f74e70bafe83a49e01a0101c4bbd32be2",
        "identity": "85973d18bac76e31058f27c900820e3475e3936f1f79f0ee99d4b1354548afd7",
        "poly": "c5b9243c92ae16aa96e9d6b28d2105f26e161dd43193dce26c26d74d94107229",
        "signed_square": "853bbd5f1bae918897ce7381f6fde81e3243f078315b519203f208a20efd197b",
        "sin": "7046b17a3cefd54f880828d5e3dd028696e026222f1dc2e66243a9d91efcd946",
        "smoothed_abs": "83980ba5720db66c5b8e7fc15c969b7b8efe282270d2752c2ec0ecd9dbeb1ca6",
        "sqrt_abs": "a534ee8d88abfd49fd0d782714c4f93c530c61b82b28188ffe082ce01f75b70a",
        "xsin_inv": "b63be6488bab8d65af2960adaf6acb8297683c1e5b69dcb6d9a3b9162d5e7bc0",
    }

    # the grid Lipschitz estimate: the max_quotient value over the n-point
    # equispaced grid of [-1, 1] (points that round together merged), .hex(),
    # for n = 101, 2000, 2001
    LIPSCHITZ = {
        "abs": ("0x1.0000000000000p+0",) * 3,
        "sqrt_abs": ("0x1.c48c6001f0abcp+2", "0x1.05d74a15aad3fp+4",
                     "0x1.f9f6e4990f223p+4"),
        "xsin_inv": ("0x1.0167627be6fcfp+3", "0x1.2630b4b562cc2p+5",
                     "0x1.222e5c434a88ep+5"),
        "sin": ("0x1.fff7431525a21p-1", "0x1.fffffe99ba565p-1",
                "0x1.fffffa6858247p-1"),
        "smoothed_abs": ("0x1.ff5922b3ee358p-1", "0x1.ff5c4d973f511p-1",
                         "0x1.ff5c4d9c9bf0fp-1"),
    }

    @pytest.mark.parametrize("fid", catalog_ids())
    def test_scalar_probe(self, fid):
        f = get_function(fid, _FROZEN_PARAMS.get(fid, ()))
        rows = []
        for k in range(1, 11):
            pts = _block_grid(2.0 ** -k, k).points
            ev = _Evaluator(pts, np.array([f(x) for x in pts]), "schatten1")
            value, (ia, ib, _) = _scalar_probe(ev, 3)
            assert (ia == ia[0]).all() and (ib[1:] == ia[0]).all()
            rows.append((value.hex(), int(ia[0]), int(ib[0])))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.PROBE[fid]

    @pytest.mark.parametrize("fid", sorted(LIPSCHITZ))
    def test_lipschitz_estimate(self, fid):
        f = get_function(fid, _FROZEN_PARAMS.get(fid, ()))
        grids = (np.unique(np.linspace(-1.0, 1.0, n)) for n in (101, 2000, 2001))
        assert tuple(max_quotient(xs, f.values_at(xs))[0].hex()
                     for xs in grids) == self.LIPSCHITZ[fid]
