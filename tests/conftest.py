import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from specshift import HermitianOperator, SumBlock, singular_values
from specshift.hermitian import schatten_from_singular


def random_hermitian(rng, dim, scale=1.0, complex_entries=False):
    """Random Hermitian matrix with entries in [-scale, scale]."""
    m = rng.uniform(-scale, scale, (dim, dim))
    if complex_entries:
        m = m + 1j * rng.uniform(-scale, scale, (dim, dim))
    return HermitianOperator(m)


def schatten(x, p) -> float:
    """Schatten p-norm (p = 1, 2 or inf) of one matrix or operator."""
    return float(schatten_from_singular(singular_values(x), p))


def exact_quotient_maxima(pts, vals, radius=math.inf):
    """Largest |vals[j] - vals[i]| / (pts[j] - pts[i]) in exact rationals on
    the stored floats, over every pair i < j and over adjacent pairs only,
    both among the pairs whose rounded gap fl(pts[j] - pts[i]) is below
    ``radius``; None where no pair qualifies.  By the mediant inequality the
    two agree."""
    x = [Fraction(float(p)) for p in pts]
    v = [Fraction(float(y)) for y in vals]

    def best(pairs):
        return max((abs(v[j] - v[i]) / (x[j] - x[i]) for i, j in pairs
                    if float(pts[j]) - float(pts[i]) < radius), default=None)

    n = len(x)
    return (best((i, j) for i in range(n) for j in range(i + 1, n)),
            best((i, i + 1) for i in range(n - 1)))


def assert_near_exact(q: float, exact: Fraction) -> None:
    """A quotient from two rounded subtractions and a rounded division lies
    within 3 ulps relative of the exact one, plus one subnormal quantum; it
    overflows to inf only if that tolerance reaches past the largest float."""
    tol = Fraction(3, 2**52) * exact + Fraction(2.0 ** -1074)
    if q == math.inf:
        assert exact + tol > Fraction(sys.float_info.max)
    else:
        assert abs(Fraction(q) - exact) <= tol


def assert_same_blocks(got, want) -> None:
    """Two tuples of SumBlocks agree field by field: multiplicity, both
    trace norms and both matrices, bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.multiplicity == w.multiplicity
        assert g.delta_s1 == w.delta_s1
        assert g.increment_s1 == w.increment_s1
        assert np.array_equal(g.a.matrix, w.a.matrix)
        assert np.array_equal(g.b.matrix, w.b.matrix)


def one_by_one_blocks(f, witness, upto):
    """Oracle for the first ``upto`` levels of a sequence witness of f:
    level k as the 1x1 pair (t_k) vs (s_k), repeated n_k times, with trace
    norms |t_k - s_k| and |f(t_k) - f(s_k)| from scalar calls of f."""
    return tuple(SumBlock(HermitianOperator([[t]]), HermitianOperator([[s]]), n,
                          abs(t - s), abs(f(t) - f(s)))
                 for t, s, n in zip(witness.t[:upto], witness.s, witness.n))


def count_calls(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` for the rest of the test; the
    returned list grows by one entry per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
