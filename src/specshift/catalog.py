"""Catalog of scalar test functions used by the experiments.

One table, keyed by id, holds one row per function: its array rule, an
optional analytic derivative (``None`` where f has none), and the paper's
verdict: whether f is operator Lipschitz near 0, which holds exactly when
f(B) - f(A) is trace class for every trace-class B - A.  A function with
parameters has a builder in its row instead, which checks them.
:func:`get_function` turns a row into a :class:`ScalarFunction`.  No
numerical kernel reads the verdict.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import BadInterval, BadParams, DomainError, UnknownFunction

__all__ = [
    "ScalarFunction",
    "get_function",
    "finite_reals",
    "integer_at_least",
    "catalog_ids",
    "max_quotient",
    "pointwise",
]


@dataclass(frozen=True)
class ScalarFunction:
    """Real-valued function of one real variable.  Its rule maps a float64 array
    to one of the same shape (ufuncs, or :func:`pointwise` maps of ``math``)."""

    id: str
    params: tuple
    rule: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[float], Optional[float]]] = None
    operator_lipschitz_near_zero: Optional[bool] = None  # None: not known

    def __call__(self, x: float) -> float:
        return float(self.values_at(float(x)))

    def values_at(self, xs) -> np.ndarray:
        """f at each point of ``xs``, from one call of the rule; DomainError
        names the first point where f has no finite value."""
        xs = np.asarray(xs, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(self.rule(xs), dtype=np.float64)
        finite = np.isfinite(vals)
        if not finite.all():
            x = float(xs.flat[np.argmin(finite)])
            raise DomainError(f"{self.id} has no finite value at {x!r}")
        return vals

    def derivative_at(self, x: float) -> Optional[float]:
        """Analytic derivative, or None where no derivative is declared."""
        if self.deriv_fn is None:
            return None
        d = self.deriv_fn(float(x))
        return None if d is None else float(d)

    def reference(self) -> dict:
        """JSON-friendly reference: {"id": ..., "params": [...]}."""
        return {"id": self.id, "params": [float(p) for p in self.params]}


def pointwise(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Array rule applying the scalar ``fn`` to each element in turn; a point
    where ``fn`` raises ArithmeticError or ValueError maps to NaN."""
    def at(x):
        try:
            return fn(x)
        except (ArithmeticError, ValueError):
            return math.nan
    return lambda xs: np.fromiter(map(at, xs.ravel().tolist()), float).reshape(xs.shape)


def _horner(coeffs: tuple, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _no_derivative_at_0(deriv):
    """``deriv`` for a function with no derivative at 0."""
    return lambda x: None if x == 0.0 else deriv(x)


def _fixed(rule, deriv_fn, verdict: bool):
    """The builder of a function without parameters."""
    def build(fid: str, params: tuple) -> ScalarFunction:
        if params:
            raise BadParams(f"{fid} takes no parameters, got {params!r}")
        return ScalarFunction(fid, (), rule, deriv_fn, verdict)
    return build


def _one_param(fid: str, params: tuple) -> float:
    if len(params) != 1:
        raise BadParams(f"{fid} takes exactly one parameter, got {params!r}")
    return params[0]


def _build_constant(fid, params):
    c = _one_param(fid, params)
    return ScalarFunction(fid, (c,), lambda x: np.full_like(x, c), lambda x: 0.0, True)


def _build_poly(fid, params):
    if not params:
        raise BadParams(f"{fid} needs at least one coefficient")
    coeffs = params  # ascending: params[k] multiplies x**k
    dcoeffs = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
    return ScalarFunction(
        fid, coeffs,
        lambda x: _horner(coeffs, x),
        lambda x: _horner(dcoeffs, x) if dcoeffs else 0.0, True)


def _build_smoothed_abs(fid, params):
    eps = _one_param(fid, params)
    if not eps > 0.0:
        raise BadParams(f"{fid} width must be positive, got {eps!r}")
    return ScalarFunction(
        fid, (eps,),
        pointwise(lambda x: math.hypot(x, eps)),
        lambda x: x / math.hypot(x, eps), True)


#: id -> builder(id, params); a function without parameters is one row
#: (array rule, derivative, verdict)
_BUILDERS = {
    "identity": _fixed(np.copy, lambda x: 1.0, True),
    "constant": _build_constant,
    "poly": _build_poly,
    "abs": _fixed(np.abs, _no_derivative_at_0(lambda x: math.copysign(1.0, x)), False),
    "signed_square": _fixed(lambda x: x * np.abs(x), lambda x: 2.0 * abs(x), True),
    "sqrt_abs": _fixed(lambda x: np.sqrt(np.abs(x)), _no_derivative_at_0(
        lambda x: math.copysign(0.5 / math.sqrt(abs(x)), x)), False),
    "xsin_inv": _fixed(pointwise(lambda x: 0.0 if x == 0.0 else x * math.sin(1.0 / x)),
                       _no_derivative_at_0(lambda x: math.sin(1.0 / x) - math.cos(1.0 / x) / x),
                       False),
    "sin": _fixed(pointwise(math.sin), math.cos, True),
    "exp": _fixed(pointwise(math.exp), math.exp, True),
    "smoothed_abs": _build_smoothed_abs,
}


def catalog_ids() -> tuple:
    return tuple(sorted(_BUILDERS))


def get_function(fid: str, params=()) -> ScalarFunction:
    """Build a fully populated catalog function.

    ``params`` is a sequence of reals whose meaning depends on the id
    (polynomial coefficients in ascending order, mollification width, ...).
    """
    try:
        builder = _BUILDERS[fid]
    except KeyError:
        raise UnknownFunction(
            f"unknown function id {fid!r}; known: {', '.join(catalog_ids())}") from None
    return builder(fid, finite_reals(params, f"parameters for {fid!r}", BadParams))


def finite_reals(values, what: str, error) -> Tuple[float, ...]:
    """``values`` as finite floats, the one check of JSON reals: ``error`` naming
    ``what`` and the first bool, non-real, or number that overflows or is not
    finite, with its index."""
    out = []
    for i, x in enumerate(values):
        try:  # isfinite raises OverflowError on an int too large for a float
            if isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x):
                out.append(float(x))
                continue
        except OverflowError:
            pass
        raise error(f"{what}: each must be a finite real number, but entry {i} is {x!r}")
    return tuple(out)


def integer_at_least(value, minimum: int, what: str, error) -> int:
    """``value`` as an int, the one check of JSON integers: ``error`` naming
    ``what`` unless it is an integer, not a bool, and at least ``minimum``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise error(f"{what} must be an integer >= {minimum}, got {value!r}")


def interval_bounds(interval) -> Tuple[float, float]:
    """Endpoints of an interval given as a list or tuple of two real numbers
    a < b whose width b - a is a finite float; anything else raises
    BadInterval."""
    if not isinstance(interval, (list, tuple)) or len(interval) != 2:
        raise BadInterval(f"need a list of two numbers [a, b], got {interval!r}")
    a, b = finite_reals(interval, "interval endpoints", BadInterval)
    if not (a < b and math.isfinite(b - a)):
        raise BadInterval(f"need finite a < b with a finite width, got [{a}, {b}]")
    return a, b


def max_quotient(pts: np.ndarray, vals: np.ndarray, radius: float = math.inf):
    """Largest difference quotient |vals[j] - vals[i]| / (pts[j] - pts[i])
    over index pairs i < j with pts[j] - pts[i] < radius, as (q, i, j);
    (-inf, None, None) when no pair qualifies.

    ``pts`` must be sorted and unique.  Only adjacent pairs (i, i + 1) are
    scanned, which is enough by the mediant inequality: the quotient of a
    pair (i, j) is at most the average of the adjacent quotients between
    them, weighted by their gaps, so at most the largest of them.  Each of
    those adjacent pairs qualifies too, because rounding is monotone:
    fl(pts[k + 1] - pts[k]) <= fl(pts[j] - pts[i]) < radius for i <= k < j.
    So the maximum over all pairs is attained at an adjacent pair, up to the
    rounding of the quotients themselves.  Ties go to the first adjacent
    maximiser, so the outcome is deterministic; j is always i + 1."""
    if pts.size < 2:
        return -math.inf, None, None
    dx = np.diff(pts)
    q = np.abs(np.diff(vals)) / dx
    q[dx >= radius] = -math.inf
    i = int(np.argmax(q))
    if q[i] == -math.inf:
        return -math.inf, None, None
    return float(q[i]), i, i + 1
