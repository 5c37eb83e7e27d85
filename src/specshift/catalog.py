"""Catalog of scalar test functions used by the experiments.

Each entry is a :class:`ScalarFunction`: an array rule, an optional
analytic derivative (``None`` where f has none), and the paper's verdict:
whether f is operator Lipschitz near 0, which holds exactly when f(B) - f(A)
is trace class for every trace-class B - A.  No numerical kernel reads the
verdict.
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

    def shifted(self, c: float) -> "ScalarFunction":
        """Descriptor for x -> f(x) - c; derivative and verdict unchanged."""
        rule = self.rule
        c = float(c)
        return ScalarFunction(
            id=f"{self.id}-shifted",
            params=self.params + (c,),
            rule=lambda x: rule(x) - c,
            deriv_fn=self.deriv_fn,
            operator_lipschitz_near_zero=self.operator_lipschitz_near_zero,
        )

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


def _no_params(fid: str, params: tuple) -> None:
    if params:
        raise BadParams(f"{fid} takes no parameters, got {params!r}")


def _build_identity(params):
    _no_params("identity", params)
    return ScalarFunction(
        "identity", (), np.copy, lambda x: 1.0, True)


def _build_constant(params):
    if len(params) != 1:
        raise BadParams(f"constant takes exactly one parameter, got {params!r}")
    c = params[0]
    return ScalarFunction(
        "constant", (c,), lambda x: np.full_like(x, c), lambda x: 0.0, True)


def _build_poly(params):
    if not params:
        raise BadParams("poly needs at least one coefficient")
    coeffs = params  # ascending: params[k] multiplies x**k
    dcoeffs = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
    return ScalarFunction(
        "poly", coeffs,
        lambda x: _horner(coeffs, x),
        lambda x: _horner(dcoeffs, x) if dcoeffs else 0.0, True)


def _build_abs(params):
    _no_params("abs", params)
    return ScalarFunction(
        "abs", (), np.abs,
        lambda x: None if x == 0.0 else math.copysign(1.0, x), False)


def _build_signed_square(params):
    _no_params("signed_square", params)
    return ScalarFunction(
        "signed_square", (), lambda x: x * np.abs(x), lambda x: 2.0 * abs(x), True)


def _build_sqrt_abs(params):
    _no_params("sqrt_abs", params)
    return ScalarFunction(
        "sqrt_abs", (), lambda x: np.sqrt(np.abs(x)),
        lambda x: None if x == 0.0 else math.copysign(0.5 / math.sqrt(abs(x)), x),
        False)


def _build_xsin_inv(params):
    _no_params("xsin_inv", params)

    def dv(x):
        if x == 0.0:
            return None
        return math.sin(1.0 / x) - math.cos(1.0 / x) / x

    return ScalarFunction(
        "xsin_inv", (), pointwise(lambda x: 0.0 if x == 0.0 else x * math.sin(1.0 / x)),
        dv, False)


def _build_sin(params):
    _no_params("sin", params)
    return ScalarFunction(
        "sin", (), pointwise(math.sin), math.cos, True)


def _build_exp(params):
    _no_params("exp", params)
    return ScalarFunction(
        "exp", (), pointwise(math.exp), math.exp, True)


def _build_smoothed_abs(params):
    if len(params) != 1:
        raise BadParams(f"smoothed_abs takes exactly one parameter, got {params!r}")
    eps = params[0]
    if not eps > 0.0:
        raise BadParams(f"smoothed_abs width must be positive, got {eps!r}")
    return ScalarFunction(
        "smoothed_abs", (eps,),
        pointwise(lambda x: math.hypot(x, eps)),
        lambda x: x / math.hypot(x, eps), True)


_BUILDERS = {
    "identity": _build_identity,
    "constant": _build_constant,
    "poly": _build_poly,
    "abs": _build_abs,
    "signed_square": _build_signed_square,
    "sqrt_abs": _build_sqrt_abs,
    "xsin_inv": _build_xsin_inv,
    "sin": _build_sin,
    "exp": _build_exp,
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
    if not _all_real(params):
        raise BadParams(f"parameters for {fid!r} must be real numbers, got {params!r}")
    try:
        clean = tuple(float(p) for p in params)
    except OverflowError as exc:
        raise BadParams(f"parameters for {fid!r} must be real numbers: {exc}") from None
    if not all(math.isfinite(p) for p in clean):
        raise BadParams(f"parameters for {fid!r} must be finite, got {clean!r}")
    return builder(clean)


def _all_real(xs) -> bool:
    """True when every element is a real number and none is a bool (JSON's
    true and false are not numbers; np.bool_ is not numbers.Real either)."""
    return all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in xs)


def interval_bounds(interval) -> Tuple[float, float]:
    """Endpoints of an interval given as a list or tuple of two real numbers
    a < b whose width b - a is a finite float; anything else raises
    BadInterval."""
    if (not isinstance(interval, (list, tuple)) or len(interval) != 2
            or not _all_real(interval)):
        raise BadInterval(f"need a list of two numbers [a, b], got {interval!r}")
    try:
        a, b = float(interval[0]), float(interval[1])
    except OverflowError:
        raise BadInterval(f"interval endpoints too large for a float: {interval!r}") from None
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
