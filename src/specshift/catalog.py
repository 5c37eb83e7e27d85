"""Catalog of scalar test functions used by the experiments.

Each entry is a :class:`ScalarFunction`: an evaluation rule, an optional
analytic derivative (``None`` at declared kinks), and advisory theory
metadata.  Metadata is never consulted by numerical kernels; it only feeds
reports.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import BadInterval, BadParams, DomainError, UnknownFunction

__all__ = [
    "FunctionMetadata",
    "ScalarFunction",
    "get_function",
    "catalog_ids",
    "lipschitz_seminorm_estimate",
    "max_quotient",
]


@dataclass(frozen=True)
class FunctionMetadata:
    """Advisory facts about a catalog function."""

    known_lipschitz_on_unit_interval: Optional[float] = None
    known_operator_lipschitz_near_zero: Optional[bool] = None
    citation_note: str = ""


@dataclass(frozen=True)
class ScalarFunction:
    """Evaluatable real-valued function of one real variable."""

    id: str
    params: tuple
    eval_fn: Callable[[float], float]
    deriv_fn: Optional[Callable[[float], Optional[float]]] = None
    kinks: tuple = ()
    metadata: FunctionMetadata = field(default_factory=FunctionMetadata)

    def __call__(self, x: float) -> float:
        try:
            value = float(self.eval_fn(float(x)))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"{self.id} undefined at {x!r}: {exc}") from None
        if not math.isfinite(value):
            raise DomainError(f"{self.id} is not finite at {x!r}")
        return value

    def values_at(self, xs) -> np.ndarray:
        """Array of f(x) for each point x of ``xs``.  Every point goes
        through ``__call__``, so values, DomainError messages and the call
        count are those of a per-point loop."""
        return np.array([self(x) for x in xs])

    def derivative_at(self, x: float) -> Optional[float]:
        """Analytic derivative, or None where no derivative is declared."""
        if self.deriv_fn is None:
            return None
        d = self.deriv_fn(float(x))
        return None if d is None else float(d)

    def shifted(self, c: float) -> "ScalarFunction":
        """Descriptor for x -> f(x) - c; derivative and kinks unchanged."""
        base_eval = self.eval_fn
        c = float(c)
        return ScalarFunction(
            id=f"{self.id}-shifted",
            params=self.params + (c,),
            eval_fn=lambda x: base_eval(x) - c,
            deriv_fn=self.deriv_fn,
            kinks=self.kinks,
            metadata=self.metadata,
        )

    def reference(self) -> dict:
        """JSON-friendly reference: {"id": ..., "params": [...]}."""
        return {"id": self.id, "params": [float(p) for p in self.params]}


def _horner(coeffs: tuple, x: float) -> float:
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
        "identity", (), lambda x: x, lambda x: 1.0,
        metadata=FunctionMetadata(1.0, True, "linear"))


def _build_constant(params):
    if len(params) != 1:
        raise BadParams(f"constant takes exactly one parameter, got {params!r}")
    c = params[0]
    return ScalarFunction(
        "constant", (c,), lambda x: c, lambda x: 0.0,
        metadata=FunctionMetadata(0.0, True, "constant"))


def _build_poly(params):
    if not params:
        raise BadParams("poly needs at least one coefficient")
    coeffs = params  # ascending: params[k] multiplies x**k
    dcoeffs = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
    return ScalarFunction(
        "poly", coeffs,
        lambda x: _horner(coeffs, x),
        lambda x: _horner(dcoeffs, x) if dcoeffs else 0.0,
        metadata=FunctionMetadata(None, True, "polynomial, ascending coefficients"))


def _build_abs(params):
    _no_params("abs", params)
    return ScalarFunction(
        "abs", (), abs,
        lambda x: None if x == 0.0 else math.copysign(1.0, x),
        kinks=(0.0,),
        metadata=FunctionMetadata(
            1.0, False,
            "Lipschitz with constant 1; trace-norm increments of matrix "
            "arguments are not controlled by the perturbation near 0"))


def _build_signed_square(params):
    _no_params("signed_square", params)
    return ScalarFunction(
        "signed_square", (), lambda x: x * abs(x), lambda x: 2.0 * abs(x),
        metadata=FunctionMetadata(2.0, True, "x|x|; derivative 2|x| is Lipschitz"))


def _build_sqrt_abs(params):
    _no_params("sqrt_abs", params)
    return ScalarFunction(
        "sqrt_abs", (), lambda x: math.sqrt(abs(x)),
        lambda x: None if x == 0.0 else math.copysign(0.5 / math.sqrt(abs(x)), x),
        kinks=(0.0,),
        metadata=FunctionMetadata(
            None, False,
            "Hoelder-1/2 at the origin; difference quotients are unbounded"))


def _build_xsin_inv(params):
    _no_params("xsin_inv", params)

    def ev(x):
        return 0.0 if x == 0.0 else x * math.sin(1.0 / x)

    def dv(x):
        if x == 0.0:
            return None
        return math.sin(1.0 / x) - math.cos(1.0 / x) / x

    return ScalarFunction(
        "xsin_inv", (), ev, dv, kinks=(0.0,),
        metadata=FunctionMetadata(
            None, False,
            "x*sin(1/x) extended by 0; bounded by |x| but the derivative "
            "sin(1/x) - cos(1/x)/x is unbounded near 0, so the function is "
            "not Lipschitz on any neighbourhood of the origin"))


def _build_sin(params):
    _no_params("sin", params)
    return ScalarFunction(
        "sin", (), math.sin, math.cos,
        metadata=FunctionMetadata(1.0, True, "entire, derivative bounded by 1"))


def _build_exp(params):
    _no_params("exp", params)
    return ScalarFunction(
        "exp", (), math.exp, math.exp,
        metadata=FunctionMetadata(math.e, True, "entire; constant e on [-1,1]"))


def _build_smoothed_abs(params):
    if len(params) != 1:
        raise BadParams(f"smoothed_abs takes exactly one parameter, got {params!r}")
    eps = params[0]
    if not eps > 0.0:
        raise BadParams(f"smoothed_abs width must be positive, got {eps!r}")
    return ScalarFunction(
        "smoothed_abs", (eps,),
        lambda x: math.hypot(x, eps),
        lambda x: x / math.hypot(x, eps),
        metadata=FunctionMetadata(
            1.0, True, "sqrt(x^2 + eps^2), smooth mollification of abs"))


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
    if any(isinstance(p, (bool, np.bool_)) for p in params):
        raise BadParams(f"parameters for {fid!r} must be real numbers, got {params!r}")
    try:
        clean = tuple(float(p) for p in params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"parameters for {fid!r} must be real numbers: {exc}") from None
    if not all(math.isfinite(p) for p in clean):
        raise BadParams(f"parameters for {fid!r} must be finite, got {clean!r}")
    return builder(clean)


def interval_bounds(interval) -> Tuple[float, float]:
    """Endpoints of an interval given as a list or tuple of two real numbers
    a < b whose width b - a is a finite float; anything else raises
    BadInterval."""
    if (not isinstance(interval, (list, tuple)) or len(interval) != 2
            or any(isinstance(x, bool) or not isinstance(x, numbers.Real)
                   for x in interval)):
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


def lipschitz_seminorm_estimate(f: ScalarFunction, interval, grid_n: int) -> float:
    """Largest difference quotient of ``f`` over an equispaced grid
    (points that round together are merged)."""
    a, b = interval_bounds(interval)
    if grid_n < 2:
        raise BadInterval(f"grid_n must be >= 2, got {grid_n}")
    xs = np.unique(np.linspace(a, b, grid_n))
    return max_quotient(xs, f.values_at(xs))[0]
