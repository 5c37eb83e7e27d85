"""Divided differences, Loewner matrices, finite spectra grids, and the
mixed-eigenbasis perturbation identity.

For A = U diag(lambda) U* and B = V diag(mu) V* the entrywise identity

    [U* (f(A) - f(B)) V]_jk = L(lambda_j, mu_k) * [U* (A - B) V]_jk

holds exactly, where L is the divided difference of f.  The residual of this
identity is the main cross-check on the functional calculus.  Near a tie,
``divided_difference`` is the one rule, and a Loewner matrix takes its tie
entries from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ScalarFunction, integer_at_least, interval_bounds
from .errors import BadInterval, InvariantViolation
from .hermitian import decompose

__all__ = [
    "TIE_EPS",
    "FiniteSpectrumSet",
    "LoewnerMatrix",
    "restrict_to_grid",
    "divided_difference",
    "loewner_matrix",
    "perturbation_identity_residual",
]

#: relative gap under which two points count as a tie, and the step of the
#: central difference used at a tie without a declared derivative
TIE_EPS = 1e-9


@dataclass(frozen=True)
class FiniteSpectrumSet:
    """Strictly increasing finite set of admissible spectrum points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 1:
            raise InvariantViolation("a spectrum set needs at least one point")
        if not np.isfinite(pts).all():
            raise InvariantViolation("spectrum points must be finite")
        if np.any(pts[1:] <= pts[:-1]):
            raise InvariantViolation("spectrum points must be strictly increasing")
        if not math.isfinite(float(pts[-1]) - float(pts[0])):
            raise InvariantViolation("spectrum points must span a finite width")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def restrict_to_grid(interval, n: int) -> FiniteSpectrumSet:
    """n >= 2 distinct equispaced points spanning [a, b], endpoints included."""
    a, b = interval_bounds(interval)
    integer_at_least(n, 2, "grid count", BadInterval)
    # count the doubles in [a, b] by order-preserving codes (-0.0 and 0.0 share 0)
    lo, hi = (c if c >= 0 else -(c & (2 ** 63 - 1))
              for c in np.array([a, b]).view(np.int64).tolist())
    if n <= hi - lo + 1:
        pts = np.linspace(a, b, n)
        if np.all(pts[1:] > pts[:-1]):
            return FiniteSpectrumSet(pts)
    raise BadInterval(f"[{a}, {b}] holds no {n} distinct equispaced floats")


def divided_difference(f: ScalarFunction, x: float, y: float) -> float:
    """(f(x) - f(y)) / (x - y); near ties, the analytic derivative at x, or
    a central difference with step TIE_EPS when no derivative is declared."""
    x, y = float(x), float(y)
    if abs(x - y) > TIE_EPS * (abs(x) + abs(y)):
        return (f(x) - f(y)) / (x - y)
    d = f.derivative_at(x)
    if d is not None:
        return d
    return (f(x + TIE_EPS) - f(x - TIE_EPS)) / (2.0 * TIE_EPS)


@dataclass(frozen=True)
class LoewnerMatrix:
    """Divided differences of f over a row grid and a column grid."""

    entries: np.ndarray


def loewner_matrix(f: ScalarFunction, lam, mu, values) -> LoewnerMatrix:
    """Divided differences L[j][k] = dd(f, lam[j], mu[k]) from ``values`` =
    (f(lam), f(mu)); f is evaluated point by point only at ties.  Leading
    axes of lam and mu broadcast: stacked grids give stacked matrices."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    f_lam, f_mu = values
    x, y = np.broadcast_arrays(lam[..., :, None], mu[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = (f_lam[..., :, None] - f_mu[..., None, :]) / (x - y)
    for idx in zip(*np.nonzero(~(np.abs(x - y) > TIE_EPS * (np.abs(x) + np.abs(y))))):
        entries[idx] = divided_difference(f, x[idx], y[idx])
    entries.setflags(write=False)
    return LoewnerMatrix(entries)


def perturbation_identity_residual(f: ScalarFunction, a: np.ndarray,
                                   b: np.ndarray) -> np.ndarray:
    """Max-entry residual of the mixed-basis identity relating f(A)-f(B)
    to the Loewner matrix acting entrywise on A-B, for each pair of two
    stacks (k, n, n) of Hermitian matrices."""
    dec = decompose(np.stack([a, b]))
    (lam, mu), (u, v) = dec.eigenvalues, dec.eigenvectors
    fa, fb = f.values_at(dec.eigenvalues)
    uh, vh = u.conj().swapaxes(-1, -2), v.conj().swapaxes(-1, -2)
    f_incr = (u * fa[:, None, :]) @ uh - (v * fb[:, None, :]) @ vh
    lhs = uh @ f_incr @ v
    rhs = uh @ (a - b) @ v
    loewner = loewner_matrix(f, lam, mu, (fa, fb))
    return np.abs(lhs - loewner.entries * rhs).max(axis=(-2, -1))
