"""Dense self-adjoint matrix core.

Spectral decomposition, functional calculus f(A) = U diag(f(lambda)) U*,
Schatten norms from singular values, spectral truncation, the
trace-norm / operator-norm increment ratios that the searches maximise, and
the trace-transfer residuals that verify checks.

Each kernel is one function.  It takes a ``HermitianOperator``, a matrix or
a stack (..., n, n) with one LAPACK or BLAS call, and every matrix of a
stack gets the bits it gets alone; a single pair is a stack of one.

Accuracy checks are relative to ``operator_scale`` = max(1, ||A||, ||B||);
``noise_floor`` judges what counts as zero relative to the quantity judged.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .catalog import ScalarFunction
from .errors import ConvergenceFailure, DegeneratePair, NonFinite

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "RatioWitness",
    "hermitian_part",
    "decompose",
    "apply_function",
    "singular_values",
    "spectral_truncation",
    "increment_ratio",
    "trace_transfer_check",
    "operator_scale",
]

#: relative part of the degeneracy floor, ``noise_floor``'s default
DEGENERATE_REL = 1e-14

_EIG_TOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of a matrix or of each matrix of a stack, as a real array
    when no entry has an imaginary part.  The map is exact on matrices that
    are already Hermitian and makes entries[j][k] == conj(entries[k][j]) bit
    for bit.  Where M + M* overflows, the entry is M/2 + M*/2."""
    mh = m.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (m + mh) / 2
    over = ~np.isfinite(h)
    if over.any():
        h[over] = m[over] / 2 + mh[over] / 2
    return h.real.copy() if h.dtype.kind == "c" and not h.imag.any() else h


class HermitianOperator:
    """Square self-adjoint matrix, stored as the ``hermitian_part`` of its
    input in a float64 or complex128 array.

    The entries never change, so ``decompose`` keeps its first success in a
    slot: read-only arrays, the bits a fresh eigensolve would give again.
    """

    __slots__ = ("_mat", "_dec")

    def __init__(self, entries) -> None:
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = arr.astype(dtype, copy=False)
        if not np.isfinite(arr).all():
            raise NonFinite("matrix entries must be finite")
        mat = hermitian_part(arr)
        mat.setflags(write=False)
        self._mat = mat
        self._dec = None

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Read-only entry array (float64 or complex128)."""
        return self._mat

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order, a unitary matrix of column
    eigenvectors, and the max-entry reconstruction residual
    |U diag(lambda) U* - A| with the tolerance it was held to.  For a stack
    every field carries its leading axes."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    reconstruction_residual: float
    reconstruction_tolerance: float


def operator_scale(a, b):
    """max(1, ||a||, ||b||) in operator norm; normalises relative tolerances.
    For two stacks of matrices, one scale per pair."""
    top = singular_values(np.stack([_coerce_matrix(a), _coerce_matrix(b)]))[..., 0]
    return np.maximum(1.0, top.max(axis=0))


def decompose(a) -> SpectralDecomposition:
    """Eigendecomposition A = U diag(lambda) U* of a HermitianOperator, a
    Hermitian matrix or each matrix of a stack (..., n, n), with verified
    accuracy.  An operator keeps its first success and returns it on later
    calls; a failure is not kept.

    Raises NonFinite for a non-finite entry, and ConvergenceFailure naming
    the first matrix whose orthonormality residual exceeds 1e-10 or whose
    reconstruction residual exceeds 1e-10 relative to max(1, its max-entry).
    """
    if isinstance(a, HermitianOperator) and a._dec is not None:
        return a._dec
    m = _coerce_matrix(a)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from None
    uh = u.conj().swapaxes(-1, -2)
    ortho = np.abs(uh @ u - np.eye(m.shape[-1])).max(axis=(-2, -1))
    recon = np.abs((u * w[..., None, :]) @ uh - m).max(axis=(-2, -1))
    tol = _EIG_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    bad = np.ravel(~((ortho <= _EIG_TOL) & (recon <= tol)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceFailure(
            f"eigendecomposition of matrix {i} out of tolerance: "
            f"ortho={np.ravel(ortho)[i]:g}, recon={np.ravel(recon)[i]:g}")
    w.setflags(write=False)
    u.setflags(write=False)
    dec = SpectralDecomposition(w, u, recon, tol)
    if isinstance(a, HermitianOperator):
        a._dec = dec
    return dec


def noise_floor(dim: int, scale, rel: float = DEGENERATE_REL):
    """Largest norm of a dim x dim difference of entries up to ``scale`` that
    counts as rounding noise.  Below the normal range a rounded operation
    errs by up to 2**-1075 absolutely; dim**2 * 2**-1022 = dim**2 * 2**53
    such quanta dwarf the O(dim**3) of them a norm takes."""
    return rel * dim * scale + dim * dim * 2.0 ** -1022


def _calculus(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``hermitian_part`` of U diag(values) U* for each eigenvector matrix U
    of a stack and its row of values: the functional calculus when the
    values are f at the eigenvalues."""
    return hermitian_part((vectors * values[..., None, :])
                          @ vectors.conj().swapaxes(-1, -2))


def apply_function(f: ScalarFunction, a) -> np.ndarray:
    """Functional calculus U diag(f(lambda_1), ..., f(lambda_n)) U* of a
    HermitianOperator, a matrix or each matrix of a stack, as an array.

    Raises DomainError (from the function itself) if f is undefined or
    non-finite at some eigenvalue.
    """
    dec = decompose(a)
    return _calculus(dec.eigenvectors, f.values_at(dec.eigenvalues))


def _coerce_matrix(x) -> np.ndarray:
    if isinstance(x, HermitianOperator):
        return x.matrix
    arr = np.asarray(x)
    if arr.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFinite("matrix entries must be finite")
    return arr


def singular_values(x) -> np.ndarray:
    """Singular values in descending order along the last axis; accepts a
    HermitianOperator, a matrix or a stack (..., m, n) of them, each solved
    as it would be alone at the stack's dtype."""
    return np.linalg.svd(_coerce_matrix(x), compute_uv=False)


def schatten_from_singular(s: np.ndarray, p):
    """Schatten p-norms, p = 1 (trace norm), 2 (Frobenius) or inf (operator
    norm), from singular values in descending order along the last axis."""
    if p == 1:
        return s.sum(axis=-1)
    if p == 2:
        return np.sqrt((s * s).sum(axis=-1))
    if p == np.inf:
        return s[..., 0]
    raise ValueError(f"p must be 1, 2 or inf, got {p!r}")


def spectral_truncation(dec: SpectralDecomposition, deltas) -> Tuple[np.ndarray, np.ndarray]:
    """Zero out every eigenvalue with |lambda| > delta, per matrix of a
    (stacked) decomposition, deltas broadcasting over its leading axes.
    Returns the truncated matrices and the number of eigenvalues each
    discards, which equals rank(A - A_delta)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if not np.all((deltas > 0) & np.isfinite(deltas)):
        raise ValueError(f"delta must be positive and finite, got {deltas!r}")
    keep = np.abs(dec.eigenvalues) <= deltas[..., None]
    return (_calculus(dec.eigenvectors, np.where(keep, dec.eigenvalues, 0.0)),
            np.count_nonzero(~keep, axis=-1))


@dataclass(frozen=True)
class RatioWitness:
    """A pair (A, B) with its function-increment ratios.

    ratio_s1 = ||f(B)-f(A)||_1 / ||B-A||_1 and ratio_op is the same quotient
    in operator norm.  For two stacks, a and b are the stacks and the ratios
    (k,) arrays.
    """

    a: HermitianOperator
    b: HermitianOperator
    ratio_s1: float
    ratio_op: float


def increment_ratio(f: ScalarFunction, a, b) -> RatioWitness:
    """The ratios of two operators, as floats, or of the pairs of two stacks
    (k, n, n), as (k,) arrays with one evaluation of f.

    Raises DegeneratePair when some ||B-A||_1 is at most ``noise_floor`` at
    scale max(||A||, ||B||) (this also rejects A = B).
    """
    one = isinstance(a, HermitianOperator)
    ma, mb = (a.matrix[None], b.matrix[None]) if one else (a, b)
    s_a, s_b, den = singular_values(np.stack([ma, mb, mb - ma]))
    den_s1 = den.sum(axis=-1)
    low = den_s1 <= noise_floor(ma.shape[-1], np.maximum(s_a[:, 0], s_b[:, 0]))
    if low.any():
        raise DegeneratePair(
            f"||B-A||_1 = {den_s1[np.argmax(low)]:g} is below the degeneracy floor")
    fa, fb = apply_function(f, np.stack([ma, mb]))
    num = singular_values(fb - fa)
    ratios = (num.sum(axis=-1) / den_s1, num[:, 0] / den[:, 0])
    if one:
        ratios = (float(r[0]) for r in ratios)
    return RatioWitness(a, b, *ratios)


def trace_transfer_check(fs, deltas, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reassembly residuals of f(A) and f(B) across the truncations A_delta
    and B_delta, for pair i of two stacks (k, n, n) with function fs[i] and
    level deltas[i], as a (k,) array.

    f is normalised to f - f(0) first, and each tail f(A) - f(A_delta) is
    formed two ways: from the eigensolves of A and A_delta, and as
    U diag(f(lambda) [|lambda| > delta]) U* with A = U diag(lambda) U* from
    A's alone; the two are equal in exact arithmetic.  The residual is the
    larger, over A and B, of the trace norm of their difference.  Each
    distinct f is evaluated once.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    dec = decompose(np.stack([a, b]))
    truncated, _ = spectral_truncation(dec, deltas)
    dec_d = decompose(truncated)
    w = np.stack([dec.eigenvalues, dec_d.eigenvalues])
    vals = np.empty_like(w)
    for f in dict.fromkeys(fs):
        rows = np.array([h == f for h in fs])
        vals[..., rows, :] = f.values_at(w[..., rows, :]) - f(0.0)
    images = _calculus(np.stack([dec.eigenvectors, dec_d.eigenvectors]), vals)
    discarded = np.abs(dec.eigenvalues) > deltas[:, None]
    direct = _calculus(dec.eigenvectors, np.where(discarded, vals[0], 0.0))
    residual_a, residual_b = schatten_from_singular(
        singular_values(images[0] - images[1] - direct), 1)
    return np.maximum(residual_a, residual_b)
