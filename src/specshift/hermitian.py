"""Dense self-adjoint matrix core.

Spectral decomposition, functional calculus f(A) = U diag(f(lambda)) U*,
Schatten norms from singular values, spectral truncation, and the
trace-norm / operator-norm increment ratios that the searches maximise.

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
    "TraceTransferReport",
    "decompose",
    "apply_function",
    "schatten_norm",
    "singular_values",
    "spectral_truncation",
    "increment_ratio",
    "trace_transfer_check",
    "operator_scale",
]

#: relative part of the degeneracy floor, ``noise_floor``'s default
DEGENERATE_REL = 1e-14

_EIG_TOL = 1e-10


class HermitianOperator:
    """Square self-adjoint matrix.

    The constructor replaces its input by (M + M*)/2.  That map is exact on
    matrices that are already Hermitian and guarantees the storage invariant
    entries[j][k] == conj(entries[k][j]) bit for bit.  Matrices with no
    imaginary part are kept in a real float64 array.

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
        mat = (arr + arr.conj().T) / 2
        if np.iscomplexobj(mat) and not mat.imag.any():
            mat = mat.real.copy()
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
    eigenvectors, the max-entry reconstruction residual
    |U diag(lambda) U* - A| with the tolerance ``decompose`` held it to, and
    the max-entry orthonormality residual |U* U - I| (held to 1e-10)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    reconstruction_residual: float
    reconstruction_tolerance: float
    orthonormality_residual: float


def operator_scale(a: HermitianOperator, b: HermitianOperator) -> float:
    """max(1, ||a||, ||b||) in operator norm; normalises relative tolerances."""
    return max(1.0, *singular_values(np.stack([a.matrix, b.matrix]))[:, 0].tolist())


def decompose(a: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition A = U diag(lambda) U* with verified accuracy.

    Raises ConvergenceFailure if the orthonormality residual exceeds 1e-10
    or the reconstruction residual 1e-10 relative to max(1, max-entry of A).
    Both residuals, and the reconstruction tolerance, are returned with it.
    A success is kept on ``a`` and returned by later calls; a failure is not.
    """
    if a._dec is not None:
        return a._dec
    m = a.matrix
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from None
    ortho = np.abs(u.conj().T @ u - np.eye(a.dim)).max()
    recon = np.abs((u * w) @ u.conj().T - m).max()
    tol = _EIG_TOL * max(1.0, np.abs(m).max())
    if ortho > _EIG_TOL or recon > tol:
        raise ConvergenceFailure(
            f"eigendecomposition out of tolerance: ortho={ortho:g}, recon={recon:g}")
    w.setflags(write=False)
    u.setflags(write=False)
    a._dec = SpectralDecomposition(w, u, float(recon), float(tol), float(ortho))
    return a._dec


def noise_floor(dim: int, scale, rel: float = DEGENERATE_REL):
    """Largest norm of a dim x dim difference of entries up to ``scale`` that
    counts as rounding noise.  Below the normal range a rounded operation
    errs by up to 2**-1075 absolutely; dim**2 * 2**-1022 = dim**2 * 2**53
    such quanta dwarf the O(dim**3) of them a norm takes."""
    return rel * dim * scale + dim * dim * 2.0 ** -1022


def apply_function(f: ScalarFunction, a: HermitianOperator) -> HermitianOperator:
    """Functional calculus: U diag(f(lambda_1), ..., f(lambda_n)) U*.

    Raises DomainError (from the function itself) if f is undefined or
    non-finite at some eigenvalue.
    """
    dec = decompose(a)
    vals = f.values_at(dec.eigenvalues)
    return HermitianOperator((dec.eigenvectors * vals) @ dec.eigenvectors.conj().T)


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


def schatten_norm(x, p) -> float:
    """Schatten p-norm of one matrix from its singular values."""
    return float(schatten_from_singular(singular_values(x), p))


def spectral_truncation(a: HermitianOperator, delta: float) -> Tuple[HermitianOperator, int]:
    """Zero out every eigenvalue with |lambda| > delta.

    Returns the truncated operator and the number of discarded eigenvalues,
    which equals rank(A - A_delta).
    """
    if not (delta > 0 and np.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    dec = decompose(a)
    keep = np.abs(dec.eigenvalues) <= delta
    trimmed = np.where(keep, dec.eigenvalues, 0.0)
    truncated = HermitianOperator((dec.eigenvectors * trimmed) @ dec.eigenvectors.conj().T)
    return truncated, int(np.count_nonzero(~keep))


@dataclass(frozen=True)
class RatioWitness:
    """A pair (A, B) with its function-increment ratios.

    ratio_s1 = ||f(B)-f(A)||_1 / ||B-A||_1 and ratio_op is the same quotient
    in operator norm; increment_s1 stores the numerator of ratio_s1.
    """

    a: HermitianOperator
    b: HermitianOperator
    ratio_s1: float
    ratio_op: float
    increment_s1: float


def increment_ratio(f: ScalarFunction, a: HermitianOperator,
                    b: HermitianOperator) -> RatioWitness:
    """Compute the trace-norm and operator-norm increment ratios of (A, B).

    Raises DegeneratePair when ||B-A||_1 is at most ``noise_floor`` at
    scale max(||A||, ||B||) (this also rejects A = B).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    s_a, s_b, den = singular_values(np.stack([a.matrix, b.matrix, b.matrix - a.matrix]))
    den_s1 = float(den.sum())
    if den_s1 <= noise_floor(a.dim, max(float(s_a[0]), float(s_b[0]))):
        raise DegeneratePair(
            f"||B-A||_1 = {den_s1:g} is below the degeneracy floor")
    num = singular_values(apply_function(f, b).matrix - apply_function(f, a).matrix)
    num_s1 = float(num.sum())
    return RatioWitness(
        a=a, b=b,
        ratio_s1=num_s1 / den_s1,
        ratio_op=float(num[0]) / float(den[0]),
        increment_s1=num_s1,
    )


@dataclass(frozen=True)
class TraceTransferReport:
    """How a function increment splits across a spectral truncation at delta.

    The tails f(A)-f(A_delta) and f(B)-f(B_delta) are supported on the
    discarded eigenvectors, so their ranks never exceed the discarded ranks.
    The reassembly residual measures the telescoping identity
    f(A)-f(B) = [f(A)-f(A_d)] + [f(A_d)-f(B_d)] - [f(B)-f(B_d)].
    """

    delta: float
    tail_a_s1: float
    tail_b_s1: float
    tail_a_rank: int
    tail_b_rank: int
    discarded_rank_a: int
    discarded_rank_b: int
    core_increment_s1: float
    total_increment_s1: float
    reassembly_residual_s1: float
    scale: float


def trace_transfer_check(f: ScalarFunction, delta: float, a: HermitianOperator,
                         b: HermitianOperator) -> TraceTransferReport:
    """Split ||f(A)-f(B)||_1 across the truncation A_delta, B_delta.

    f is normalised to f - f(0) first, so the tails vanish exactly when
    nothing is discarded.  Each tail's singular values give both its trace
    norm and its numerical rank: the count above ``noise_floor`` at scale
    max(||A||, ||B||) with rel 1e-10.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    g = f.shifted(f(0.0))
    a_d, rank_a = spectral_truncation(a, delta)
    b_d, rank_b = spectral_truncation(b, delta)
    ga, gb, gad, gbd = (apply_function(g, x).matrix for x in (a, b, a_d, b_d))
    tail_a = ga - gad
    tail_b = gb - gbd
    core = gad - gbd
    total = ga - gb
    residual = total - (tail_a + core - tail_b)
    sv = singular_values(np.stack([a.matrix, b.matrix, tail_a, tail_b, core, total, residual]))
    s1 = schatten_from_singular(sv, 1).tolist()
    top = max(float(sv[0, 0]), float(sv[1, 0]))
    rank_floor = noise_floor(a.dim, top, 1e-10)
    return TraceTransferReport(
        delta=float(delta),
        tail_a_s1=s1[2],
        tail_b_s1=s1[3],
        tail_a_rank=int(np.count_nonzero(sv[2] > rank_floor)),
        tail_b_rank=int(np.count_nonzero(sv[3] > rank_floor)),
        discarded_rank_a=rank_a,
        discarded_rank_b=rank_b,
        core_increment_s1=s1[4],
        total_increment_s1=s1[5],
        reassembly_residual_s1=s1[6],
        scale=max(1.0, top),
    )
