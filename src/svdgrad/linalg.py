"""Matrix operand validation and a canonicalized economy SVD.

Everything operates on plain 2-D numpy arrays in one of the four supported
dtypes (float32/float64/complex64/complex128). All functions are pure;
values are never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUPPORTED_DTYPES",
    "SvdFactors",
    "conj_transpose",
    "ensure_matrix",
    "real_dtype_of",
    "svd",
]

SUPPORTED_DTYPES = (np.float32, np.float64, np.complex64, np.complex128)

_REAL_OF = {
    np.dtype(np.float32): np.dtype(np.float32),
    np.dtype(np.float64): np.dtype(np.float64),
    np.dtype(np.complex64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.float64),
}


def real_dtype_of(dtype) -> np.dtype:
    """Real dtype of the same precision (float32 for complex64, etc.)."""
    return _REAL_OF[np.dtype(dtype)]


def ensure_matrix(A, name: str = "matrix", require_finite: bool = False) -> np.ndarray:
    """Validate a 2-D matrix operand and return it as an ndarray."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {A.shape}")
    if A.dtype not in [np.dtype(d) for d in SUPPORTED_DTYPES]:
        raise TypeError(f"{name} has unsupported dtype {A.dtype}")
    if require_finite and not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def conj_transpose(A) -> np.ndarray:
    A = ensure_matrix(A, "A")
    return A.conj().T.copy()


@dataclass(frozen=True)
class SvdFactors:
    """Economy SVD triple A = U diag(s) V^H.

    U is m×k, V is n×k with k = min(m,n); s is real, nonnegative, descending,
    with zeros retained so rank deficiency needs no special casing downstream.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def k(self) -> int:
        return self.s.shape[0]

    def reconstruct(self, s_override: np.ndarray | None = None) -> np.ndarray:
        """U diag(s) V^H, optionally with a replacement singular-value vector."""
        s = self.s if s_override is None else np.asarray(s_override)
        return (self.U * s[None, :].astype(self.U.dtype)) @ self.V.conj().T


def svd(A) -> SvdFactors:
    """Economy SVD with a deterministic sign convention.

    The gauge is fixed by making the first exactly-nonzero entry of each U
    column real and positive (the matching V column is rotated by the same
    unit scalar), so factors of identical inputs are identical and gradient
    comparisons across backward modes are meaningful.
    """
    A = ensure_matrix(A, "A", require_finite=True)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    V = Vh.conj().T
    k = s.shape[0]
    for j in range(k):
        col = U[:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        lead = col[nz[0]]
        phase = np.conj(lead / abs(lead))
        if phase != 1:
            U[:, j] = col * phase
            V[:, j] = V[:, j] * phase
            # the multiply rounds; the lead entry is |lead| by definition
            U[nz[0], j] = abs(lead)
    return SvdFactors(U=U, s=s.astype(real_dtype_of(A.dtype), copy=False), V=V)
