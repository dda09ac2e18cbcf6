"""Matrix operand validation and a canonicalized economy SVD.

Everything operates on plain numpy arrays in one of the four supported
dtypes (float32/float64/complex64/complex128). `svd` and `SvdFactors` take a
single 2-D matrix or a stack of them shaped (..., m, n) and act on the last
two axes. All functions are pure; values are never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteError",
    "SvdFactors",
    "ensure_matrix",
    "real_dtype_of",
    "svd",
]

_REAL_OF = {
    np.dtype(np.float32): np.dtype(np.float32),
    np.dtype(np.float64): np.dtype(np.float64),
    np.dtype(np.complex64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.float64),
}


class NonFiniteError(ValueError):
    """A value that must be finite (an SVD operand, a threshold) is inf or nan."""


def real_dtype_of(dtype) -> np.dtype:
    """Real dtype of the same precision (float32 for complex64, etc.)."""
    return _REAL_OF[np.dtype(dtype)]


def ensure_matrix(A, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D matrix or a (..., m, n) stack of matrices and return
    it as an ndarray."""
    A = np.asarray(A)
    if A.ndim < 2:
        raise ValueError(f"{name} must be 2-D or a stack of matrices, got shape {A.shape}")
    if A.size == 0:
        raise ValueError(f"{name} must have positive dimensions, got {A.shape}")
    if A.dtype not in _REAL_OF:
        raise TypeError(f"{name} has unsupported dtype {A.dtype}")
    return A


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack (a view
    for real input)."""
    return x.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class SvdFactors:
    """Economy SVD triple A = U diag(s) V^H.

    U is m×k, V is n×k with k = min(m,n); s is real, nonnegative, descending,
    with zeros retained so rank deficiency needs no special casing downstream.
    Factors of a stack carry the same leading axes: U (..., m, k), s (..., k),
    V (..., n, k).
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def k(self) -> int:
        return self.s.shape[-1]

    def reconstruct(self, s_override: np.ndarray | None = None) -> np.ndarray:
        """U diag(s) V^H, optionally with a replacement singular-value vector."""
        s = self.s if s_override is None else np.asarray(s_override)
        return (self.U * s[..., None, :].astype(self.U.dtype)) @ _ct(self.V)


def svd(A) -> SvdFactors:
    """Economy SVD with a deterministic sign convention.

    The gauge is fixed by making the first exactly-nonzero entry of each U
    column real and positive (the matching V column is rotated by the same
    unit scalar), so factors of identical inputs are identical and gradient
    comparisons across backward modes are meaningful. A stack (..., m, n) is
    decomposed matrix by matrix, with factors bit-identical to decomposing
    each matrix alone.
    """
    A = ensure_matrix(A, "A")
    if not np.isfinite(A).all():
        raise NonFiniteError("A contains non-finite entries")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    U, V = _fix_gauge(U, _ct(Vh))
    return SvdFactors(U=U, s=s.astype(real_dtype_of(A.dtype), copy=False), V=V)


def _fix_gauge(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each (U, V) column pair so U's first exactly-nonzero entry is
    real and positive; a column already in that gauge is left untouched."""
    shape_u, shape_v = U.shape, V.shape
    k = shape_u[-1]
    U = U.reshape(-1, shape_u[-2], k)
    V = V.reshape(-1, shape_v[-2], k)
    # first exactly-nonzero row of every column (row 0 of an all-zero column)
    at = (np.arange(U.shape[0])[:, None], (U != 0).argmax(axis=1), np.arange(k))
    lead = U[at]
    if np.iscomplexobj(U):
        # hypot rounds like the scalar abs(); the array np.abs may not
        mag = np.hypot(lead.real, lead.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.conj(lead / mag)
        fix = (phase != 1) & (mag != 0)
        U = np.where(fix[:, None, :], U * phase[:, None, :], U)
        V = np.where(fix[:, None, :], V * phase[:, None, :], V)
        # the multiply rounds; the lead entry is |lead| by definition
        U[at] = np.where(fix, mag, lead)
    else:
        # a factor of -1 is exact and turns the lead into |lead|; an
        # all-zero column (lead 0) keeps the factor 1
        sign = (np.sign(lead) + (lead == 0))[:, None, :]
        U, V = U * sign, V * sign
    return U.reshape(shape_u), V.reshape(shape_v)
