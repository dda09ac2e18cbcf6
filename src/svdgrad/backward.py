"""SVD backward pass with selectable handling of degenerate singular values.

The loss gradient with respect to the decomposed matrix is assembled from the
cotangents (Ubar, sbar, Vbar) of the factors and two auxiliary k×k matrices:

  F_ij = 1/(sigma_j^2 - sigma_i^2)   on well-separated pairs,
  T_ij = pseudoinverse correction    on pairs classified as equal.

The backward itself reads F only through the products F_ij * sigma_j and
sigma_i * F_ij, which are formed directly from the relative F
(sigma_max^2 * F): F alone overflows float32 on spectra near 1e-18 while the
products stay of order 1/sigma.

Five modes differ only in how they regularize F (and whether T is used):

  exact   no safeguard; F entries may be +-inf/NaN (the unstable comparator)
  tf      classified-equal pairs zeroed
  clip    classified-equal pairs set to sign(sigma_j - sigma_i) * clip_value
  taylor  F replaced everywhere by a truncated geometric series of degree K
  inv     classified-equal pairs zeroed in F and compensated through T

A pair (i, j) is classified equal when |sigma_j^2 - sigma_i^2| < sigma_max^2/t
with the threshold t chosen near the top of the working precision's range, so
only pairs whose relative 1/gap would overflow are redirected. The rule is
relative to the largest singular value, so a spectrum and any positive
multiple of it are classified alike; an absolute 1/t would call every pair of
a spectrum near 1e-18 equal in single precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _ct, ensure_matrix, real_dtype_of

__all__ = [
    "EQUAL_NONZERO",
    "EQUAL_ZERO",
    "UNEQUAL",
    "AuxMatrices",
    "GradMode",
    "StabilityParams",
    "build_aux",
    "classify_pairs",
    "svd_vjp",
]

UNEQUAL = 0
EQUAL_NONZERO = 1
EQUAL_ZERO = 2

_VARIANTS = ("exact", "tf", "clip", "taylor", "inv")


@dataclass(frozen=True)
class StabilityParams:
    """Equal-pair threshold t and overflow clamp; None means precision default.

    A pair is equal when |sigma_j^2 - sigma_i^2| < sigma_max^2 / t, so t is a
    relative threshold. Defaults resolve to t = 1e30, clamp = float32 max in
    single precision and t = 1e300, clamp = float64 max in double.
    """

    t: float | None = None
    clamp: float | None = None

    def __post_init__(self):
        if self.t is not None and not self.t > 0:
            raise ValueError("t must be positive")
        if self.clamp is not None and not self.clamp > 0:
            raise ValueError("clamp must be positive")

    def resolve(self, real_dtype) -> tuple[float, float]:
        single = np.dtype(real_dtype) == np.dtype(np.float32)
        t = self.t if self.t is not None else (1e30 if single else 1e300)
        clamp = self.clamp
        if clamp is None:
            clamp = float(np.finfo(np.float32 if single else np.float64).max)
        return float(t), float(clamp)


@dataclass(frozen=True)
class GradMode:
    """Backward-mode selector plus its parameters."""

    variant: str
    clip_value: float = 1e16
    taylor_k: int = 9
    stability: StabilityParams = field(default_factory=StabilityParams)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {_VARIANTS}")
        if not self.clip_value > 0:
            raise ValueError("clip_value must be positive")
        if self.taylor_k < 1:
            raise ValueError("taylor_k must be >= 1")

    @classmethod
    def exact(cls, stability: StabilityParams | None = None) -> "GradMode":
        return cls("exact", stability=stability or StabilityParams())

    @classmethod
    def tf(cls, stability: StabilityParams | None = None) -> "GradMode":
        return cls("tf", stability=stability or StabilityParams())

    @classmethod
    def clip(cls, clip_value: float = 1e16, stability: StabilityParams | None = None) -> "GradMode":
        return cls("clip", clip_value=clip_value, stability=stability or StabilityParams())

    @classmethod
    def taylor(cls, k: int = 9, stability: StabilityParams | None = None) -> "GradMode":
        return cls("taylor", taylor_k=k, stability=stability or StabilityParams())

    @classmethod
    def inv(cls, stability: StabilityParams | None = None) -> "GradMode":
        return cls("inv", stability=stability or StabilityParams())


@dataclass(frozen=True)
class AuxMatrices:
    """F, FS, T (real k×k) and the singular-value pseudoinverse vector.

    FS_ij = F_ij * sigma_j; since F is antisymmetric, sigma_i * F_ij = -FS_ji.
    """

    F: np.ndarray
    FS: np.ndarray
    T: np.ndarray
    s_pinv: np.ndarray


def _validate_s(s) -> np.ndarray:
    s = np.asarray(s)
    if s.ndim != 1:
        raise ValueError(f"singular values must be a vector, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("singular values contain non-finite entries")
    if (s < 0).any():
        raise ValueError("singular values must be nonnegative")
    return s


def _relative_gaps(s: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.floating]:
    """Relative squared gaps, the equal-pair mask and the scale sigma_max.

    gap[i, j] = (sigma_j^2 - sigma_i^2) / sigma_max^2, formed as
    ((sigma_j - sigma_i) / sigma_max) * ((sigma_j + sigma_i) / sigma_max) so
    that it is exactly antisymmetric and a pair one ulp apart keeps a nonzero
    gap at any scale (scaling s first would round such a pair into a tie).
    A pair is equal when |gap| < 1/t. An all-zero spectrum uses scale 1.
    """
    scale = s.max(initial=0)
    if scale == 0:
        scale = s.dtype.type(1)
    gap = ((s[None, :] - s[:, None]) / scale) * ((s[None, :] + s[:, None]) / scale)
    # comparison in float64 so that 1/t cannot underflow in a float32 run
    equal = np.abs(gap).astype(np.float64) < 1.0 / float(t)
    return gap, equal, scale


def classify_pairs(s, t: float) -> np.ndarray:
    """Symmetric k×k grid of pair labels {UNEQUAL, EQUAL_NONZERO, EQUAL_ZERO}.

    A pair is equal when |sigma_j^2 - sigma_i^2| < sigma_max^2 / t
    (strictly), so the labels do not depend on the scale of the spectrum; an
    equal pair is EQUAL_ZERO only when both values are exactly zero. Diagonal
    entries are labelled like any other equal pair.
    """
    s = _validate_s(s)
    rdt = s.dtype if s.dtype in (np.dtype(np.float32), np.dtype(np.float64)) else np.dtype(np.float64)
    s = s.astype(rdt, copy=False)
    with np.errstate(under="ignore"):
        _, equal, _ = _relative_gaps(s, t)
    both_zero = (s[:, None] == 0) & (s[None, :] == 0)
    labels = np.full(equal.shape, UNEQUAL, dtype=np.int8)
    labels[equal] = EQUAL_NONZERO
    labels[equal & both_zero] = EQUAL_ZERO
    return labels


def _clamp_nonfinite(x: np.ndarray, clamp: float) -> np.ndarray:
    """x with each +-inf replaced by +-clamp; x itself when all finite."""
    finite = np.isfinite(x)
    if finite.all():
        return x
    return np.where(finite, x, np.copysign(clamp, x))


def build_aux(s, mode: GradMode, dtype=None) -> AuxMatrices:
    """Construct F, FS, T, s_pinv of one spectrum for one backward mode.

    s is one spectrum, never a stack: `svd_vjp` calls this once per matrix
    of a stack.

    Arithmetic runs in `dtype` (default: the dtype of `s`), so a float32
    benchmark faithfully reproduces float32 gap rounding. F and FS are formed
    from the relative F (sigma_max^2 times F) with exact antisymmetry in every
    mode. FS = F_ij * sigma_j never passes through F alone, which overflows
    float32 on spectra near 1e-18; in the safeguarded modes any entry of F or
    FS that still overflows is clamped.
    """
    s = _validate_s(s)
    rdt = np.dtype(dtype) if dtype is not None else s.dtype
    if rdt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(f"dtype must be a real float type, got {rdt}")
    s = s.astype(rdt, copy=False)
    k = s.shape[0]
    t, clamp = mode.stability.resolve(rdt)
    clamp = min(clamp, float(np.finfo(rdt).max))
    safe = mode.variant != "exact"
    one = rdt.type(1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        gap, equal, scale = _relative_gaps(s, t)
        zero = s == 0
        if mode.variant == "taylor":
            F_rel = _taylor_relative(s, scale, mode.taylor_k)
        else:
            F_rel = one / gap
            if safe:
                # tf, clip and inv divide only on unequal pairs
                F_rel[equal] = 0
            else:
                # a pair of exact zeros takes the definition's zero branch;
                # every other degenerate pair divides unprotected
                F_rel[zero[:, None] & zero[None, :]] = 0
                np.fill_diagonal(F_rel, 0)
        if safe:
            # F_rel overflows where 1/gap exceeds the range (t above it, or
            # the series' 1/(sigma_hi/sigma_max)^2); clamped before FS could
            # form inf * 0 against a zero sigma
            F_rel = _clamp_nonfinite(F_rel, clamp)
        F = F_rel / scale / scale
        FS = F_rel * (s / scale)[None, :] / scale
        if mode.variant == "clip":
            # clip_value is a value of F itself, zero at an exact tie
            Fc = np.sign(s[None, :] - s[:, None]) * rdt.type(mode.clip_value)
            F = np.where(equal, Fc, F)
            FS = np.where(equal, Fc * s[None, :], FS)
        if safe:
            F = _clamp_nonfinite(F, clamp)
            FS = _clamp_nonfinite(FS, clamp)

        T = np.zeros((k, k), dtype=rdt)
        if mode.variant == "inv":
            fill = equal & ~(zero[:, None] & zero[None, :])
            np.fill_diagonal(fill, False)
            if fill.any():
                T = np.where(fill, np.minimum(one / s, clamp)[None, :], T)

        s_pinv = np.where(zero, 0, one / s)
        if safe:
            s_pinv = np.minimum(s_pinv, clamp)

    return AuxMatrices(F=F, FS=FS, T=T, s_pinv=s_pinv)


def _taylor_relative(s: np.ndarray, scale, K: int) -> np.ndarray:
    """Truncated-series approximation of the relative F (sigma_max^2 * F).

    For sigma_hi > sigma_lo the exact 1/(sigma_lo^2 - sigma_hi^2) equals
    -(1/sigma_hi^2) * sum_{p>=0} (sigma_lo/sigma_hi)^(2p); the degree-K
    truncation of that series is used, with value 0 when the pair is exactly
    equal (or both zero). The series ignores the equal-pair classification.
    """
    hi = np.maximum(s[:, None], s[None, :])
    lo = np.minimum(s[:, None], s[None, :])
    ratio = np.square(lo / hi)
    series = np.zeros_like(ratio)
    term = np.ones_like(ratio)
    for _ in range(K + 1):
        series += term
        term = term * ratio
    h = hi / scale
    # exact F has sign(sigma_j^2 - sigma_i^2)
    sgn = np.sign(s[None, :] - s[:, None])
    return np.where(hi > lo, series / (h * h), 0) * sgn


def _diag(v: np.ndarray) -> np.ndarray:
    """Matrices with v (..., k) on the diagonal and exact zeros elsewhere."""
    k = v.shape[-1]
    out = np.zeros((*v.shape, k), dtype=v.dtype)
    out[..., np.arange(k), np.arange(k)] = v
    return out


def _stacked_aux(s: np.ndarray, mode: GradMode, rdt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FS, T and s_pinv of every spectrum of the (..., k) stack s, from one
    build_aux call per spectrum; one spectrum's arrays are used as built,
    which spares a lone matrix's backward the copies."""
    if s.ndim == 1:
        aux = build_aux(s, mode, dtype=rdt)
        return aux.FS, aux.T, aux.s_pinv
    k = s.shape[-1]
    auxes = [build_aux(si, mode, dtype=rdt) for si in s.reshape(-1, k)]
    FS = np.stack([a.FS for a in auxes]).reshape(*s.shape, k)
    T = np.stack([a.T for a in auxes]).reshape(*s.shape, k)
    s_pinv = np.stack([a.s_pinv for a in auxes]).reshape(s.shape)
    return FS, T, s_pinv


def svd_vjp(A, factors, Ubar, sbar, Vbar, mode: GradMode) -> np.ndarray:
    """Pull factor cotangents (Ubar, sbar, Vbar) back to the input matrix.

    Computed as

      Abar = U [ (F o [U^H Ubar - Ubar^H U]) S + T o (U^H Ubar)
                 + diag(Re sbar) + S (F o [V^H Vbar - Vbar^H V]) ] V^H
             + (I - U U^H) Ubar diag(s_pinv) V^H
             + U diag(s_pinv) Vbar^H (I - V V^H)

    under the convention dL = Re tr(Abar^H dA). For complex input the
    per-column phase freedom (u_j, v_j) -> (e^{i t} u_j, e^{i t} v_j) adds

      + U diag( i (Im diag(U^H Ubar) - Im diag(V^H Vbar)) / 2 * s_pinv ) V^H,

    exact whenever the loss is invariant to that phase choice (any loss that
    reads the factors only through a reconstruction). Mode `exact` may return
    non-finite entries (propagated, never masked); every other mode returns
    finite output for finite input.

    A may be a (..., m, n) stack with factors and cotangents carrying the
    same leading axes; each matrix's gradient is bit-identical to its own
    2-D call. `build_aux` runs once per spectrum of the stack.
    """
    A = ensure_matrix(A, "A", stack=True)
    *stack, m, n = A.shape
    U, s, V = factors.U, factors.s, factors.V
    k = s.shape[-1]
    rdt = real_dtype_of(A.dtype)

    if Ubar is None:
        Ubar = np.zeros((*stack, m, k), dtype=A.dtype)
    if Vbar is None:
        Vbar = np.zeros((*stack, n, k), dtype=A.dtype)
    Ubar = ensure_matrix(Ubar, "Ubar", stack=True)
    Vbar = ensure_matrix(Vbar, "Vbar", stack=True)
    sbar = np.zeros((*stack, k), dtype=rdt) if sbar is None else np.asarray(sbar)
    if (Ubar.shape, sbar.shape, Vbar.shape) != ((*stack, m, k), (*stack, k), (*stack, n, k)):
        raise ValueError(
            f"cotangent shapes {Ubar.shape}/{sbar.shape}/{Vbar.shape} do not "
            f"conform to factors of a {A.shape} input"
        )

    FS, T, s_pinv_r = _stacked_aux(s, mode, rdt)
    FS = FS.astype(A.dtype, copy=False)
    T = T.astype(A.dtype, copy=False)
    s_pinv = s_pinv_r.astype(A.dtype, copy=False)[..., None, :]

    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        P = _ct(U) @ Ubar                         # U^H Ubar
        Q = _ct(V) @ Vbar                         # V^H Vbar
        br_u = P - _ct(P)
        br_v = Q - _ct(Q)
        core = FS * br_u                          # (F o br_u) S
        core = core + T * P
        core = core + _diag(np.real(sbar).astype(rdt, copy=False)).astype(A.dtype)
        core = core - FS.swapaxes(-1, -2) * br_v  # S (F o br_v)
        if np.iscomplexobj(A):
            diag_p = np.diagonal(P, axis1=-2, axis2=-1)
            diag_q = np.diagonal(Q, axis1=-2, axis2=-1)
            gauge = 0.5 * (np.imag(diag_p) - np.imag(diag_q))
            core = core + 1j * _diag(gauge * s_pinv_r).astype(A.dtype)
        Vh = _ct(V)
        Abar = U @ core @ Vh
        Abar = Abar + ((Ubar - U @ P) * s_pinv) @ Vh
        Abar = Abar + (U * s_pinv) @ _ct(Vbar - V @ Q)
    return Abar
