"""Singular value thresholding (soft and hard-tail) with a backward pass.

Soft thresholding is the proximal operator of the nuclear norm:
svt(A, soft(tau)) = U max(S - tau, 0) V^H. Hard-tail thresholding zeroes the
trailing d singular values positionally. Both return the thresholded matrix
together with the factors and the thresholded spectrum, which the backward
pass reuses (the forward is never recomputed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import GradMode, svd_vjp
from .linalg import NonFiniteError, SvdFactors, ensure_matrix, real_dtype_of, svd

__all__ = ["SvtCache", "ThresholdSpec", "svt", "svt_vjp"]


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold rule: soft(tau) shrinks, hard_tail(d) zeroes the last d values."""

    kind: str
    tau: float = 0.0
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("soft", "hard_tail"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "soft":
            if not np.isfinite(self.tau):
                raise NonFiniteError("soft threshold tau must be finite")
            if self.tau < 0:
                raise ValueError("soft threshold tau must be >= 0")
        else:
            if self.d < 0:
                raise ValueError("hard_tail d must be >= 0")

    @classmethod
    def soft(cls, tau: float) -> "ThresholdSpec":
        return cls("soft", tau=float(tau))

    @classmethod
    def hard_tail(cls, d: int) -> "ThresholdSpec":
        return cls("hard_tail", d=int(d))


@dataclass(frozen=True)
class SvtCache:
    """Forward products needed by svt_vjp."""

    A: np.ndarray
    factors: SvdFactors
    s_hat: np.ndarray
    spec: ThresholdSpec


def svt(A, spec: ThresholdSpec) -> tuple[np.ndarray, SvdFactors, np.ndarray]:
    """Threshold the spectrum of A; returns (B, factors, s_hat).

    A may be one matrix or a (..., m, n) stack, thresholded matrix by matrix.
    """
    factors = svd(A)
    s = factors.s
    k = factors.k
    if spec.kind == "soft":
        s_hat = np.maximum(s - np.asarray(spec.tau, dtype=s.dtype), np.asarray(0, dtype=s.dtype))
    else:
        if spec.d > k:
            raise ValueError(f"hard_tail d={spec.d} exceeds k={k}")
        s_hat = s.copy()
        if spec.d > 0:
            s_hat[..., k - spec.d :] = 0
    B = factors.reconstruct(s_hat)
    return B, factors, s_hat


def kept_mask(s: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Boolean mask of spectrum positions that pass gradient to S.

    Soft keeps sigma > tau strictly (the subgradient choice at the kink);
    hard_tail keeps the leading k-d positions regardless of value.
    """
    k = s.shape[0]
    if spec.kind == "soft":
        return s > np.asarray(spec.tau, dtype=s.dtype)
    mask = np.ones(k, dtype=bool)
    if spec.d > 0:
        mask[k - spec.d :] = False
    return mask


def svt_vjp(Bbar, cached: SvtCache, mode: GradMode) -> tuple[np.ndarray, float]:
    """Pull the thresholded-matrix cotangent back to (Abar, taubar).

    The factor cotangents follow the chain rule through B = U diag(s_hat) V^H:
    Ubar = Bbar V diag(s_hat), Vbar = Bbar^H U diag(s_hat), and the spectrum
    cotangent Re diag(U^H Bbar V) masked to kept positions. taubar (soft only)
    is minus the sum of the pre-mask spectrum cotangents over kept positions.
    """
    Bbar = ensure_matrix(Bbar, "Bbar")
    A, factors, s_hat, spec = cached.A, cached.factors, cached.s_hat, cached.spec
    if Bbar.shape != A.shape:
        raise ValueError(f"Bbar shape {Bbar.shape} does not match A shape {A.shape}")
    rdt = real_dtype_of(A.dtype)

    s_d = s_hat.astype(Bbar.dtype, copy=False)
    gV = Bbar @ factors.V
    Ubar = gV * s_d[None, :]
    Vbar = (Bbar.conj().T @ factors.U) * s_d[None, :]
    sbar_pre = np.real(np.einsum("ij,ij->j", factors.U.conj(), gV))
    sbar_pre = sbar_pre.astype(real_dtype_of(Bbar.dtype), copy=False)
    kept = kept_mask(factors.s, spec)
    sbar = np.where(kept, sbar_pre, np.asarray(0, dtype=rdt))
    taubar = float(-sbar_pre[kept].sum()) if spec.kind == "soft" else 0.0
    Abar = svd_vjp(A, factors, Ubar, sbar, Vbar, mode)
    return Abar, taubar
