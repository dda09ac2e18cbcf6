"""Singular value thresholding (soft and hard-tail) with a backward pass.

Soft thresholding is the proximal operator of the nuclear norm:
svt(A, soft(tau)) = U max(S - tau, 0) V^H. Hard-tail thresholding zeroes the
trailing d singular values positionally. Both return the thresholded matrix
together with the factors and the thresholded spectrum, which the backward
pass reuses (the forward is never recomputed).

Forward and backward both act on the last two axes, so A may be a
(..., m, n) stack; a soft threshold may then give one tau per matrix, shaped
like the stack, and the backward returns one taubar per matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .backward import GradMode, _as_modes, _svd_vjps
from .linalg import NonFiniteError, SvdFactors, _ct, ensure_matrix, svd

__all__ = ["SvtCache", "ThresholdSpec", "svt", "svt_vjp", "threshold"]


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold rule: soft(tau) shrinks, hard_tail(d) zeroes the last d values.

    tau is a float, or a float64 array holding one threshold per matrix of a
    stack. d is an integer (a NumPy one is kept as a Python int). A bool, or
    a tau that is not a real number or array, or a d that is not an integer,
    raises TypeError.
    """

    kind: str
    tau: float | np.ndarray = 0.0
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("soft", "hard_tail"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "soft":
            _check_tau(self.tau)
            taus = self.tau.ravel().tolist() if isinstance(self.tau, np.ndarray) else [self.tau]
            if not all(map(math.isfinite, taus)):
                raise NonFiniteError("soft threshold tau must be finite")
            if any(t < 0 for t in taus):
                raise ValueError("soft threshold tau must be >= 0")
        else:
            if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)):
                raise TypeError(f"hard_tail d: expected an integer, got {self.d!r}")
            if self.d < 0:
                raise ValueError("hard_tail d must be >= 0")
            object.__setattr__(self, "d", int(self.d))

    @classmethod
    def soft(cls, tau) -> "ThresholdSpec":
        if np.ndim(tau) == 0:
            _check_tau(tau)
            tau = float(tau)
        else:
            tau = np.asarray(tau, dtype=np.float64)
        return cls("soft", tau=tau)

    @classmethod
    def hard_tail(cls, d: int) -> "ThresholdSpec":
        return cls("hard_tail", d=d)


def _check_tau(tau) -> None:
    """Refuse a soft threshold that is a bool, or neither a real number nor
    an array of them, with TypeError. A type test only: `Tape.forward` builds
    one soft spec per svt node per forward."""
    if isinstance(tau, np.ndarray):
        if tau.dtype.kind in "fiu":
            return
    elif not isinstance(tau, bool) and isinstance(tau, (int, float, np.integer, np.floating)):
        return
    raise TypeError(f"soft threshold tau: expected a real number, got {tau!r}")


@dataclass(frozen=True)
class SvtCache:
    """Forward products needed by svt_vjp; the factors carry the input's
    shape and dtype."""

    factors: SvdFactors
    s_hat: np.ndarray
    spec: ThresholdSpec


def svt(A, spec: ThresholdSpec) -> tuple[np.ndarray, SvdFactors, np.ndarray]:
    """Threshold the spectrum of A; returns (B, factors, s_hat).

    A may be one matrix or a (..., m, n) stack, thresholded matrix by matrix.
    """
    factors = svd(A)
    B, s_hat = threshold(factors, spec)
    return B, factors, s_hat


def threshold(factors: SvdFactors, spec: ThresholdSpec) -> tuple[np.ndarray, np.ndarray]:
    """Threshold an SVD's spectrum; returns (B, s_hat), B = U diag(s_hat) V^H.

    The step of `svt` after the decomposition, so factors taken once can be
    thresholded again under another spec.
    """
    s = factors.s
    k = factors.k
    if spec.kind == "soft":
        s_hat = np.maximum(s - _tau_of(spec, s), np.asarray(0, dtype=s.dtype))
    else:
        if spec.d > k:
            raise ValueError(f"hard_tail d={spec.d} exceeds k={k}")
        s_hat = s.copy()
        if spec.d > 0:
            s_hat[..., k - spec.d :] = 0
    return factors.reconstruct(s_hat), s_hat


def _tau_of(spec: ThresholdSpec, s: np.ndarray) -> np.ndarray:
    """The soft threshold in the dtype of s, broadcasting against (..., k)."""
    return np.asarray(spec.tau, dtype=s.dtype)[..., None]


def kept_mask(s: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Boolean mask of spectrum positions that pass gradient to S.

    Soft keeps sigma > tau strictly (the subgradient choice at the kink);
    hard_tail keeps the leading k-d positions regardless of value. s may be
    a (..., k) stack of spectra.
    """
    if spec.kind == "soft":
        return s > _tau_of(spec, s)
    mask = np.ones(s.shape, dtype=bool)
    if spec.d > 0:
        mask[..., s.shape[-1] - spec.d :] = False
    return mask


def _kept_sums(x: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per spectrum of the (..., k) stack x, the sum of its kept entries, as
    float64 shaped (...). Each sum runs over the gathered entries alone, so it
    rounds like x[kept].sum() on one spectrum (summing zeros in their place
    would not)."""
    if x.ndim == 1:
        return np.float64(x[kept].sum())
    stack, k = x.shape[:-1], x.shape[-1]
    x, kept = x.reshape(-1, k), kept.reshape(-1, k)
    counts = kept.sum(axis=-1)
    sums = np.zeros(counts.shape, dtype=x.dtype)
    for p in set(counts.tolist()) - {0}:
        rows = counts == p
        sums[rows] = x[rows][kept[rows]].reshape(-1, p).sum(axis=-1)
    return sums.astype(np.float64).reshape(stack)


def svt_vjp(Bbar, cached: SvtCache, mode: GradMode | Sequence[GradMode]):
    """Pull the thresholded-matrix cotangent back to (Abar, taubar).

    The factor cotangents follow the chain rule through B = U diag(s_hat) V^H:
    Ubar = Bbar V diag(s_hat), Vbar = Bbar^H U diag(s_hat), and the spectrum
    cotangent Re diag(U^H Bbar V) masked to kept positions. taubar (soft only)
    is minus the sum of the pre-mask spectrum cotangents over kept positions.

    Bbar is shaped like the input, (..., m, n) as the factors give it, and
    in U's dtype (else TypeError). On a stack Abar is each matrix's own
    gradient, bit for bit, and taubar is a float64 array with one value per
    matrix; for one matrix it is a float.

    `mode` may also be a non-empty sequence of modes. The result is then a
    list with one (Abar, taubar) per mode, in order, each bit-identical to
    that mode's own call; anything else raises TypeError, an empty sequence
    ValueError, before any work. Only Abar depends on the mode: the factor
    cotangents and taubar (one object, shared by every pair) are formed
    once, and the modes share the SVD node as `_svd_vjps` says.
    """
    modes = _as_modes(mode)
    Bbar = ensure_matrix(Bbar, "Bbar")
    factors, s_hat, spec = cached.factors, cached.s_hat, cached.spec
    U, s, V = factors.U, factors.s, factors.V
    if Bbar.shape != (*U.shape[:-1], V.shape[-2]):
        raise ValueError(f"Bbar shape {Bbar.shape} does not match the {U.shape} U and {V.shape} V")
    if Bbar.dtype != U.dtype:
        raise TypeError(f"cotangent Bbar is {Bbar.dtype}, not the factors' {U.dtype}")

    s_d = s_hat.astype(Bbar.dtype, copy=False)[..., None, :]
    gV = Bbar @ V
    Ubar = gV * s_d
    Vbar = (_ct(Bbar) @ U) * s_d
    sbar_pre = np.real(np.einsum("...ij,...ij->...j", U.conj(), gV))
    kept = kept_mask(s, spec)
    sbar = np.where(kept, sbar_pre, np.asarray(0, dtype=s.dtype))
    taubar = -_kept_sums(sbar_pre, kept) if spec.kind == "soft" else np.zeros(U.shape[:-2])
    taubar = float(taubar) if U.ndim == 2 else taubar
    pairs = [(Abar, taubar) for Abar in _svd_vjps(factors, Ubar, sbar, Vbar, modes)]
    return pairs[0] if isinstance(mode, GradMode) else pairs
