"""SVD backward pass with selectable handling of degenerate singular values.

The loss gradient with respect to the decomposed matrix is assembled from the
cotangents (Ubar, sbar, Vbar) of the factors and two auxiliary k×k matrices:

  F_ij = 1/(sigma_j^2 - sigma_i^2)   on well-separated pairs,
  T_ij = pseudoinverse correction    on pairs classified as equal.

The backward reads F only through the products FS_ij = F_ij * sigma_j and
sigma_i * F_ij = -FS_ji, so `build_aux` forms FS directly from the relative F
(sigma_max^2 * F) and never F itself: F alone overflows float32 on spectra
near 1e-18 while the products stay of order 1/sigma. `build_aux` returns
exactly what `svd_vjp` reads: FS, T and the pseudoinverse 1/sigma (0 at a
zero sigma). On a stack of spectra the classification, FS, 1/sigma, their
clamps and the fixes at ties and zeros (T's fill, the zeros of 1/sigma) are
formed in one vectorised pass (`_aux_terms`), the one a lone spectrum takes
too; `build_aux` then only hands each spectrum its row of the stack's FS, T
and 1/sigma.

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

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

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
    single precision and t = 1e300, clamp = float64 max in double. A bool t
    or clamp raises TypeError.
    """

    t: float | None = None
    clamp: float | None = None

    def __post_init__(self):
        for name in ("t", "clamp"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a number, not bool")
        # at t = inf not even a diagonal pair is equal (0 < 1/inf is false)
        if self.t is not None and not 0 < self.t < np.inf:
            raise ValueError("t must be positive and finite")
        if self.clamp is not None and not self.clamp > 0:
            raise ValueError("clamp must be positive")

    def resolve(self, real_dtype) -> tuple[float, float]:
        """(t, clamp) in float32, or else in float64; the clamp is capped at
        that dtype's largest value, which is what the backward clamps at."""
        single = np.dtype(real_dtype) == np.dtype(np.float32)
        t = self.t if self.t is not None else (1e30 if single else 1e300)
        cap = float(np.finfo(np.float32 if single else np.float64).max)
        clamp = cap if self.clamp is None else min(self.clamp, cap)
        return float(t), float(clamp)


@dataclass(frozen=True)
class GradMode:
    """Backward-mode selector plus its parameters. A bool clip_value, or a
    taylor_k that is not an integer, raises TypeError."""

    variant: str
    clip_value: float = 1e16
    taylor_k: int = 9
    stability: StabilityParams = field(default_factory=StabilityParams)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {_VARIANTS}")
        if isinstance(self.clip_value, bool):
            raise TypeError("clip_value must be a number, not bool")
        if isinstance(self.taylor_k, bool) or not isinstance(self.taylor_k, (int, np.integer)):
            raise TypeError(f"taylor_k must be an integer, got {self.taylor_k!r}")
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


def _as_modes(mode) -> tuple[GradMode, ...]:
    """A backward's `mode` argument as a tuple of modes: a lone GradMode is a
    one-mode tuple. Anything but a GradMode or a sequence of them raises
    TypeError, an empty sequence ValueError."""
    if isinstance(mode, GradMode):
        return (mode,)
    # the tuple a backward hands its VJPs
    if type(mode) is tuple and mode and all(isinstance(m, GradMode) for m in mode):
        return mode
    if isinstance(mode, str) or not isinstance(mode, Sequence) or not all(isinstance(m, GradMode) for m in mode):
        raise TypeError(f"mode must be a GradMode or a sequence of them, got {mode!r}")
    if not mode:
        raise ValueError("backward needs at least one mode")
    return tuple(mode)


class AuxMatrices(NamedTuple):
    """FS, T (real k×k) and the singular-value pseudoinverse vector.

    FS_ij = F_ij * sigma_j; since F is antisymmetric, sigma_i * F_ij = -FS_ji.
    F itself is never formed (see the module docstring).
    """

    FS: np.ndarray
    T: np.ndarray
    s_pinv: np.ndarray


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
# the classification and the mode's arithmetic divide by zero, overflow and
# underflow by design on degenerate spectra; the results are then clamped
# or propagated as the mode says
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore", "under": "ignore"}
# the products and sums of svd_vjp divide nothing, but a non-finite FS or
# cotangent makes them overflow or go invalid, as exact propagates it
_ARITHMETIC = {"invalid": "ignore", "over": "ignore", "under": "ignore"}
# a spectrum whose largest value is above half its dtype's largest value may
# overflow in sigma_j + sigma_i
_HALF_MAX = {dt: np.finfo(dt).max / 2 for dt in _FLOATS}


def _as_vector(s) -> np.ndarray:
    """s as an array, refused unless it is a vector (else ValueError) in
    float32 or float64 (else TypeError naming its dtype)."""
    s = np.asarray(s)
    if s.ndim != 1:
        raise ValueError(f"singular values must be a vector, got shape {s.shape}")
    if s.dtype not in _FLOATS:
        raise TypeError(f"singular values must be float32 or float64, got {s.dtype}")
    return s


def _any(mask) -> bool:
    """Whether any entry of the boolean array mask is set. The reductions
    of a lone spectrum give NumPy scalars, which np.count_nonzero would
    first convert to arrays."""
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) > 0


def _extremes(s: np.ndarray) -> tuple:
    """The smallest and largest value of each spectrum of the (..., k) stack
    s (inf and 0 when k = 0), refused unless every value is finite and
    nonnegative: the first spectrum that fails raises the ValueError its own
    call would give. NaN fails both comparisons and +inf the upper one, so a
    spectrum holding a non-finite value is reported as such even when it
    also holds a negative one."""
    lo, hi = s.min(axis=-1, initial=np.inf), s.max(axis=-1, initial=0)
    invalid = ~((lo >= 0) & (hi < np.inf))
    if _any(invalid):
        first = np.flatnonzero(invalid)[0]
        if not np.ravel(hi)[first] < np.inf or np.ravel(lo)[first] == -np.inf:
            raise ValueError("singular values contain non-finite entries")
        raise ValueError("singular values must be nonnegative")
    return lo, hi


def _classify(s: np.ndarray, t: float) -> tuple:
    """(lo, scale, diff, gap, equal) of the float32 or float64 (..., k)
    stack s, validated by `_extremes`: the part of the backward that does
    not depend on the mode. lo and the scale sigma_max (1 for an all-zero
    spectrum) have one entry per spectrum; diff[..., i, j] = sigma_j -
    sigma_i.

    gap[..., i, j] = (sigma_j^2 - sigma_i^2) / sigma_max^2, formed as
    ((sigma_j - sigma_i) / sigma_max) * ((sigma_j + sigma_i) / sigma_max) so
    that it is exactly antisymmetric and a pair one ulp apart keeps a nonzero
    gap at any scale (scaling s first would round such a pair into a tie).
    Where sigma_max is above half the dtype's largest value, the sum would
    overflow and is formed as sigma_j / sigma_max + sigma_i / sigma_max. A
    pair is equal when |gap| < 1/t. The arithmetic underflows on tiny
    spectra, so callers run it under np.errstate.
    """
    lo, hi = _extremes(s)
    # adding the zero test keeps hi's dtype, and every nonzero hi exactly
    scale = hi + (hi == 0)
    pair_scale = scale[..., None, None]
    diff = s[..., None, :] - s[..., :, None]
    sums = (s[..., None, :] + s[..., :, None]) / pair_scale
    big = hi > _HALF_MAX[s.dtype]
    if _any(big):
        rel = s / scale[..., None]
        sums = np.where(big[..., None, None], rel[..., None, :] + rel[..., :, None], sums)
    gap = (diff / pair_scale) * sums
    # comparison in float64 so that 1/t cannot underflow in a float32 run
    equal = np.abs(gap).astype(np.float64, copy=False) < 1.0 / float(t)
    return lo, scale, diff, gap, equal


def classify_pairs(s, t: float) -> np.ndarray:
    """Symmetric k×k grid of pair labels {UNEQUAL, EQUAL_NONZERO, EQUAL_ZERO}.

    A pair is equal when |sigma_j^2 - sigma_i^2| < sigma_max^2 / t
    (strictly), so the labels do not depend on the scale of the spectrum; an
    equal pair is EQUAL_ZERO only when both values are exactly zero. Diagonal
    entries are labelled like any other equal pair. The spectrum is checked
    and classified as `build_aux` does it: it must be a float32 or float64
    vector; t must be positive and finite, and a bool t raises TypeError.
    """
    if isinstance(t, bool):
        raise TypeError("t must be a number, not bool")
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    s = _as_vector(s)
    with np.errstate(**_QUIET):
        equal = _classify(s, t)[4]
    both_zero = (s[:, None] == 0) & (s[None, :] == 0)
    labels = np.full(equal.shape, UNEQUAL, dtype=np.int8)
    labels[equal] = EQUAL_NONZERO
    labels[equal & both_zero] = EQUAL_ZERO
    return labels


def _clamp_nonfinite(x: np.ndarray, clamp: float) -> np.ndarray:
    """x with each +-inf replaced by +-clamp; x itself when all finite."""
    finite = np.isfinite(x)
    if np.count_nonzero(finite) == x.size:
        return x
    return np.where(finite, x, np.copysign(clamp, x))


@functools.lru_cache(maxsize=64)
def _limits(stability: StabilityParams, rdt: np.dtype) -> tuple[float, float]:
    """`stability.resolve(rdt)`, cached."""
    return stability.resolve(rdt)


def _aux_terms(s: np.ndarray, mode: GradMode, classes: dict | None = None) -> tuple:
    """FS, T and s_pinv of the float32 or float64 (..., k) stack s, or of
    one spectrum, for one mode: the arrays `build_aux` returns, formed in
    one vectorised pass over the stack. The pairs are classified, and s
    validated, by `_classify(s, t)` at the mode's resolved t. `classes`
    maps a resolved t to that classification of s: a t it holds is not
    classified again, and a new one is added, so modes whose t resolves
    alike share one (this call only reads it). Callers run it under
    np.errstate, as for `_classify`.

    FS is formed from the mode's relative F (sigma_max^2 F) as
    F_rel_ij * (sigma_j / sigma_max) / sigma_max. tf, clip and inv take
    1/gap with the classified-equal pairs zeroed. exact takes 1/gap with
    the diagonal zeroed and, wherever a spectrum holds a zero, the pairs of
    two exact zeros (the definition's zero branch); every other degenerate
    pair divides unprotected. taylor takes the degree-K series, which
    ignores the classification. The safeguarded modes clamp every +-inf of
    the relative F, of FS and of 1/s at the clamp; the relative F overflows
    where 1/gap exceeds the range (t above it, or the series'
    1/(sigma_hi/sigma_max)^2), and is clamped before FS is formed so that
    it cannot meet a zero sigma as inf * 0. exact clamps nothing.

    Then the fixes at ties and zeros, in this order. In `inv` mode T takes
    the clamped 1/s, T_ij = 1/sigma_j, on every pair off the diagonal that
    is classified equal, unless both values are exactly zero (one masked
    copy; T is zero elsewhere). s_pinv is 1/s, clamped, with 0 at each
    exact zero (one masked assignment). Every diagonal pair is classified
    equal, so T is filled only when the stack holds more equal pairs than
    diagonal entries, and the zero masks are formed only when a value is
    zero.
    """
    t, clamp = _limits(mode.stability, s.dtype)
    classes = {} if classes is None else classes
    if t not in classes:
        classes[t] = _classify(s, t)
    lo, scale, diff, gap, equal = classes[t]
    dt = s.dtype.type
    k = s.shape[-1]
    safe = mode.variant != "exact"
    # the exact zeros, None when no value is zero
    zero = s == 0 if _any(lo == 0) else None
    if mode.variant == "taylor":
        F_rel = _taylor_relative(s, scale, diff, mode.taylor_k)
    else:
        F_rel = dt(1) / gap
        if safe:
            F_rel[equal] = 0
        else:
            if zero is not None:
                F_rel[zero[..., :, None] & zero[..., None, :]] = 0
            # F_rel is fresh and contiguous, so this is a view of its diagonals
            F_rel.reshape(*F_rel.shape[:-2], k * k)[..., :: k + 1] = 0
    s_pinv = dt(1) / s
    if safe:
        F_rel = _clamp_nonfinite(F_rel, clamp)
        s_pinv = np.minimum(s_pinv, clamp)
    # F_rel is fresh, clamped or not, so FS is formed in it
    FS = F_rel
    pair_scale = scale[..., None, None]
    FS *= s[..., None, :] / pair_scale
    FS /= pair_scale
    if mode.variant == "clip":
        # clip_value is a value of F itself, zero at an exact tie
        np.copyto(FS, np.sign(diff) * dt(mode.clip_value) * s[..., None, :], where=equal)
    if safe:
        FS = _clamp_nonfinite(FS, clamp)
    T = np.zeros((*s.shape, k), dtype=s.dtype)
    if mode.variant == "inv" and np.count_nonzero(equal) > s.size:
        # a fresh mask, not the shared one, so its diagonals are cleared as
        # a view, as F_rel's are; T reads s_pinv before its zeros are set
        fill = equal.copy() if zero is None else equal & ~(zero[..., :, None] & zero[..., None, :])
        fill.reshape(*fill.shape[:-2], k * k)[..., :: k + 1] = False
        np.copyto(T, s_pinv[..., None, :], where=fill)
    if zero is not None:
        s_pinv[zero] = 0
    return FS, T, s_pinv


def build_aux(s, mode: GradMode, *, pairs=None) -> AuxMatrices:
    """Construct FS, T and s_pinv of one spectrum for one backward mode.

    s is one spectrum, never a stack: a float32 or float64 vector, in whose
    dtype everything is computed, so a float32 benchmark faithfully
    reproduces float32 gap rounding. Any other dtype raises TypeError
    naming it, and anything but a vector ValueError "vector". s is
    validated by one min and one max reduction, the checks and messages
    `classify_pairs` uses: a value that is NaN or infinite raises
    ValueError "non-finite" (also beside a negative value), a negative one
    "nonnegative". The same two values give sigma_max and whether any value
    is exactly zero. FS = F_ij * sigma_j is formed from the relative F
    (sigma_max^2 times F) with exact antisymmetry in every mode and never
    passes through F alone, which overflows float32 on spectra near 1e-18.
    In the safeguarded modes any entry of FS, T or s_pinv that overflows is
    clamped; an overflowing relative F is clamped before FS is formed from
    it, so that it cannot meet a zero sigma as inf * 0.

    All of it is formed by `_aux_terms`, in one pass over a stack of
    spectra or over this one. `svd_vjp` runs that pass once per stack and
    passes each spectrum's row as `pairs`: the tuple (FS, T, s_pinv) of
    that spectrum's views of the stack's arrays, with s already validated.
    This call then does no array work: it returns the row's arrays, not
    copies. Without `pairs` the spectrum is checked, and its row formed,
    here through the same pass.

    Every intermediate is k×k or smaller: the degree-K Taylor series is
    summed in place, and the pair masks of exact zeros are formed only when
    a value is zero. FS and T are k×k and s_pinv a k-vector in s's dtype;
    T is filled only in `inv` mode when a pair off the diagonal is
    classified equal.
    """
    if pairs is None:
        s = _as_vector(s)
        with np.errstate(**_QUIET):
            pairs = _aux_terms(s, mode)
    FS, T, s_pinv = pairs
    return AuxMatrices(FS=FS, T=T, s_pinv=s_pinv)


def _taylor_relative(s: np.ndarray, scale, diff: np.ndarray, K: int) -> np.ndarray:
    """Truncated-series approximation of the relative F (sigma_max^2 * F)
    of each spectrum of the (..., k) stack s.

    For sigma_hi > sigma_lo the exact 1/(sigma_lo^2 - sigma_hi^2) equals
    -(1/sigma_hi^2) * sum_{p>=0} (sigma_lo/sigma_hi)^(2p); the degree-K
    truncation of that series is used, with value 0 when the pair is exactly
    equal (or both zero). The series ignores the equal-pair classification.
    The sum runs in place in the order 1 + r + r^2 + ... + r^K, each power
    the previous one times r.
    """
    hi = np.maximum(s[..., :, None], s[..., None, :])
    ratio = np.minimum(s[..., :, None], s[..., None, :])
    ratio /= hi
    np.square(ratio, out=ratio)
    series = ratio + 1
    term = ratio.copy()
    for _ in range(K - 1):
        term *= ratio
        series += term
    # divided by h^2, h = sigma_hi / sigma_max
    hi /= scale[..., None, None]
    hi *= hi
    series /= hi
    # a pair of equal values (two zeros included) takes the value 0; the
    # exact F has sign(sigma_j^2 - sigma_i^2)
    series[diff == 0] = 0
    series *= np.sign(diff)
    return series


def _diag(v: np.ndarray) -> np.ndarray:
    """Matrices with v (..., k) on the diagonal and exact zeros elsewhere."""
    k = v.shape[-1]
    out = np.zeros((*v.shape, k), dtype=v.dtype)
    out[..., np.arange(k), np.arange(k)] = v
    return out


def _stacked_aux(s: np.ndarray, mode: GradMode, classes: dict | None = None) -> tuple:
    """FS, T and s_pinv of every spectrum of the (..., k) stack s, formed
    by `_aux_terms` in one pass over the stack (`classes` as there). A lone
    spectrum is its own row.

    build_aux still runs once per spectrum, on that spectrum's row of
    views, for the benchmark tracer only (see `svd_vjp`): it does no array
    work.
    """
    k = s.shape[-1]
    spectra = s if s.ndim == 1 else s.reshape(-1, k)
    with np.errstate(**_QUIET):
        FS, T, s_pinv = _aux_terms(spectra, mode, classes)
    if s.ndim == 1:
        build_aux(s, mode, pairs=(FS, T, s_pinv))
        return FS, T, s_pinv
    for si, *row in zip(spectra, FS, T, s_pinv):
        build_aux(si, mode, pairs=row)
    return FS.reshape(*s.shape, k), T.reshape(*s.shape, k), s_pinv.reshape(s.shape)


class SvdPullback(NamedTuple):
    """The part of `svd_vjp` that no mode changes, for one set of factors
    and cotangents; `_pullback` forms it.

    With P = U^H Ubar and Q = V^H Vbar it holds U, s, Vh = V^H, P, the
    brackets br_u = P - P^H and br_v = Q - Q^H, sbar_diag = diag(sbar) in
    U's dtype, the projection residuals res_u = Ubar - U P and res_vh =
    (Vbar - V Q)^H, and for complex input the gauge vector
    (Im diag P - Im diag Q) / 2 (None for real input). Two more parts are
    shared by the modes that agree on one setting, and each is formed by
    the first `svd_vjp` call that asks for it: `classes` maps each resolved
    t to the spectra's pair classification, and `projections` maps each
    resolved clamp to the two projection terms (res_u * s_pinv) @ Vh and
    (U * s_pinv) @ res_vh, which read the modes' s_pinv and nothing else of
    the mode. s_pinv is min(1/s, clamp) with 0 at the exact zeros in every
    safeguarded mode; `exact` does not clamp, so its terms are keyed None.
    """

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    P: np.ndarray
    br_u: np.ndarray
    br_v: np.ndarray
    sbar_diag: np.ndarray
    res_u: np.ndarray
    res_vh: np.ndarray
    gauge: np.ndarray | None
    classes: dict
    projections: dict


def _pullback(factors, Ubar, sbar, Vbar) -> SvdPullback:
    """Check factors and cotangents as `svd_vjp` states, and form the terms
    of its result that no mode changes; callers run it under np.errstate."""
    U, s, V = ensure_matrix(factors.U, "U"), factors.s, ensure_matrix(factors.V, "V")
    *stack, m, k = U.shape
    n = V.shape[-2]
    if s.shape != (*stack, k) or V.shape != (*stack, n, k):
        raise ValueError(f"factor shapes U {U.shape}, s {s.shape}, V {V.shape} do not agree")
    rdt = real_dtype_of(U.dtype)
    if s.dtype != rdt or V.dtype != U.dtype:
        raise TypeError(f"factor dtypes U {U.dtype}, s {s.dtype}, V {V.dtype} do not agree")

    if Ubar is None:
        Ubar = np.zeros((*stack, m, k), dtype=U.dtype)
    if Vbar is None:
        Vbar = np.zeros((*stack, n, k), dtype=U.dtype)
    Ubar = ensure_matrix(Ubar, "Ubar")
    Vbar = ensure_matrix(Vbar, "Vbar")
    sbar = np.zeros((*stack, k), dtype=rdt) if sbar is None else np.asarray(sbar)
    if (Ubar.shape, sbar.shape, Vbar.shape) != ((*stack, m, k), (*stack, k), (*stack, n, k)):
        raise ValueError(
            f"cotangent shapes {Ubar.shape}/{sbar.shape}/{Vbar.shape} do not "
            f"conform to factors of a {(*stack, m, n)} input"
        )
    for name, bar, dtype in (("Ubar", Ubar, U.dtype), ("sbar", sbar, rdt), ("Vbar", Vbar, U.dtype)):
        if bar.dtype != dtype:
            raise TypeError(f"cotangent {name} is {bar.dtype}, not the factors' {dtype}")

    P = _ct(U) @ Ubar                         # U^H Ubar
    Q = _ct(V) @ Vbar                         # V^H Vbar
    gauge = None
    if np.iscomplexobj(U):
        diag_p = np.diagonal(P, axis1=-2, axis2=-1)
        diag_q = np.diagonal(Q, axis1=-2, axis2=-1)
        gauge = 0.5 * (np.imag(diag_p) - np.imag(diag_q))
    return SvdPullback(
        U=U,
        s=s,
        Vh=_ct(V),
        P=P,
        br_u=P - _ct(P),
        br_v=Q - _ct(Q),
        sbar_diag=_diag(sbar).astype(U.dtype),
        res_u=Ubar - U @ P,
        res_vh=_ct(Vbar - V @ Q),
        gauge=gauge,
        classes={},
        projections={},
    )


def svd_vjp(factors, Ubar, sbar, Vbar, mode: GradMode, *, pullback: SvdPullback | None = None) -> np.ndarray:
    """Pull factor cotangents (Ubar, sbar, Vbar) back to the input matrix.

    Computed as

      Abar = U [ (F o [U^H Ubar - Ubar^H U]) S + T o (U^H Ubar)
                 + diag(sbar) + S (F o [V^H Vbar - Vbar^H V]) ] V^H
             + (I - U U^H) Ubar diag(s_pinv) V^H
             + U diag(s_pinv) Vbar^H (I - V V^H)

    under the convention dL = Re tr(Abar^H dA). For complex input the
    per-column phase freedom (u_j, v_j) -> (e^{i t} u_j, e^{i t} v_j) adds

      + U diag( i (Im diag(U^H Ubar) - Im diag(V^H Vbar)) / 2 * s_pinv ) V^H,

    exact whenever the loss is invariant to that phase choice (any loss that
    reads the factors only through a reconstruction). Mode `exact` may return
    non-finite entries (propagated, never masked); every other mode returns
    finite output for finite input.

    The factors give the input's shape and dtype: U (..., m, k), s (..., k)
    and V (..., n, k) share their leading axes (else ValueError); V is in
    U's dtype and s in its real dtype (else TypeError), and so are Ubar,
    Vbar and sbar (else TypeError naming it); None is a zero cotangent. On
    a stack each matrix's gradient is bit-identical to its own 2-D call.

    Everything above except F, T and s_pinv is the same in every mode
    (`SvdPullback`), and so are the pair classification at a given t and
    both projection terms at a given clamp. `pullback`, when given, holds
    those terms for these factors and cotangents, which are then not read
    again, and keeps the classification and the projection terms that this
    call forms for the calls after it; `_svd_vjps` shares one among several
    modes' calls. Without it the call forms its own. A shared term is the
    array the call would form, so each result is bit-identical to its own
    call's.

    The call takes one GradMode (else TypeError) and returns one array, so
    that the benchmark tracer can read each mode's variant and result off
    its own call. On a stack the spectra are validated, their pairs
    classified, and FS, T and s_pinv formed, clamped and fixed at ties and
    zeros in one pass per stack (`_aux_terms`); the first spectrum that
    fails raises its own 2-D call's error. `build_aux` still runs once per
    spectrum, on that spectrum's row of views, and does no array work: the
    benchmark tracer's pair-count hook passes every s that reaches
    `build_aux` to `classify_pairs` as one spectrum, and `classify_pairs`
    refuses a stack, so one call per stack waits for a tracer that counts
    a stack's pairs.
    """
    if not isinstance(mode, GradMode):
        raise TypeError(f"svd_vjp takes one GradMode, got {mode!r}")
    with np.errstate(**_ARITHMETIC):
        pb = _pullback(factors, Ubar, sbar, Vbar) if pullback is None else pullback
        FS, T, s_pinv_r = _stacked_aux(pb.s, mode, pb.classes)
        dtype = pb.U.dtype
        FS = FS.astype(dtype, copy=False)
        T = T.astype(dtype, copy=False)
        s_pinv = s_pinv_r.astype(dtype, copy=False)[..., None, :]
        core = FS * pb.br_u                          # (F o br_u) S
        core = core + T * pb.P
        core = core + pb.sbar_diag
        core = core - FS.swapaxes(-1, -2) * pb.br_v  # S (F o br_v)
        if pb.gauge is not None:
            core = core + 1j * _diag(pb.gauge * s_pinv_r).astype(dtype)
        Abar = pb.U @ core @ pb.Vh
        # s_pinv differs between modes only by the clamp, which exact does
        # not apply; a pullback formed by this call is shared with no other
        key = None if pullback is None or mode.variant == "exact" else _limits(mode.stability, pb.s.dtype)[1]
        terms = pb.projections.get(key)
        if terms is None:
            terms = pb.projections[key] = ((pb.res_u * s_pinv) @ pb.Vh, (pb.U * s_pinv) @ pb.res_vh)
        Abar = Abar + terms[0]
        Abar = Abar + terms[1]
    return Abar


def _svd_vjps(factors, Ubar, sbar, Vbar, modes: tuple) -> list:
    """`svd_vjp` of these factors and cotangents under each of modes, in
    order, each bit-identical to that mode's own call.

    This is where the modes of one backward share an SVD node: the checks
    and the terms no mode changes (`SvdPullback`: U^H Ubar, V^H Vbar, both
    brackets, both projection residuals, the gauge vector) are formed once,
    the pairs are classified once per distinct t, both projection terms are
    formed once per distinct clamp, and `svd_vjp` runs once per mode on
    them, so that the benchmark tracer sees one call per mode.
    """
    with np.errstate(**_ARITHMETIC):
        pullback = _pullback(factors, Ubar, sbar, Vbar)
    return [svd_vjp(factors, Ubar, sbar, Vbar, m, pullback=pullback) for m in modes]
