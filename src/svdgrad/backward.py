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
zero sigma).

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
        """(t, clamp) in float32, or else in float64; the clamp is capped at
        that dtype's largest value, which is what the backward clamps at."""
        single = np.dtype(real_dtype) == np.dtype(np.float32)
        t = self.t if self.t is not None else (1e30 if single else 1e300)
        cap = float(np.finfo(np.float32 if single else np.float64).max)
        clamp = cap if self.clamp is None else min(self.clamp, cap)
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
    """FS, T (real k×k) and the singular-value pseudoinverse vector.

    FS_ij = F_ij * sigma_j; since F is antisymmetric, sigma_i * F_ij = -FS_ji.
    F itself is never formed (see the module docstring).
    """

    FS: np.ndarray
    T: np.ndarray
    s_pinv: np.ndarray


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
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


def _extremes(s: np.ndarray) -> tuple:
    """The smallest and largest value of each spectrum of the (..., k) stack
    s (inf and 0 when k = 0), refused unless every value is finite and
    nonnegative: the first spectrum that fails raises the ValueError its own
    call would give. NaN fails both comparisons and +inf the upper one, so a
    spectrum holding a non-finite value is reported as such even when it
    also holds a negative one."""
    lo, hi = s.min(axis=-1, initial=np.inf), s.max(axis=-1, initial=0)
    valid = (lo >= 0) & (hi < np.inf)
    if np.count_nonzero(valid) < valid.size:
        first = np.flatnonzero(~valid)[0]
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
    if np.count_nonzero(big):
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
    vector; t must be positive.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    s = _as_vector(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        equal = _classify(s, t)[4]
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


@functools.lru_cache(maxsize=64)
def _limits(stability: StabilityParams, rdt: np.dtype) -> tuple[float, float]:
    """`stability.resolve(rdt)`, cached."""
    return stability.resolve(rdt)


def _form_fs(F_rel: np.ndarray, s_rel: np.ndarray, scale, clip_fs, equal) -> np.ndarray:
    """FS_ij = F_rel_ij * (sigma_j / sigma_max) / sigma_max, with clip's
    values put in on the equal pairs."""
    FS = F_rel * s_rel
    FS /= scale
    if clip_fs is not None:
        np.copyto(FS, clip_fs, where=equal)
    return FS


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

    The pair classification (sigma_max, the differences, the relative gaps
    and the equal mask) does not depend on the mode. `svd_vjp` runs it once
    per stack and passes each spectrum's row as `pairs`, the tuple
    (lo, scale, diff, gap, equal) of that row, with s already validated;
    this call then does only the mode's work. Without `pairs` the spectrum
    is checked and classified here, in every mode.

    Every intermediate is k×k or smaller: the degree-K Taylor series is
    summed in place, and the pair masks of exact zeros are formed only when
    a value is zero. The returned FS and T are fresh k×k arrays and s_pinv a
    fresh k-vector in s's dtype; a run that overflows FS forms it a
    second time, and T is filled only in `inv` mode when a pair off the
    diagonal is classified equal. Nothing in `pairs` is written to.
    """
    if pairs is None:
        s = _as_vector(s)
    rdt = s.dtype
    k = s.shape[0]
    t, clamp = _limits(mode.stability, rdt)
    variant = mode.variant
    safe = variant != "exact"
    one = rdt.type(1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        lo, scale, diff, gap, equal = _classify(s, t) if pairs is None else pairs
        # the exact zeros, None when no value is zero
        zero = s == 0 if lo == 0 else None
        if variant == "taylor":
            F_rel = _taylor_relative(s, scale, diff, mode.taylor_k)
        else:
            F_rel = one / gap
            if safe:
                # tf, clip and inv divide only on unequal pairs
                F_rel[equal] = 0
            else:
                # a pair of exact zeros takes the definition's zero branch;
                # every other degenerate pair divides unprotected
                if zero is not None:
                    F_rel[zero[:, None] & zero[None, :]] = 0
                np.fill_diagonal(F_rel, 0)

        s_rel = s / scale
        # clip_value is a value of F itself, zero at an exact tie
        clip_fs = np.sign(diff) * rdt.type(mode.clip_value) * s if variant == "clip" else None
        FS = _form_fs(F_rel, s_rel, scale, clip_fs, equal)
        if safe and np.count_nonzero(np.isfinite(FS)) < FS.size:
            # F_rel overflows where 1/gap exceeds the range (t above it, or
            # the series' 1/(sigma_hi/sigma_max)^2), and every such entry
            # leaves inf, or NaN against a zero sigma, in FS. Then F_rel is
            # clamped before FS is formed again, and FS is clamped.
            FS = _form_fs(_clamp_nonfinite(F_rel, clamp), s_rel, scale, clip_fs, equal)
            FS = _clamp_nonfinite(FS, clamp)

        recip = one / s
        if safe:
            np.minimum(recip, clamp, out=recip)
        T = np.zeros((k, k), dtype=rdt)
        # only a classified-equal pair off the diagonal fills T; every
        # diagonal pair is classified equal
        if variant == "inv" and np.count_nonzero(equal) > k:
            # each such pair, unless both values are zero
            fill = equal.copy() if zero is None else equal & ~(zero[:, None] & zero[None, :])
            np.fill_diagonal(fill, False)
            np.copyto(T, recip, where=fill)
        s_pinv = recip
        if zero is not None:
            s_pinv[zero] = 0

    return AuxMatrices(FS=FS, T=T, s_pinv=s_pinv)


def _taylor_relative(s: np.ndarray, scale, diff: np.ndarray, K: int) -> np.ndarray:
    """Truncated-series approximation of the relative F (sigma_max^2 * F).

    For sigma_hi > sigma_lo the exact 1/(sigma_lo^2 - sigma_hi^2) equals
    -(1/sigma_hi^2) * sum_{p>=0} (sigma_lo/sigma_hi)^(2p); the degree-K
    truncation of that series is used, with value 0 when the pair is exactly
    equal (or both zero). The series ignores the equal-pair classification.
    The sum runs in place in the order 1 + r + r^2 + ... + r^K, each power
    the previous one times r.
    """
    hi = np.maximum(s[:, None], s[None, :])
    ratio = np.minimum(s[:, None], s[None, :])
    ratio /= hi
    np.square(ratio, out=ratio)
    series = ratio + 1
    term = ratio.copy()
    for _ in range(K - 1):
        term *= ratio
        series += term
    # divided by h^2, h = sigma_hi / sigma_max
    hi /= scale
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


def _stacked_aux(s: np.ndarray, mode: GradMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FS, T and s_pinv of every spectrum of the (..., k) stack s.

    Per stack: one vectorised pass validates every spectrum (the first one
    that fails raises) and classifies its pairs (`_classify`). Per spectrum:
    build_aux takes that spectrum's row and does only the mode's work, and
    its arrays are written into preallocated (N, k, k) and (N, k) arrays.
    build_aux stays per spectrum for the benchmark tracer (see `svd_vjp`).
    A lone spectrum goes to build_aux as it is: it classifies the spectrum
    inline, which spares a lone matrix's backward the stack's copies.
    """
    if s.ndim == 1:
        aux = build_aux(s, mode)
        return aux.FS, aux.T, aux.s_pinv
    k = s.shape[-1]
    spectra = s.reshape(-1, k)
    t = _limits(mode.stability, spectra.dtype)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        pairs = _classify(spectra, t)
    FS = np.empty((len(spectra), k, k), dtype=spectra.dtype)
    T = np.empty_like(FS)
    s_pinv = np.empty((len(spectra), k), dtype=spectra.dtype)
    for i, (si, *row) in enumerate(zip(spectra, *pairs)):
        aux = build_aux(si, mode, pairs=row)
        FS[i], T[i], s_pinv[i] = aux.FS, aux.T, aux.s_pinv
    return FS.reshape(*s.shape, k), T.reshape(*s.shape, k), s_pinv.reshape(s.shape)


def svd_vjp(factors, Ubar, sbar, Vbar, mode: GradMode) -> np.ndarray:
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
    On a stack the spectra are validated, and their pairs classified, once
    per stack; the first spectrum that fails raises its own 2-D call's
    error. `build_aux` still runs once per spectrum for the mode's work:
    the benchmark tracer's pair-count hook passes every s that reaches
    `build_aux` to `classify_pairs` as one spectrum, and `classify_pairs`
    refuses a stack, so one call per stack waits for a tracer that counts a
    stack's pairs.
    """
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

    FS, T, s_pinv_r = _stacked_aux(s, mode)
    FS = FS.astype(U.dtype, copy=False)
    T = T.astype(U.dtype, copy=False)
    s_pinv = s_pinv_r.astype(U.dtype, copy=False)[..., None, :]

    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        P = _ct(U) @ Ubar                         # U^H Ubar
        Q = _ct(V) @ Vbar                         # V^H Vbar
        br_u = P - _ct(P)
        br_v = Q - _ct(Q)
        core = FS * br_u                          # (F o br_u) S
        core = core + T * P
        core = core + _diag(sbar).astype(U.dtype)
        core = core - FS.swapaxes(-1, -2) * br_v  # S (F o br_v)
        if np.iscomplexobj(U):
            diag_p = np.diagonal(P, axis1=-2, axis2=-1)
            diag_q = np.diagonal(Q, axis1=-2, axis2=-1)
            gauge = 0.5 * (np.imag(diag_p) - np.imag(diag_q))
            core = core + 1j * _diag(gauge * s_pinv_r).astype(U.dtype)
        Vh = _ct(V)
        Abar = U @ core @ Vh
        Abar = Abar + ((Ubar - U @ P) * s_pinv) @ Vh
        Abar = Abar + (U * s_pinv) @ _ct(Vbar - V @ Q)
    return Abar
