"""Pair classification, auxiliary matrices, and the svd_vjp formula."""

import numpy as np
import pytest

from svdgrad import (
    GradMode,
    StabilityParams,
    build_aux,
    classify_pairs,
    svd,
    svd_vjp,
)
from svdgrad.backward import EQUAL_NONZERO, EQUAL_ZERO, UNEQUAL
from svdgrad.svt import ThresholdSpec, svt

from oracles import build_aux_reference, finite_difference_loop, jacobi_svd

ALL_MODES = [GradMode.exact(), GradMode.tf(), GradMode.clip(), GradMode.taylor(), GradMode.inv()]
SAFE_MODES = ALL_MODES[1:]


def _random(rng, shape, dtype=np.float64):
    a = rng.standard_normal(shape)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        a = a + 1j * rng.standard_normal(shape)
    return a.astype(dtype)


# -- classification -----------------------------------------------------------


def test_classify_mixed_spectrum():
    labels = classify_pairs(np.array([3.0, 2.0, 0.0, 0.0]), t=1e300)
    assert labels[0, 1] == UNEQUAL
    assert labels[0, 2] == UNEQUAL
    assert labels[2, 3] == EQUAL_ZERO
    assert labels[2, 2] == EQUAL_ZERO
    assert np.array_equal(labels, labels.T)


def test_classify_equal_nonzero_pair():
    labels = classify_pairs(np.array([1.5, 1.5]), t=1e300)
    assert labels[0, 1] == EQUAL_NONZERO
    assert labels[1, 0] == EQUAL_NONZERO


def test_classify_boundary_is_strict():
    # |s0^2 - s1^2| = 2/t sits above the threshold, so the pair stays unequal
    t = 1e10
    s0 = 1.0
    s1 = np.sqrt(s0**2 + 2.0 / t)
    labels = classify_pairs(np.array([s1, s0]), t=t)
    assert labels[0, 1] == UNEQUAL


def test_classify_rejects_bad_spectra():
    with pytest.raises(ValueError):
        classify_pairs(np.array([1.0, -0.5]), t=1e30)
    with pytest.raises(ValueError):
        classify_pairs(np.array([np.nan, 1.0]), t=1e30)


# -- build_aux ----------------------------------------------------------------


def test_aux_inv_separated():
    aux = build_aux(np.array([3.0, 1.0]), GradMode.inv())
    # FS_ij = F_ij * sigma_j with F = [[0, -1/8], [1/8, 0]]
    assert np.array_equal(aux.FS, np.array([[0.0, -0.125], [0.375, 0.0]]))
    assert np.array_equal(aux.T, np.zeros((2, 2)))
    assert aux.s_pinv == pytest.approx([1 / 3, 1.0], rel=1e-15)


def test_aux_inv_equal_pair():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.inv())
    assert np.array_equal(aux.FS, np.zeros((2, 2)))
    assert np.array_equal(aux.T, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_aux_zero_spectrum():
    for mode in ALL_MODES:
        aux = build_aux(np.array([0.0, 0.0]), mode)
        assert np.array_equal(aux.FS, np.zeros((2, 2)))
        assert np.array_equal(aux.T, np.zeros((2, 2)))
        assert np.array_equal(aux.s_pinv, np.zeros(2))


def test_aux_taylor_truncation():
    # FS_ij = F_ij * sigma_j, sigma = (3, 1)
    aux = build_aux(np.array([3.0, 1.0]), GradMode.taylor(k=2))
    assert aux.FS[1, 0] == pytest.approx(3 * 91 / 729, rel=1e-14)
    # sigma_i F_ij = -FS_ji
    assert aux.FS[0, 1] * 3.0 == -aux.FS[1, 0]
    # higher degree converges toward the exact value F_10 = 1/8
    aux9 = build_aux(np.array([3.0, 1.0]), GradMode.taylor(k=40))
    assert aux9.FS[1, 0] == pytest.approx(3 * 0.125, rel=1e-14)


def test_aux_taylor_equal_pair_is_zero():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.taylor())
    assert np.array_equal(aux.FS, np.zeros((2, 2)))
    assert np.array_equal(aux.T, np.zeros((2, 2)))


def test_aux_modes_on_forced_equal_pair():
    # gap^2 ~ 6e-4, classified equal once 1/t exceeds it
    s = np.array([3.0, 2.9999])
    stab = StabilityParams(t=100.0)
    tf = build_aux(s, GradMode.tf(stability=stab))
    assert np.array_equal(tf.FS, np.zeros((2, 2)))
    assert np.array_equal(tf.T, np.zeros((2, 2)))
    clip = build_aux(s, GradMode.clip(clip_value=1e6, stability=stab))
    # F = sign(sigma_j - sigma_i) * 1e6, sigma_j < sigma_i for (0, 1); FS = F * sigma_j
    assert clip.FS[0, 1] == -1e6 * 2.9999
    assert clip.FS[1, 0] == 1e6 * 3.0
    inv = build_aux(s, GradMode.inv(stability=stab))
    assert np.array_equal(inv.FS, np.zeros((2, 2)))
    # T fills with the column reciprocal
    assert inv.T[0, 1] == pytest.approx(1 / 2.9999, rel=1e-15)
    assert inv.T[1, 0] == pytest.approx(1 / 3.0, rel=1e-15)
    exact = build_aux(s, GradMode.exact(stability=stab))
    assert exact.FS[0, 1] == pytest.approx(2.9999 / (2.9999**2 - 9.0), rel=1e-12)


def test_aux_clip_zero_at_exact_tie():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.clip())
    assert np.array_equal(aux.FS, np.zeros((2, 2)))


def test_aux_exact_mode_may_overflow():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.exact())
    assert not np.isfinite(aux.FS[0, 1])


def test_aux_antisymmetry_all_modes():
    rng = np.random.default_rng(11)
    for trial in range(30):
        s = np.sort(np.abs(rng.standard_normal(6)))[::-1]
        if trial % 3 == 0:
            s[2] = s[1]  # exact duplicate
        if trial % 4 == 0:
            s[-2:] = 0.0
        for mode in ALL_MODES:
            aux = build_aux(s.copy(), mode)
            if mode.variant == "exact" and not np.isfinite(aux.FS).all():
                continue
            # sigma_i FS_ij = sigma_i sigma_j F_ij is antisymmetric with F, up
            # to the roundings of forming FS and of the product
            P = aux.FS * s[:, None]
            np.testing.assert_allclose(P, -P.T, rtol=4 * np.finfo(float).eps, atol=0, err_msg=mode.variant)
            assert np.array_equal(np.diag(aux.FS), np.zeros(6))


def test_aux_finite_under_fuzz():
    rng = np.random.default_rng(12)
    for trial in range(200):
        k = int(rng.integers(1, 8))
        s = np.sort(np.abs(rng.standard_normal(k)))[::-1] * 10.0 ** rng.integers(-20, 4)
        if k > 1 and trial % 2 == 0:
            s[rng.integers(1, k)] = s[0]
            s = np.sort(s)[::-1]
        if trial % 3 == 0:
            s[k // 2 :] = 0.0
        for mode in SAFE_MODES:
            aux = build_aux(s.copy(), mode)
            assert np.isfinite(aux.FS).all(), (mode.variant, s)
            assert np.isfinite(aux.T).all(), (mode.variant, s)
            assert np.isfinite(aux.s_pinv).all(), (mode.variant, s)


def test_aux_finite_with_threshold_beyond_range():
    # t above float32 max lets 1/gap overflow on an unequal pair; the clamp
    # must keep FS finite and exact against the zero value
    s = np.array([1.0, 1e-21, 0.0], dtype=np.float32)
    for mode in SAFE_MODES:
        aux = build_aux(s, GradMode(mode.variant, stability=StabilityParams(t=1e45)))
        assert np.isfinite(aux.FS).all(), mode.variant
        assert aux.FS[1, 2] == 0, mode.variant


def test_aux_float32_defaults():
    t, clamp = StabilityParams().resolve(np.float32)
    assert t == 1e30
    assert clamp == float(np.finfo(np.float32).max)
    t64, clamp64 = StabilityParams().resolve(np.float64)
    assert t64 == 1e300
    assert clamp64 == float(np.finfo(np.float64).max)
    # a clamp beyond the precision's range resolves to its largest value,
    # the clamp the backward applies
    assert StabilityParams(clamp=1e300).resolve(np.float32)[1] == clamp
    assert StabilityParams(clamp=1e300).resolve(np.float64)[1] == 1e300
    # a tiny pair that is equal relative to sigma_max = 1: its squared gap
    # (~2e-35) is far below what float32 F could invert, yet it is classified
    # and compensated through T without leaving float32
    s = np.array([1.0, 1e-16 * (1 + 1e-3), 1e-16], dtype=np.float32)
    aux = build_aux(s, GradMode.inv())
    assert aux.FS.dtype == np.float32
    assert aux.FS[1, 2] == 0 and aux.FS[2, 1] == 0
    assert aux.T[1, 2] > 0
    # the same pair on its own is well separated: classification is
    # invariant to the scale of the spectrum
    lone = np.array([1e-16, 1e-16 * (1 + 1e-3)], dtype=np.float32)
    assert classify_pairs(lone, t)[0, 1] == UNEQUAL
    assert classify_pairs(lone / lone.max(), t)[0, 1] == UNEQUAL


def test_aux_rejects_bad_input():
    with pytest.raises(ValueError):
        build_aux(np.array([1.0, np.inf]), GradMode.inv())
    with pytest.raises(ValueError):
        build_aux(np.array([[1.0, 2.0]]), GradMode.inv())


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.longdouble, np.complex128, np.bool_])
def test_spectrum_in_another_dtype_is_refused(dtype):
    # only float32 and float64 spectra are taken, the real dtypes of the
    # matrices the library accepts; any other is refused, never cast
    s = np.array([3, 1, 0]).astype(dtype)
    needle = f"got {np.dtype(dtype)}$"
    for mode in ALL_MODES:
        with pytest.raises(TypeError, match=needle):
            build_aux(s, mode)
    with pytest.raises(TypeError, match=needle):
        classify_pairs(s, 1e30)


def test_classify_pairs_refuses_a_threshold_that_is_not_positive():
    # t = 0 used to divide by zero, and t = -1 or nan labelled even the
    # diagonal UNEQUAL
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="t must be positive"):
            classify_pairs(np.array([2.0, 1.0]), t)


def _oracle_spectra(rng):
    """Random spectra, exact ties, 1-ulp splits, zero tails, all-zero
    spectra and a zero beside values 1e-10 to 1e-30 of the largest, at
    scales 1e-45 to 1e5, unsorted now and then."""
    kinds = ("random", "tie", "ulp", "zero_tail", "all_zero", "tiny_and_zero")
    for trial in range(60):
        k = int(rng.integers(1, 9))
        s = np.abs(rng.standard_normal(k)) * 10.0 ** rng.uniform(-45, 5)
        kind = kinds[trial % len(kinds)]
        if kind == "tie" and k > 1:
            s[rng.integers(1, k)] = s[0]
        elif kind == "ulp" and k > 1:
            s[rng.integers(1, k)] = np.nextafter(s[0], np.inf)
        elif kind == "zero_tail":
            s[k // 2 :] = 0.0
        elif kind == "all_zero":
            s[:] = 0.0
        elif kind == "tiny_and_zero" and k > 1:
            # the relative F of a tiny pair overflows in float32 (t = 1e45,
            # taylor), so its clamp must come before FS meets the zero
            s[1:] *= 10.0 ** -rng.uniform(10, 30)
            s[-1] = 0.0
        yield s if trial % 7 == 0 else np.sort(s)[::-1]


def test_aux_bytes_match_reference():
    # build_aux forms FS, T and s_pinv in fewer passes than the reference;
    # every byte must agree
    stabilities = [
        StabilityParams(),
        StabilityParams(t=100.0),
        StabilityParams(t=1e45),  # beyond float32 range: 1/gap overflows
        StabilityParams(t=1e8, clamp=1e10),
        StabilityParams(clamp=3.0),
    ]
    modes = [GradMode.clip(clip_value=1e30)]
    for stab in stabilities:
        modes += [GradMode.exact(stab), GradMode.tf(stab), GradMode.clip(stability=stab), GradMode.inv(stab)]
        modes += [GradMode.taylor(k, stab) for k in (1, 3, 9, 40)]
    rng = np.random.default_rng(2024)
    checked = 0
    for s in _oracle_spectra(rng):
        for s_dtype in (np.float32, np.float64):
            spectrum = s.astype(s_dtype)
            for mode in modes:
                aux = build_aux(spectrum, mode)
                ref = build_aux_reference(spectrum, mode)
                for name, got, want in zip(("FS", "T", "s_pinv"), (aux.FS, aux.T, aux.s_pinv), ref):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, mode, spectrum)
                    assert got.tobytes() == want.tobytes(), (name, mode, s_dtype, spectrum)
                checked += 1
    assert checked == 60 * 2 * len(modes)


@pytest.mark.parametrize("check", [lambda s: build_aux(s, GradMode.inv()), lambda s: classify_pairs(s, 1e30)],
                         ids=["build_aux", "classify_pairs"])
@pytest.mark.parametrize("s,needle", [
    ([1.0, np.nan], "non-finite"),
    ([1.0, np.inf], "non-finite"),
    ([1.0, -np.inf], "non-finite"),
    ([1.0, -0.5], "nonnegative"),
    # a non-finite value is reported ahead of a negative one
    ([-0.5, np.nan, 1.0], "non-finite"),
    ([np.nan, -0.5], "non-finite"),
    ([np.inf, -0.5], "non-finite"),
    ([[1.0, 2.0]], "vector"),
    ([[np.nan, -1.0]], "vector"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_errors_and_their_order(check, s, needle):
    with pytest.raises(ValueError, match=needle):
        check(np.array(s))


def test_mode_constructor_validation():
    with pytest.raises(ValueError):
        GradMode("nope")
    with pytest.raises(ValueError):
        GradMode.clip(clip_value=0.0)
    with pytest.raises(ValueError):
        GradMode.taylor(k=0)
    with pytest.raises(ValueError):
        StabilityParams(t=-1.0)


# -- svd_vjp ------------------------------------------------------------------


def test_vjp_sum_singular_values_diagonal():
    A = np.diag([3.0, 2.0, 1.0])
    f = svd(A)
    for mode in ALL_MODES:
        Abar = svd_vjp(f, None, np.ones(3), None, mode)
        assert np.allclose(Abar, np.eye(3), atol=1e-14), mode.variant


def test_vjp_zero_cotangents():
    rng = np.random.default_rng(13)
    A = _random(rng, (5, 4))
    f = svd(A)
    Abar = svd_vjp(f, None, None, None, GradMode.inv())
    assert np.array_equal(Abar, np.zeros((5, 4)))


def test_vjp_linear_loss_recovers_cotangent():
    # L = Re tr(C^H U S V^H) = Re tr(C^H A), so the gradient must equal C
    rng = np.random.default_rng(14)
    for dtype in [np.float64, np.complex128]:
        A = _random(rng, (6, 4), dtype)
        C = _random(rng, (6, 4), dtype)
        f = svd(A)
        s_hat = f.s.astype(dtype)
        Ubar = (C @ f.V) * s_hat[None, :]
        Vbar = (C.conj().T @ f.U) * s_hat[None, :]
        sbar = np.real(np.einsum("ij,ij->j", f.U.conj(), C @ f.V))
        for mode in [GradMode.exact(), GradMode.inv()]:
            Abar = svd_vjp(f, Ubar, sbar, Vbar, mode)
            assert np.linalg.norm(Abar - C) <= 1e-12 * np.linalg.norm(C), (
                mode.variant,
                dtype,
            )


def test_vjp_fd_frobenius_squared():
    rng = np.random.default_rng(15)
    for dtype in [np.float64, np.complex128]:
        A = _random(rng, (5, 5), dtype)
        f = svd(A)
        # d ||A||_F^2 = d sum s_i^2 -> sbar = 2s, and the gradient is 2A
        Abar = svd_vjp(f, None, 2 * f.s, None, GradMode.inv())
        assert np.linalg.norm(Abar - 2 * A) <= 1e-10 * np.linalg.norm(A)
        fd = finite_difference_loop(lambda X: float(np.sum(np.linalg.svd(X, compute_uv=False) ** 2)), A)
        assert np.linalg.norm(Abar - fd) <= 1e-5 * np.linalg.norm(fd)


def test_vjp_fd_svt_l1():
    rng = np.random.default_rng(16)
    for dtype in [np.float64, np.complex128]:
        # distinct singular values, min gap well above the FD step
        n = 5
        s_target = np.array([4.0, 3.1, 2.3, 1.6, 0.9])
        if dtype == np.complex128:
            q1, _ = np.linalg.qr(_random(rng, (6, 6), dtype))
            q2, _ = np.linalg.qr(_random(rng, (n, n), dtype))
            A = (q1[:, :n] * s_target[None, :]) @ q2.conj().T
        else:
            q1, _ = np.linalg.qr(_random(rng, (6, 6), dtype))
            q2, _ = np.linalg.qr(_random(rng, (n, n), dtype))
            A = (q1[:, :n] * s_target[None, :]) @ q2.conj().T

        def loss(X):
            B, _, _ = svt(X, ThresholdSpec.soft(0.5))
            return float(np.abs(B).sum())

        f = svd(A)
        s_hat = np.maximum(f.s - 0.5, 0)
        B = f.reconstruct(s_hat)
        Bbar = np.sign(B) if dtype == np.float64 else B / np.abs(B)
        s_hat_d = s_hat.astype(dtype)
        Ubar = (Bbar @ f.V) * s_hat_d[None, :]
        Vbar = (Bbar.conj().T @ f.U) * s_hat_d[None, :]
        sbar = np.real(np.einsum("ij,ij->j", f.U.conj(), Bbar @ f.V)) * (f.s > 0.5)
        fd = finite_difference_loop(loss, A)
        for mode in [GradMode.exact(), GradMode.inv()]:
            Abar = svd_vjp(f, Ubar, sbar, Vbar, mode)
            rel = np.linalg.norm(Abar - fd) / np.linalg.norm(fd)
            assert rel <= 1e-5, (mode.variant, dtype, rel)


def test_vjp_fd_u_only_loss_real():
    # loss reads U directly; valid for real input where the sign gauge is
    # locally constant under perturbation
    rng = np.random.default_rng(17)
    A = _random(rng, (5, 4))
    W = _random(rng, (5, 4))

    def loss(X):
        from svdgrad.linalg import svd as lib_svd

        return float(np.sum(W * lib_svd(X).U))

    f = svd(A)
    fd = finite_difference_loop(loss, A)
    Abar = svd_vjp(f, W, None, None, GradMode.inv())
    assert np.linalg.norm(Abar - fd) <= 1e-5 * np.linalg.norm(fd)


def test_vjp_exact_and_inv_agree_on_separated_spectra():
    rng = np.random.default_rng(18)
    for _ in range(10):
        A = _random(rng, (6, 5))
        s = np.linalg.svd(A, compute_uv=False)
        if np.min(np.abs(np.diff(s))) < 0.1 or s[-1] < 0.1:
            continue
        f = svd(A)
        Ubar = _random(rng, (6, 5))
        Vbar = _random(rng, (5, 5))
        sbar = rng.standard_normal(5)
        g_exact = svd_vjp(f, Ubar, sbar, Vbar, GradMode.exact())
        g_inv = svd_vjp(f, Ubar, sbar, Vbar, GradMode.inv())
        assert np.linalg.norm(g_exact - g_inv) <= 1e-12 * np.linalg.norm(g_exact)


def test_vjp_exact_nonfinite_on_duplicates_safe_modes_finite():
    rng = np.random.default_rng(19)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = (q1 * np.array([3.0, 2.0, 2.0, 1.0, 0.0])[None, :]) @ q2.T
    f = svd(A)
    # feed the true (duplicated) spectrum so the gap is exactly zero
    f2 = type(f)(U=f.U, s=np.array([3.0, 2.0, 2.0, 1.0, 0.0]), V=f.V)
    Ubar = _random(rng, (5, 5))
    Vbar = _random(rng, (5, 5))
    sbar = rng.standard_normal(5)
    g = svd_vjp(f2, Ubar, sbar, Vbar, GradMode.exact())
    assert not np.isfinite(g).all()
    for mode in SAFE_MODES:
        g = svd_vjp(f2, Ubar, sbar, Vbar, mode)
        assert np.isfinite(g).all(), mode.variant


def test_vjp_gauge_term_complex_reconstruction():
    # complex input, loss through a reconstruction with a modified spectrum;
    # per-column phase freedom would corrupt the gradient without the
    # compensating imaginary diagonal
    rng = np.random.default_rng(20)
    A = _random(rng, (5, 5), np.complex128)
    C = _random(rng, (5, 5), np.complex128)
    tau = 0.4

    def loss(X):
        B, _, _ = svt(X, ThresholdSpec.soft(tau))
        return float(np.real(np.vdot(C, B)))

    f = svd(A)
    s_hat = np.maximum(f.s - tau, 0)
    s_hat_d = s_hat.astype(np.complex128)
    Ubar = (C @ f.V) * s_hat_d[None, :]
    Vbar = (C.conj().T @ f.U) * s_hat_d[None, :]
    sbar = np.real(np.einsum("ij,ij->j", f.U.conj(), C @ f.V)) * (f.s > tau)
    fd = finite_difference_loop(loss, A)
    Abar = svd_vjp(f, Ubar, sbar, Vbar, GradMode.inv())
    assert np.linalg.norm(Abar - fd) <= 1e-5 * np.linalg.norm(fd)


def test_vjp_shape_validation():
    rng = np.random.default_rng(21)
    A = _random(rng, (4, 3))
    f = svd(A)
    with pytest.raises(ValueError):
        svd_vjp(f, np.zeros((4, 4)), None, None, GradMode.inv())
    with pytest.raises(ValueError):
        svd_vjp(f, None, np.zeros(4), None, GradMode.inv())
    # a stack gives each matrix its own gradient, never their sum
    stack = np.stack([A, 2 * A])
    sbar = rng.standard_normal((2, 3))
    g = svd_vjp(svd(stack), None, sbar, None, GradMode.inv())
    assert g.shape == stack.shape
    for i in range(2):
        own = svd_vjp(svd(stack[i]), None, sbar[i], None, GradMode.inv())
        assert g[i].tobytes() == own.tobytes()
    # cotangents must carry the stack's leading axes
    with pytest.raises(ValueError):
        svd_vjp(svd(stack), None, sbar[0], None, GradMode.inv())


def test_vjp_refuses_factors_that_disagree():
    # the factors are the only source of the input's shape and dtype, so
    # factors that disagree with one another are refused by name
    from svdgrad.linalg import SvdFactors

    rng = np.random.default_rng(23)
    f = svd(_random(rng, (4, 3)))
    fs = svd(_random(rng, (2, 4, 3)))
    bad_shapes = [
        SvdFactors(U=f.U, s=f.s[:2], V=f.V),          # k of s
        SvdFactors(U=f.U, s=f.s, V=f.V[:, :2]),       # k of V
        SvdFactors(U=fs.U, s=fs.s[0], V=fs.V),        # leading axes of s
        SvdFactors(U=fs.U, s=fs.s, V=fs.V[0]),        # leading axes of V
        SvdFactors(U=fs.U, s=fs.s, V=fs.V[:1]),
    ]
    for bad in bad_shapes:
        with pytest.raises(ValueError, match="factor shapes"):
            svd_vjp(bad, None, np.ones(bad.s.shape), None, GradMode.inv())
    # s or V in another dtype than U: float32 U with float64 s, complex U
    # with float32 s, and a float32 or complex V beside a float64 U
    for bad in (SvdFactors(U=f.U.astype(np.float32), s=f.s, V=f.V.astype(np.float32)),
                SvdFactors(U=f.U.astype(np.complex128), s=f.s.astype(np.float32), V=f.V),
                SvdFactors(U=f.U, s=f.s, V=f.V.astype(np.float32)),
                SvdFactors(U=f.U, s=f.s, V=f.V.astype(np.complex128))):
        with pytest.raises(TypeError, match="factor dtypes"):
            svd_vjp(bad, None, None, None, GradMode.inv())


def test_vjps_refuse_cotangents_in_another_dtype():
    # a cotangent in another dtype than the factors would decide the
    # gradient's dtype (complex128 from a float32 input); both VJPs refuse it
    # and name the cotangent
    from svdgrad.svt import SvtCache, svt_vjp

    rng = np.random.default_rng(29)
    B, factors, s_hat = svt(_random(rng, (4, 4), np.float32), ThresholdSpec.soft(0.1))
    wide = np.ones((4, 4), np.complex128)
    with pytest.raises(TypeError, match="Bbar"):
        svt_vjp(wide, SvtCache(factors, s_hat, ThresholdSpec.soft(0.1)), GradMode.inv())
    with pytest.raises(TypeError, match="Ubar"):
        svd_vjp(factors, wide, None, None, GradMode.inv())
    with pytest.raises(TypeError, match="Vbar"):
        svd_vjp(factors, None, None, wide, GradMode.inv())
    with pytest.raises(TypeError, match="sbar"):
        svd_vjp(factors, None, np.ones(4), None, GradMode.inv())
    # in the factors' dtypes the gradient keeps the input's dtype
    assert svt_vjp(np.ones((4, 4), np.float32), SvtCache(factors, s_hat, ThresholdSpec.soft(0.1)),
                   GradMode.inv())[0].dtype == np.float32


def _stack_with_tie_and_zero(rng, shape, dtype):
    """Three random matrices, one with an exactly tied leading pair (diagonal,
    so LAPACK returns the tie exactly) and one all zero."""
    m, n = shape
    tie = np.zeros(shape)
    tie[np.arange(min(shape)), np.arange(min(shape))] = np.linspace(2.0, 0.5, min(shape))
    tie[1, 1] = tie[0, 0]
    mats = [_random(rng, shape, dtype) for _ in range(3)] + [tie.astype(dtype), np.zeros(shape, dtype)]
    return np.stack(mats)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
@pytest.mark.parametrize("shape", [(5, 5), (6, 4), (4, 6)])
def test_stacked_svd_vjp_matches_per_matrix(dtype, shape):
    # every mode, on a stack holding a tie and an all-zero matrix: each
    # matrix's gradient is bit-identical to its own 2-D call
    rng = np.random.default_rng(60)
    A = _stack_with_tie_and_zero(rng, shape, dtype)
    k = min(shape)
    Ubar = _random(rng, (len(A), shape[0], k), dtype)
    Vbar = _random(rng, (len(A), shape[1], k), dtype)
    sbar = rng.standard_normal((len(A), k)).astype(np.real(np.zeros(1, dtype)).dtype)
    f = svd(A)
    for mode in ALL_MODES:
        with np.errstate(all="ignore"):
            g = svd_vjp(f, Ubar, sbar, Vbar, mode)
            for i in range(len(A)):
                own = svd_vjp(svd(A[i]), Ubar[i], sbar[i], Vbar[i], mode)
                assert g[i].tobytes() == own.tobytes(), (mode.variant, i)
        assert g.dtype == A.dtype
    # cotangents left out are zeros, as for one matrix
    g = svd_vjp(f, None, sbar, None, GradMode.inv())
    assert g[0].tobytes() == svd_vjp(svd(A[0]), None, sbar[0], None, GradMode.inv()).tobytes()


def test_stacked_aux_across_branches_matches_per_matrix(monkeypatch):
    # one stack whose spectra take different build_aux branches: case-2
    # scale (1e-18) with a tiny pair whose relative F overflows float32, so
    # FS is formed a second time; an exact tie, which fills T in inv mode; a
    # zero tail; a separated spectrum; and an all-zero one, whose sigma_max
    # falls back to 1. The stack is classified in one pass, each spectrum at
    # its own scale; in float32 and in float64 each matrix's gradient is
    # bit-identical to its own 2-D call
    import svdgrad.backward as backward
    from svdgrad.linalg import SvdFactors

    retries = []
    clamp = backward._clamp_nonfinite
    monkeypatch.setattr(backward, "_clamp_nonfinite", lambda x, c: retries.append(1) or clamp(x, c))
    spectra = np.array([
        np.array([1.0, 0.6, 2e-22, 1e-22]) * 1e-18,
        [2.0, 1.5, 1.5, 0.5],
        [3.0, 1.0, 0.0, 0.0],
        [4.0, 3.0, 2.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    beyond = StabilityParams(t=1e45)
    # only the case-2 spectrum takes the retry, in float32 alone: in taylor
    # and with t beyond float32's range
    for dtype, expected in ((np.float32, {("taylor", 0), ("tf", 0), ("inv", 0)}), (np.float64, set())):
        s = spectra.astype(dtype)
        rng = np.random.default_rng(61)
        N, k, m, n = *s.shape, 6, 5
        U = np.linalg.qr(rng.standard_normal((N, m, k)))[0].astype(dtype)
        V = np.linalg.qr(rng.standard_normal((N, n, k)))[0].astype(dtype)
        Ubar = _random(rng, (N, m, k), dtype)
        Vbar = _random(rng, (N, n, k), dtype)
        sbar = _random(rng, (N, k), dtype)
        retried = set()
        for mode in ALL_MODES + [GradMode.tf(beyond), GradMode.inv(beyond)]:
            with np.errstate(all="ignore"):
                g = svd_vjp(SvdFactors(U=U, s=s, V=V), Ubar, sbar, Vbar, mode)
                for i in range(N):
                    retries.clear()
                    own = svd_vjp(SvdFactors(U=U[i], s=s[i], V=V[i]), Ubar[i], sbar[i], Vbar[i], mode)
                    assert g[i].tobytes() == own.tobytes(), (dtype, mode, i)
                    if retries:
                        retried.add((mode.variant, i))
            assert g.dtype == dtype
        assert retried == expected, dtype
        assert np.count_nonzero(build_aux(s[1], GradMode.inv()).T) == 2


@pytest.mark.parametrize("dtype,top", [(np.float32, 3e38), (np.float64, 1.7e308)])
def test_tie_near_the_largest_value_is_equal(dtype, top):
    # sigma_j + sigma_i overflows here, so the sum is formed from the values
    # relative to sigma_max; the tie and its diagonal entries are equal
    from svdgrad.linalg import SvdFactors

    s = np.array([top, top, 1.0], dtype=dtype)
    tie = (np.array([0, 1, 0, 1]), np.array([1, 0, 0, 1]))
    assert (classify_pairs(s, StabilityParams().resolve(dtype)[0])[tie] == EQUAL_NONZERO).all()
    for mode in (GradMode.tf(), GradMode.clip(), GradMode.inv()):
        aux = build_aux(s, mode)
        assert (aux.FS[tie] == 0).all(), mode.variant
        assert np.isfinite(aux.FS).all(), mode.variant
    T = build_aux(s, GradMode.inv()).T
    assert T[0, 1] == T[1, 0] == dtype(1) / dtype(top)
    # beside a spectrum of ordinary scale, each matrix of a stack keeps the
    # gradient of its own 2-D call
    spectra = np.array([s, [3.0, 2.0, 1.0]], dtype=dtype)
    rng = np.random.default_rng(67)
    N, k, m, n = *spectra.shape, 5, 4
    U = np.linalg.qr(rng.standard_normal((N, m, k)))[0].astype(dtype)
    V = np.linalg.qr(rng.standard_normal((N, n, k)))[0].astype(dtype)
    Ubar, Vbar, sbar = _random(rng, (N, m, k), dtype), _random(rng, (N, n, k), dtype), _random(rng, (N, k), dtype)
    for mode in ALL_MODES:
        with np.errstate(all="ignore"):
            g = svd_vjp(SvdFactors(U=U, s=spectra, V=V), Ubar, sbar, Vbar, mode)
            for i in range(N):
                own = svd_vjp(SvdFactors(U=U[i], s=spectra[i], V=V[i]), Ubar[i], sbar[i], Vbar[i], mode)
                assert g[i].tobytes() == own.tobytes(), (mode.variant, i)


def test_stacked_vjp_reports_the_first_failing_spectrum():
    # a stack is validated in one pass, yet the error is the one the first
    # failing matrix's own 2-D call gives, whatever the matrices after it hold
    from svdgrad.linalg import SvdFactors

    for spectra, needle in (
        ([[2.0, 1.0], [1.0, -0.5], [np.nan, 1.0]], "nonnegative"),
        ([[2.0, 1.0], [np.nan, -0.5], [1.0, -0.5]], "non-finite"),
    ):
        s = np.array(spectra)
        U = np.broadcast_to(np.eye(2), (len(s), 2, 2))
        for mode in ALL_MODES:
            with pytest.raises(ValueError, match=needle):
                svd_vjp(SvdFactors(U=U, s=s, V=U), None, np.ones_like(s), None, mode)
            with pytest.raises(ValueError, match=needle):
                svd_vjp(SvdFactors(U=U[1], s=s[1], V=U[1]), None, np.ones(2), None, mode)


def test_vjp_matches_jacobi_factors():
    # the formula only assumes A = U diag(s) V^H; factors from the
    # independent Jacobi route must give the same gradient
    rng = np.random.default_rng(22)
    A = _random(rng, (6, 4))
    U, s, V = jacobi_svd(A)
    from svdgrad.linalg import SvdFactors

    fj = SvdFactors(U=U, s=s, V=V)
    f = svd(A)
    sbar = rng.standard_normal(4)
    g1 = svd_vjp(f, None, sbar, None, GradMode.inv())
    g2 = svd_vjp(fj, None, sbar, None, GradMode.inv())
    assert np.linalg.norm(g1 - g2) <= 1e-10 * np.linalg.norm(g1)
