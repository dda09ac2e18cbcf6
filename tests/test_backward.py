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

from oracles import finite_difference_loop, jacobi_svd

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
    assert np.array_equal(aux.F, np.array([[0.0, -0.125], [0.125, 0.0]]))
    assert np.array_equal(aux.T, np.zeros((2, 2)))
    assert aux.s_pinv == pytest.approx([1 / 3, 1.0], rel=1e-15)


def test_aux_inv_equal_pair():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.inv())
    assert np.array_equal(aux.F, np.zeros((2, 2)))
    assert np.array_equal(aux.T, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_aux_zero_spectrum():
    for mode in ALL_MODES:
        aux = build_aux(np.array([0.0, 0.0]), mode)
        assert np.array_equal(aux.F, np.zeros((2, 2)))
        assert np.array_equal(aux.T, np.zeros((2, 2)))
        assert np.array_equal(aux.s_pinv, np.zeros(2))


def test_aux_taylor_truncation():
    aux = build_aux(np.array([3.0, 1.0]), GradMode.taylor(k=2))
    assert aux.F[1, 0] == pytest.approx(91 / 729, rel=1e-14)
    assert aux.F[0, 1] == -aux.F[1, 0]
    # higher degree converges toward the exact value 1/8
    aux9 = build_aux(np.array([3.0, 1.0]), GradMode.taylor(k=40))
    assert aux9.F[1, 0] == pytest.approx(0.125, rel=1e-14)


def test_aux_taylor_equal_pair_is_zero():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.taylor())
    assert np.array_equal(aux.F, np.zeros((2, 2)))
    assert np.array_equal(aux.T, np.zeros((2, 2)))


def test_aux_modes_on_forced_equal_pair():
    # gap^2 ~ 6e-4, classified equal once 1/t exceeds it
    s = np.array([3.0, 2.9999])
    stab = StabilityParams(t=100.0)
    tf = build_aux(s, GradMode.tf(stability=stab))
    assert np.array_equal(tf.F, np.zeros((2, 2)))
    assert np.array_equal(tf.T, np.zeros((2, 2)))
    clip = build_aux(s, GradMode.clip(clip_value=1e6, stability=stab))
    assert clip.F[0, 1] == -1e6  # sign(sigma_j - sigma_i) with sigma_j < sigma_i
    assert clip.F[1, 0] == 1e6
    inv = build_aux(s, GradMode.inv(stability=stab))
    assert np.array_equal(inv.F, np.zeros((2, 2)))
    # T fills with the column reciprocal
    assert inv.T[0, 1] == pytest.approx(1 / 2.9999, rel=1e-15)
    assert inv.T[1, 0] == pytest.approx(1 / 3.0, rel=1e-15)
    exact = build_aux(s, GradMode.exact(stability=stab))
    assert exact.F[0, 1] == pytest.approx(1 / (2.9999**2 - 9.0), rel=1e-12)


def test_aux_clip_zero_at_exact_tie():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.clip())
    assert np.array_equal(aux.F, np.zeros((2, 2)))


def test_aux_exact_mode_may_overflow():
    aux = build_aux(np.array([2.0, 2.0]), GradMode.exact())
    assert not np.isfinite(aux.F[0, 1])


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
            if mode.variant == "exact" and not np.isfinite(aux.F).all():
                continue
            assert np.array_equal(aux.F, -aux.F.T), mode.variant
            assert np.array_equal(np.diag(aux.F), np.zeros(6))


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
            assert np.isfinite(aux.F).all(), (mode.variant, s)
            assert np.isfinite(aux.T).all(), (mode.variant, s)
            assert np.isfinite(aux.s_pinv).all(), (mode.variant, s)


def test_aux_finite_with_threshold_beyond_range():
    # t above float32 max lets 1/gap overflow on an unequal pair; the clamp
    # must keep F and FS finite and FS exact against the zero value
    s = np.array([1.0, 1e-21, 0.0], dtype=np.float32)
    for mode in SAFE_MODES:
        aux = build_aux(s, GradMode(mode.variant, stability=StabilityParams(t=1e45)))
        assert np.isfinite(aux.F).all(), mode.variant
        assert np.isfinite(aux.FS).all(), mode.variant
        assert aux.FS[1, 2] == 0, mode.variant


def test_aux_float32_defaults():
    t, clamp = StabilityParams().resolve(np.float32)
    assert t == 1e30
    assert clamp == float(np.finfo(np.float32).max)
    t64, clamp64 = StabilityParams().resolve(np.float64)
    assert t64 == 1e300
    assert clamp64 == float(np.finfo(np.float64).max)
    # a tiny pair that is equal relative to sigma_max = 1: its squared gap
    # (~2e-35) is far below what float32 F could invert, yet it is classified
    # and compensated through T without leaving float32
    s = np.array([1.0, 1e-16 * (1 + 1e-3), 1e-16], dtype=np.float32)
    aux = build_aux(s, GradMode.inv(), dtype=np.float32)
    assert aux.F.dtype == np.float32
    assert aux.F[1, 2] == 0 and aux.F[2, 1] == 0
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
    with pytest.raises(TypeError):
        build_aux(np.array([1.0]), GradMode.inv(), dtype=np.complex128)


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
        Abar = svd_vjp(A, f, None, np.ones(3), None, mode)
        assert np.allclose(Abar, np.eye(3), atol=1e-14), mode.variant


def test_vjp_zero_cotangents():
    rng = np.random.default_rng(13)
    A = _random(rng, (5, 4))
    f = svd(A)
    Abar = svd_vjp(A, f, None, None, None, GradMode.inv())
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
            Abar = svd_vjp(A, f, Ubar, sbar, Vbar, mode)
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
        Abar = svd_vjp(A, f, None, 2 * f.s, None, GradMode.inv())
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
            Abar = svd_vjp(A, f, Ubar, sbar, Vbar, mode)
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
    Abar = svd_vjp(A, f, W, None, None, GradMode.inv())
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
        g_exact = svd_vjp(A, f, Ubar, sbar, Vbar, GradMode.exact())
        g_inv = svd_vjp(A, f, Ubar, sbar, Vbar, GradMode.inv())
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
    g = svd_vjp(A, f2, Ubar, sbar, Vbar, GradMode.exact())
    assert not np.isfinite(g).all()
    for mode in SAFE_MODES:
        g = svd_vjp(A, f2, Ubar, sbar, Vbar, mode)
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
    Abar = svd_vjp(A, f, Ubar, sbar, Vbar, GradMode.inv())
    assert np.linalg.norm(Abar - fd) <= 1e-5 * np.linalg.norm(fd)


def test_vjp_shape_validation():
    rng = np.random.default_rng(21)
    A = _random(rng, (4, 3))
    f = svd(A)
    with pytest.raises(ValueError):
        svd_vjp(A, f, np.zeros((4, 4)), None, None, GradMode.inv())
    with pytest.raises(ValueError):
        svd_vjp(A, f, None, np.zeros(4), None, GradMode.inv())
    # a stack gives each matrix its own gradient, never their sum
    stack = np.stack([A, 2 * A])
    sbar = rng.standard_normal((2, 3))
    g = svd_vjp(stack, svd(stack), None, sbar, None, GradMode.inv())
    assert g.shape == stack.shape
    for i in range(2):
        own = svd_vjp(stack[i], svd(stack[i]), None, sbar[i], None, GradMode.inv())
        assert g[i].tobytes() == own.tobytes()
    # cotangents must carry the stack's leading axes
    with pytest.raises(ValueError):
        svd_vjp(stack, svd(stack), None, sbar[0], None, GradMode.inv())


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
            g = svd_vjp(A, f, Ubar, sbar, Vbar, mode)
            for i in range(len(A)):
                own = svd_vjp(A[i], svd(A[i]), Ubar[i], sbar[i], Vbar[i], mode)
                assert g[i].tobytes() == own.tobytes(), (mode.variant, i)
        assert g.dtype == A.dtype
    # cotangents left out are zeros, as for one matrix
    g = svd_vjp(A, f, None, sbar, None, GradMode.inv())
    assert g[0].tobytes() == svd_vjp(A[0], svd(A[0]), None, sbar[0], None, GradMode.inv()).tobytes()


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
    g1 = svd_vjp(A, f, None, sbar, None, GradMode.inv())
    g2 = svd_vjp(A, fj, None, sbar, None, GradMode.inv())
    assert np.linalg.norm(g1 - g2) <= 1e-10 * np.linalg.norm(g1)
