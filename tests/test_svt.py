"""Singular value thresholding: forward semantics, prox identity, backward."""

import inspect

import numpy as np
import pytest

from svdgrad import GradMode, ThresholdSpec, kept_mask, svt_vjp
from svdgrad.svt import SvtCache, svt

from oracles import finite_difference_loop, nuclear_prox

from test_backward import _random


def test_svt_submodule_not_shadowed():
    # the package exposes the submodule under its name, not the function
    import svdgrad.svt as m

    assert inspect.ismodule(m)
    assert callable(m.svt)


def test_soft_diagonal():
    B, factors, s_hat = svt(np.diag([3.0, 2.0, 0.5]), ThresholdSpec.soft(1.0))
    assert np.allclose(B, np.diag([2.0, 1.0, 0.0]), atol=1e-15)
    assert np.array_equal(s_hat, [2.0, 1.0, 0.0])


def test_soft_tau_zero_is_identity():
    rng = np.random.default_rng(30)
    A = _random(rng, (6, 4))
    B, _, _ = svt(A, ThresholdSpec.soft(0.0))
    assert np.linalg.norm(B - A) <= 1e-12 * np.linalg.norm(A)


def test_hard_tail_zeroes_trailing():
    rng = np.random.default_rng(31)
    A = _random(rng, (5, 5))
    B, factors, s_hat = svt(A, ThresholdSpec.hard_tail(2))
    assert np.array_equal(s_hat[:3], factors.s[:3])
    assert np.array_equal(s_hat[3:], [0.0, 0.0])
    s_out = np.linalg.svd(B, compute_uv=False)
    assert np.max(np.abs(np.sort(s_out)[::-1][:3] - factors.s[:3])) <= 1e-12
    with pytest.raises(ValueError):
        svt(A, ThresholdSpec.hard_tail(6))


@pytest.mark.parametrize("spec", [ThresholdSpec.soft(0.7), ThresholdSpec.hard_tail(2)])
@pytest.mark.parametrize("dtype", [np.float32, np.complex128])
def test_stack_matches_per_matrix(spec, dtype):
    rng = np.random.default_rng(34)
    mats = [_random(rng, (5, 4), dtype) for _ in range(3)]
    B, factors, s_hat = svt(np.stack(mats), spec)
    assert B.shape == (3, 5, 4) and s_hat.shape == (3, 4)
    for i, A in enumerate(mats):
        B_i, f_i, s_hat_i = svt(A, spec)
        assert B[i].tobytes() == B_i.tobytes() and s_hat[i].tobytes() == s_hat_i.tobytes()
        assert factors.U[i].tobytes() == f_i.U.tobytes()
        assert factors.V[i].tobytes() == f_i.V.tobytes()
    with pytest.raises(ValueError):
        svt(np.stack(mats), ThresholdSpec.hard_tail(5))


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec.soft(-0.1)
    with pytest.raises(ValueError):
        ThresholdSpec.hard_tail(-1)
    with pytest.raises(ValueError):
        ThresholdSpec("median", tau=1.0)
    # a bool or a non-integer d, and a bool or a non-number tau, are refused:
    # they would be truncated, taken as 1, or fail only inside svt
    for make in (lambda: ThresholdSpec.hard_tail(2.7), lambda: ThresholdSpec.hard_tail(True),
                 lambda: ThresholdSpec("hard_tail", d=2.5), lambda: ThresholdSpec("hard_tail", d=np.float64(2))):
        with pytest.raises(TypeError, match="hard_tail d"):
            make()
    for make in (lambda: ThresholdSpec.soft(True), lambda: ThresholdSpec.soft(np.True_),
                 lambda: ThresholdSpec.soft("0.5"), lambda: ThresholdSpec("soft", tau=True),
                 lambda: ThresholdSpec("soft", tau="0.5"), lambda: ThresholdSpec("soft", tau=np.array([True]))):
        with pytest.raises(TypeError, match="tau"):
            make()
    # NumPy integers and floats are taken; d is kept as a Python int
    spec = ThresholdSpec.hard_tail(np.int64(2))
    assert spec.d == 2 and type(spec.d) is int
    assert ThresholdSpec.soft(np.float32(0.5)).tau == 0.5
    assert ThresholdSpec.soft(np.int64(1)).tau == 1.0
    assert ThresholdSpec.soft(np.array(0.25)).tau == 0.25


def test_soft_matches_nuclear_prox_oracle():
    rng = np.random.default_rng(32)
    for dtype in [np.float64, np.complex128]:
        for _ in range(10):
            A = _random(rng, (8, 8), dtype)
            B, _, _ = svt(A, ThresholdSpec.soft(0.7))
            ref = nuclear_prox(A, 0.7)
            assert np.linalg.norm(B - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-15)


def test_soft_nonexpansive():
    rng = np.random.default_rng(33)
    for _ in range(50):
        A = _random(rng, (6, 5))
        B = _random(rng, (6, 5))
        tau = float(rng.uniform(0.1, 2.0))
        PA, _, _ = svt(A, ThresholdSpec.soft(tau))
        PB, _, _ = svt(B, ThresholdSpec.soft(tau))
        # prox of a convex function; allow rounding at the boundary
        assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) * (1 + 1e-12)


def test_tau_monotonicity():
    rng = np.random.default_rng(34)
    A = _random(rng, (7, 7))
    _, _, s1 = svt(A, ThresholdSpec.soft(0.3))
    _, _, s2 = svt(A, ThresholdSpec.soft(0.9))
    assert np.all(s1 >= s2)


def test_kept_mask_strict_inequality():
    s = np.array([3.0, 1.0, 0.5])
    assert np.array_equal(kept_mask(s, ThresholdSpec.soft(1.0)), [True, False, False])
    assert np.array_equal(kept_mask(s, ThresholdSpec.hard_tail(1)), [True, True, False])
    assert np.array_equal(kept_mask(s, ThresholdSpec.hard_tail(0)), [True, True, True])


def test_vjp_zero_cotangent():
    rng = np.random.default_rng(35)
    A = _random(rng, (5, 4))
    B, factors, s_hat = svt(A, ThresholdSpec.soft(0.5))
    cache = SvtCache(factors, s_hat, ThresholdSpec.soft(0.5))
    Abar, taubar = svt_vjp(np.zeros_like(A), cache, GradMode.inv())
    assert np.array_equal(Abar, np.zeros_like(A))
    assert taubar == 0.0


def test_vjp_fd_soft_sum_and_tau():
    # L = sum of entries of B; FD in both A and tau
    A = np.diag([3.0, 2.0, 0.5])
    spec = ThresholdSpec.soft(1.0)

    def loss(X):
        B, _, _ = svt(X, spec)
        return float(B.sum())

    B, factors, s_hat = svt(A, spec)
    cache = SvtCache(factors, s_hat, spec)
    Bbar = np.ones_like(A)
    Abar, taubar = svt_vjp(Bbar, cache, GradMode.inv())
    fd = finite_difference_loop(loss, A)
    assert np.linalg.norm(Abar - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)

    h = 1e-6
    lp = svt(A, ThresholdSpec.soft(1.0 + h))[0].sum()
    lm = svt(A, ThresholdSpec.soft(1.0 - h))[0].sum()
    fd_tau = (lp - lm) / (2 * h)
    assert taubar == pytest.approx(fd_tau, rel=1e-6)


def test_vjp_fd_hard_tail_l1():
    rng = np.random.default_rng(36)
    for dtype in [np.float64, np.complex128]:
        s_target = np.array([4.0, 2.8, 1.9, 1.1, 0.4])
        q1, _ = np.linalg.qr(_random(rng, (5, 5), dtype))
        q2, _ = np.linalg.qr(_random(rng, (5, 5), dtype))
        A = (q1 * s_target[None, :]) @ q2.conj().T
        spec = ThresholdSpec.hard_tail(2)

        def loss(X):
            B, _, _ = svt(X, spec)
            return float(np.abs(B).sum())

        B, factors, s_hat = svt(A, spec)
        cache = SvtCache(factors, s_hat, spec)
        with np.errstate(invalid="ignore"):
            Bbar = np.where(B == 0, 0, B / np.abs(B)).astype(dtype)
        Abar, taubar = svt_vjp(Bbar, cache, GradMode.inv())
        assert taubar == 0.0
        fd = finite_difference_loop(loss, A)
        assert np.linalg.norm(Abar - fd) <= 1e-5 * np.linalg.norm(fd), dtype


def test_vjp_finite_on_duplicated_spectrum():
    rng = np.random.default_rng(37)
    q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = (q1 * np.array([3.0, 2.0, 2.0, 2.0, 0.5, 0.0])[None, :]) @ q2.T
    spec = ThresholdSpec.soft(1.0)
    B, factors, s_hat = svt(A, spec)
    cache = SvtCache(factors, s_hat, spec)
    Bbar = _random(rng, (6, 6))
    for name in ["inv", "tf", "clip", "taylor"]:
        Abar, taubar = svt_vjp(Bbar, cache, GradMode(name))
        assert np.isfinite(Abar).all(), name
        assert np.isfinite(taubar), name


def test_vjp_shape_mismatch_rejected():
    rng = np.random.default_rng(38)
    A = _random(rng, (5, 4))
    B, factors, s_hat = svt(A, ThresholdSpec.soft(0.5))
    cache = SvtCache(factors, s_hat, ThresholdSpec.soft(0.5))
    with pytest.raises(ValueError):
        svt_vjp(np.zeros((4, 5)), cache, GradMode.inv())
    # the input's shape comes from the factors, leading axes included
    with pytest.raises(ValueError, match="Bbar shape"):
        svt_vjp(np.zeros((2, 5, 4)), cache, GradMode.inv())
    _, factors, s_hat = svt(np.stack([A, A]), ThresholdSpec.soft(0.5))
    stacked = SvtCache(factors, s_hat, ThresholdSpec.soft(0.5))
    for Bbar in (np.zeros((5, 4)), np.zeros((3, 5, 4)), np.zeros((2, 4, 5))):
        with pytest.raises(ValueError, match="Bbar shape"):
            svt_vjp(Bbar, stacked, GradMode.inv())


def test_part2_part4_brackets_vanish():
    # cotangents born from B = U s_hat V^H have exact zeros in U^H Ubar at
    # (kept, dropped) positions and in the dropped block, because the s_hat
    # column factor multiplies them by an exact zero
    rng = np.random.default_rng(39)
    for _ in range(20):
        A = _random(rng, (8, 8))
        tau = float(np.sort(np.linalg.svd(A, compute_uv=False))[2] * 1.01)
        B, factors, s_hat = svt(A, ThresholdSpec.soft(tau))
        Bbar = _random(rng, (8, 8))
        Ubar = (Bbar @ factors.V) * s_hat[None, :]
        Vbar = (Bbar.conj().T @ factors.U) * s_hat[None, :]
        dropped = s_hat == 0
        assert dropped.sum() >= 3
        P = factors.U.conj().T @ Ubar
        Q = factors.V.conj().T @ Vbar
        # columns belonging to dropped singular values are identically zero
        assert np.array_equal(P[:, dropped], np.zeros((8, int(dropped.sum()))))
        assert np.array_equal(Q[:, dropped], np.zeros((8, int(dropped.sum()))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
@pytest.mark.parametrize("shape", [(6, 6), (7, 5)])
def test_stacked_svt_vjp_matches_per_matrix(dtype, shape):
    # soft with one tau per matrix (one below every value, one above every
    # value) and hard_tail: each matrix's Abar and taubar are bit-identical
    # to its own 2-D call
    rng = np.random.default_rng(61)
    A = np.stack([_random(rng, shape, dtype) for _ in range(4)])
    s = np.linalg.svd(A, compute_uv=False)
    taus = np.array([np.median(s[0]), 0.0, s[2, 0] * 2, s[3, 3]])
    Bbar = _random(rng, A.shape, dtype)
    for spec, own_spec in ((ThresholdSpec.soft(taus), ThresholdSpec.soft),
                           (ThresholdSpec.hard_tail(2), lambda _: ThresholdSpec.hard_tail(2))):
        B, factors, s_hat = svt(A, spec)
        assert kept_mask(factors.s, spec).shape == factors.s.shape
        cache = SvtCache(factors, s_hat, spec)
        for mode in [GradMode("tf"), GradMode("inv")]:
            Abar, taubar = svt_vjp(Bbar, cache, mode)
            assert taubar.shape == (4,) and taubar.dtype == np.float64
            for i in range(4):
                one = own_spec(taus[i])
                B_i, f_i, s_hat_i = svt(A[i], one)
                assert B[i].tobytes() == B_i.tobytes()
                assert np.array_equal(kept_mask(factors.s, spec)[i], kept_mask(f_i.s, one))
                Abar_i, taubar_i = svt_vjp(Bbar[i], SvtCache(f_i, s_hat_i, one), mode)
                assert Abar[i].tobytes() == Abar_i.tobytes(), (spec.kind, mode.variant, i)
                assert isinstance(taubar_i, float)
                assert np.float64(taubar[i]).tobytes() == np.float64(taubar_i).tobytes()


def test_soft_spec_takes_one_tau_per_matrix():
    spec = ThresholdSpec.soft([0.5, 1.0])
    assert spec.tau.dtype == np.float64 and spec.tau.shape == (2,)
    with pytest.raises(ValueError):
        ThresholdSpec.soft([0.5, -1.0])
    with pytest.raises(ValueError):
        ThresholdSpec.soft([0.5, np.inf])


@pytest.mark.parametrize("dtype", [np.float32, np.complex128])
def test_svt_vjp_under_several_modes_matches_each_own_call(dtype):
    rng = np.random.default_rng(92)
    A = _random(rng, (3, 5, 4), dtype)
    B, factors, s_hat = svt(A, ThresholdSpec.soft(np.array([0.2, 0.4, 0.6])))
    cache = SvtCache(factors, s_hat, ThresholdSpec.soft(np.array([0.2, 0.4, 0.6])))
    Bbar = _random(rng, B.shape, dtype)
    modes = [GradMode.exact(), GradMode.tf(), GradMode.clip(), GradMode.taylor(), GradMode.inv()]
    pairs = svt_vjp(Bbar, cache, modes)
    assert len(pairs) == len(modes)
    for mode, (Abar, taubar) in zip(modes, pairs):
        own_Abar, own_taubar = svt_vjp(Bbar, cache, mode)
        assert Abar.tobytes() == own_Abar.tobytes() and taubar.tobytes() == own_taubar.tobytes()
        # taubar does not depend on the mode: one array for every pair
        assert taubar is pairs[0][1]


def test_svt_vjp_refuses_what_is_not_a_mode():
    # refused up front, as Tape.backward refuses them
    B, factors, s_hat = svt(np.eye(3), ThresholdSpec.soft(0.1))
    cache = SvtCache(factors, s_hat, ThresholdSpec.soft(0.1))
    with pytest.raises(ValueError, match="at least one mode"):
        svt_vjp(np.ones_like(B), cache, [])
    for bad in ("inv", None):
        with pytest.raises(TypeError, match="GradMode"):
            svt_vjp(np.ones_like(B), cache, bad)
