"""Finite-difference engine and the double-precision reference pipeline."""

import numpy as np
import pytest

from svdgrad import GradMode, Tape, ThresholdSpec, finite_difference, reference_gradient

from test_backward import _random


def test_fd_frobenius_squared():
    rng = np.random.default_rng(50)
    A = _random(rng, (4, 5))
    g = finite_difference(lambda X: float(np.sum(np.abs(X) ** 2)), A)
    assert np.linalg.norm(g - 2 * A) <= 1e-8 * np.linalg.norm(A)


def test_fd_sum_singular_values_diagonal():
    A = np.diag([3.0, 2.0, 1.0])
    g = finite_difference(lambda X: float(np.linalg.svd(X, compute_uv=False).sum()), A)
    assert np.linalg.norm(g - np.eye(3)) <= 1e-8


def test_fd_complex_assembles_wirtinger_pair():
    rng = np.random.default_rng(51)
    A = _random(rng, (3, 4), np.complex128)
    C = _random(rng, (3, 4), np.complex128)
    # L = Re tr(C^H A) has gradient exactly C under the Re-trace convention
    g = finite_difference(lambda X: float(np.real(np.vdot(C, X))), A)
    assert np.linalg.norm(g - C) <= 1e-8 * np.linalg.norm(C)


def test_fd_error_scales_quadratically():
    rng = np.random.default_rng(52)
    s_target = np.array([4.0, 2.9, 1.8, 0.9])
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = (q1 * s_target[None, :]) @ q2.T

    def loss(X):
        return float(np.sum(np.linalg.svd(X, compute_uv=False) ** 3))

    f = np.linalg.svd(A)
    exact = (f[0] * (3 * f[1] ** 2)[None, :]) @ f[2]
    e1 = np.linalg.norm(finite_difference(loss, A, h=1e-3) - exact)
    e2 = np.linalg.norm(finite_difference(loss, A, h=5e-4) - exact)
    assert 3.0 <= e1 / e2 <= 5.0


def test_fd_nonfinite_loss_reported_per_entry():
    def loss(X):
        if X[1, 0] > 0.5:
            return float("nan")
        return float(X.sum())

    A = np.zeros((2, 2))
    A[1, 0] = 0.5 - 1e-7  # the +h perturbation crosses the failure line
    with pytest.raises(FloatingPointError) as exc:
        finite_difference(loss, A, h=1e-6)
    assert "(1, 0)" in str(exc.value)


def test_fd_spec_validation():
    with pytest.raises(ValueError):
        finite_difference(lambda X: float(X.sum()), np.zeros((2, 2)), h=0.0)


def test_reference_gradient_diagonal_nuclear():
    t = Tape()
    a = t.input("A")
    loss = t.sum_singular_values(a)
    g, ok = reference_gradient(t, {"A": np.diag([3.0, 2.0, 1.0])}, loss)
    assert ok
    assert np.allclose(g.by_name("A"), np.eye(3), atol=1e-12)


def test_reference_gradient_promotes_single_precision():
    rng = np.random.default_rng(53)
    A = _random(rng, (4, 4)).astype(np.float32)
    t = Tape()
    a = t.input("A")
    loss = t.l1_loss(t.svt(a, ThresholdSpec.soft(0.2)))
    g32, ok = reference_gradient(t, {"A": A}, loss)
    assert ok
    assert g32.by_name("A").dtype == np.float64
    g64, _ = reference_gradient(t, {"A": A.astype(np.float64)}, loss)
    assert np.array_equal(g32.by_name("A"), g64.by_name("A"))


def test_reference_gradient_flags_exact_duplicates():
    t = Tape()
    a = t.input("A")
    loss = t.l1_loss(t.svt(a, ThresholdSpec.hard_tail(0)))
    g, ok = reference_gradient(t, {"A": np.diag([2.0, 2.0, 1.0])}, loss)
    assert not ok
    assert not g.all_finite()


def test_reference_survives_near_duplicate_gap():
    # the f64 pipeline keeps a relative gap of 1e-15 representable, so the
    # reference stays finite where a single-precision forward would tie
    sigma0 = 0.37e-10
    s = np.array([sigma0 + sigma0 * 1e-15, sigma0, 0.2e-10])
    rng = np.random.default_rng(54)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = (q1 * s[None, :]) @ q2.T
    t = Tape()
    a = t.input("A")
    loss = t.l1_loss(t.svt(a, ThresholdSpec.hard_tail(0)))
    g, ok = reference_gradient(t, {"A": A}, loss)
    assert ok
    assert np.isfinite(g.by_name("A")).all()


def test_cross_oracle_agreement():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(12):
        A = _random(rng, (5, 5))
        s = np.linalg.svd(A, compute_uv=False)
        if np.min(-np.diff(s)) < 0.05 or s[-1] < 0.3:
            continue
        tau = float((s[2] + s[3]) / 2)
        t = Tape()
        a = t.input("A")
        loss = t.l1_loss(t.svt(a, ThresholdSpec.soft(tau)))
        ref, ok = reference_gradient(t, {"A": A}, loss)
        assert ok
        fd = finite_difference(lambda X: t.forward({"A": X})[loss], A)
        rel = np.linalg.norm(ref.by_name("A") - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5
        checked += 1
    assert checked >= 5
