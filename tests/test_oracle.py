"""Finite-difference engine and the double-precision reference pipeline."""

import numpy as np
import pytest

from svdgrad import GradMode, Tape, ThresholdSpec, finite_difference, reference_gradient

from oracles import finite_difference_loop
from test_backward import _random

def _gradcheck_group_tapes(n_rows, n_cols, dtype, tau):
    """The four gradcheck op groups as (tape, loss, bindings besides A)."""
    tapes = []
    t = Tape()
    tapes.append((t, t.sum_singular_values(t.input("A")), {}))
    t = Tape()
    loss = t.mse_loss(t.svt(t.input("A"), ThresholdSpec.soft(tau)), t.input("Z"))
    tapes.append((t, loss, {"Z": np.zeros((n_rows, n_cols), dtype)}))
    for spec in (ThresholdSpec.soft(tau), ThresholdSpec.hard_tail(2)):
        t = Tape()
        tapes.append((t, t.l1_loss(t.svt(t.input("A"), spec)), {}))
    if n_rows == n_cols:
        t = Tape()
        a = t.input("A")
        s2 = t.sub(t.add(t.matmul(a, t.conj_transpose(a)), t.hadamard(a, a)), a)
        scaled = t.scale_by_param(t.hadamard(s2, t.input("M")), t.parameter_scalar("c"))
        mask = (np.arange(n_rows * n_cols).reshape(n_rows, n_cols) % 3 != 0).astype(dtype)
        tapes.append((t, t.mse_loss(scaled, t.input("Z")),
                      {"Z": np.zeros((n_rows, n_cols), dtype), "M": mask, "c": 0.7}))
    return tapes


def test_fd_frobenius_squared():
    rng = np.random.default_rng(50)
    A = _random(rng, (4, 5))
    g = finite_difference(lambda X: np.sum(np.abs(X) ** 2, axis=(-2, -1)), A)
    assert np.linalg.norm(g - 2 * A) <= 1e-8 * np.linalg.norm(A)


def test_fd_sum_singular_values_diagonal():
    A = np.diag([3.0, 2.0, 1.0])
    g = finite_difference(lambda X: np.linalg.svd(X, compute_uv=False).sum(-1), A)
    assert np.linalg.norm(g - np.eye(3)) <= 1e-8


def test_fd_complex_assembles_wirtinger_pair():
    rng = np.random.default_rng(51)
    A = _random(rng, (3, 4), np.complex128)
    C = _random(rng, (3, 4), np.complex128)
    # L = Re tr(C^H A) has gradient exactly C under the Re-trace convention
    g = finite_difference(lambda X: np.real(np.sum(C.conj() * X, axis=(-2, -1))), A)
    assert np.linalg.norm(g - C) <= 1e-8 * np.linalg.norm(C)


def test_fd_error_scales_quadratically():
    rng = np.random.default_rng(52)
    s_target = np.array([4.0, 2.9, 1.8, 0.9])
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = (q1 * s_target[None, :]) @ q2.T

    def loss(X):
        return np.sum(np.linalg.svd(X, compute_uv=False) ** 3, axis=-1)

    f = np.linalg.svd(A)
    exact = (f[0] * (3 * f[1] ** 2)[None, :]) @ f[2]
    e1 = np.linalg.norm(finite_difference(loss, A, h=1e-3) - exact)
    e2 = np.linalg.norm(finite_difference(loss, A, h=5e-4) - exact)
    assert 3.0 <= e1 / e2 <= 5.0


def test_fd_nonfinite_loss_reported_per_entry():
    def loss(X):
        return np.where(X[:, 1, 0] > 0.5, np.nan, X.sum(axis=(-2, -1)))

    A = np.zeros((2, 2))
    A[1, 0] = 0.5 - 1e-7  # the +h perturbation crosses the failure line
    with pytest.raises(FloatingPointError) as exc:
        finite_difference(loss, A, h=1e-6)
    assert "(1, 0)" in str(exc.value)


def test_fd_spec_validation():
    with pytest.raises(ValueError):
        finite_difference(lambda X: X.sum(axis=(-2, -1)), np.zeros((2, 2)), h=0.0)


def test_fd_rejects_one_loss_for_the_whole_stack():
    # a loss written for one matrix at a time sums the whole stack of 8
    with pytest.raises(ValueError, match="8 losses"):
        finite_difference(lambda X: float(X.sum()), np.zeros((2, 2)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_stacked_fd_matches_loop(dtype):
    # one stacked loss call must give the per-entry loop's gradient bit for
    # bit: the copies are perturbed alike and every per-matrix reduction sums
    # in the order a lone matrix does, past NumPy's 128-entry pairwise block too
    rng = np.random.default_rng(56)

    def cubes(X):  # one loss per copy, each reduced over all of its entries
        return np.sum(np.abs(X) ** 3, axis=tuple(range(1, X.ndim)))

    def nuclear(X):
        return np.linalg.svd(X, compute_uv=False).sum(-1)

    lone = {cubes: lambda X: float(np.sum(np.abs(X) ** 3)),
            nuclear: lambda X: float(np.linalg.svd(X, compute_uv=False).sum())}
    cases = [(cubes, (4, 4)), (cubes, (3, 5)), (cubes, (12, 15)), (cubes, (7,)),
             (nuclear, (4, 4)), (nuclear, (6, 4)), (nuclear, (12, 15))]
    for loss, shape in cases:
        A = _random(rng, shape, dtype)
        stacked = finite_difference(loss, A)
        looped = finite_difference_loop(lone[loss], A)
        assert stacked.dtype == looped.dtype == A.dtype
        assert stacked.tobytes() == looped.tobytes(), (loss.__name__, shape)
    for shape in ((5, 5), (6, 4)):
        A = _random(rng, shape, dtype)
        tau = float(np.median(np.linalg.svd(A, compute_uv=False)))
        for t, loss, extra in _gradcheck_group_tapes(*shape, dtype, tau):
            stacked = finite_difference(lambda X: t.forward({**extra, "A": X})[loss], A)
            looped = finite_difference_loop(lambda X: t.forward({**extra, "A": X})[loss], A)
            assert stacked.tobytes() == looped.tobytes(), (t.nodes[loss].op, shape)


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


def test_reference_gradient_flags_each_matrix_of_a_stack():
    # one ok per matrix: only the exactly tied matrix is flagged, and the
    # others keep their own finite gradients, bit for bit
    rng = np.random.default_rng(57)
    A = np.stack([_random(rng, (3, 3)), np.diag([2.0, 2.0, 1.0]), _random(rng, (3, 3))])
    t = Tape()
    loss = t.l1_loss(t.svt(t.input("A"), tau_param=t.parameter_scalar("tau")))
    tau = np.array([0.1, 0.5, 0.2])
    A32 = A.astype(np.float32)
    g, ok = reference_gradient(t, {"A": A32, "tau": tau}, loss)
    assert ok.tolist() == [True, False, True]
    for i in (0, 2):
        g_i, ok_i = reference_gradient(t, {"A": A32[i], "tau": tau[i]}, loss)
        assert ok_i is True
        assert g.by_name("A")[i].tobytes() == g_i.by_name("A").tobytes()
    # a cotangent the stack shares, here a 2-D input's, flags every matrix
    t = Tape()
    b = t.matmul(t.input("A"), t.input("W"))
    loss = t.l1_loss(t.svt(b, tau_param=t.parameter_scalar("tau")))
    g, ok = reference_gradient(t, {"A": A, "W": np.eye(3), "tau": 0.1}, loss)
    assert not np.isfinite(g.by_name("W")).all()
    assert ok.tolist() == [False, False, False]


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
