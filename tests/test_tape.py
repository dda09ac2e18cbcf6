"""Reverse-mode tape: forward semantics, VJP rules, graph invariants."""

import numpy as np
import pytest

from svdgrad import GradMode, Tape, ThresholdSpec

from oracles import soft_threshold_loss_straightline
from test_backward import _fd, _random


def test_l1_forward():
    t = Tape()
    a = t.input("X")
    loss = t.l1_loss(a)
    values = t.forward({"X": np.array([[-2.0, 1.0]])})
    assert values[loss] == 3.0


def test_mse_forward_identical_inputs():
    t = Tape()
    x = t.input("X")
    y = t.input("Y")
    loss = t.mse_loss(x, y)
    A = np.arange(6.0).reshape(2, 3)
    values = t.forward({"X": A, "Y": A.copy()})
    assert values[loss] == 0.0


def test_soft_threshold_graph_matches_straightline():
    rng = np.random.default_rng(40)
    A = _random(rng, (7, 7))
    tau = 0.8
    t = Tape()
    a = t.input("A")
    loss = t.l1_loss(t.svt(a, ThresholdSpec.soft(tau)))
    values = t.forward({"A": A})
    ref = soft_threshold_loss_straightline(A, tau)
    assert values[loss] == pytest.approx(ref, rel=1e-10)


def test_mse_backward_example():
    t = Tape()
    x = t.input("X")
    z = t.input("Z")
    loss = t.mse_loss(x, z)
    X = np.array([[1.0, 2.0]])
    values = t.forward({"X": X, "Z": np.zeros((1, 2))})
    g = t.backward(values, loss, GradMode.inv())
    assert np.array_equal(g.by_name("X"), np.array([[1.0, 2.0]]))


def test_sum_singular_values_backward_diagonal():
    t = Tape()
    a = t.input("A")
    loss = t.sum_singular_values(a)
    values = t.forward({"A": np.diag([3.0, 2.0, 1.0])})
    g = t.backward(values, loss, GradMode.inv())
    assert np.allclose(g.by_name("A"), np.eye(3), atol=1e-14)


def test_backward_matches_fd_without_svd():
    rng = np.random.default_rng(41)
    A0 = _random(rng, (4, 4))
    B0 = _random(rng, (4, 4))
    mask = rng.random((4, 4)) < 0.6
    t = Tape()
    a = t.input("A")
    b = t.input("B")
    p = t.parameter_scalar("p")
    z = t.input("Z")
    m = t.input("M")
    x = t.sub(t.matmul(a, b), t.hadamard(a, a))
    x = t.add(x, t.conj_transpose(a))
    x = t.hadamard(t.scale_by_param(x, p), m)
    loss = t.mse_loss(x, z)
    binds = {"A": A0, "B": B0, "p": 0.7, "Z": np.zeros((4, 4)), "M": mask.astype(A0.dtype)}
    values = t.forward(binds)
    g = t.backward(values, loss, GradMode.inv())
    fd_a = _fd(lambda X: t.forward({**binds, "A": X})[loss], A0, h=1e-7)
    assert np.linalg.norm(g.by_name("A") - fd_a) <= 1e-7 * np.linalg.norm(fd_a)
    fd_b = _fd(lambda X: t.forward({**binds, "B": X})[loss], B0, h=1e-7)
    assert np.linalg.norm(g.by_name("B") - fd_b) <= 1e-7 * np.linalg.norm(fd_b)
    h = 1e-7
    fd_p = (t.forward({**binds, "p": 0.7 + h})[loss] - t.forward({**binds, "p": 0.7 - h})[loss]) / (2 * h)
    assert g.by_name("p") == pytest.approx(fd_p, rel=1e-7)


def test_backward_matches_fd_soft_svt_mse():
    rng = np.random.default_rng(42)
    A0 = _random(rng, (5, 5))
    s = np.linalg.svd(A0, compute_uv=False)
    tau = float((s[2] + s[3]) / 2)
    t = Tape()
    a = t.input("A")
    z = t.input("Z")
    loss = t.mse_loss(t.svt(a, ThresholdSpec.soft(tau)), z)
    binds = {"A": A0, "Z": np.zeros((5, 5))}
    values = t.forward(binds)
    g = t.backward(values, loss, GradMode.inv())
    fd = _fd(lambda X: t.forward({**binds, "A": X})[loss], A0)
    assert np.linalg.norm(g.by_name("A") - fd) <= 1e-5 * np.linalg.norm(fd)


def test_backward_matches_fd_svt_tau_param():
    rng = np.random.default_rng(43)
    A0 = _random(rng, (5, 5))
    s = np.linalg.svd(A0, compute_uv=False)
    tau0 = float((s[2] + s[3]) / 2)
    t = Tape()
    a = t.input("A")
    tp = t.parameter_scalar("tau")
    loss = t.l1_loss(t.svt(a, tau_param=tp))
    binds = {"A": A0, "tau": tau0}
    values = t.forward(binds)
    g = t.backward(values, loss, GradMode.inv())
    h = 1e-6
    fd_tau = (t.forward({**binds, "tau": tau0 + h})[loss] - t.forward({**binds, "tau": tau0 - h})[loss]) / (2 * h)
    assert g.by_name("tau") == pytest.approx(fd_tau, rel=1e-5)
    fd_a = _fd(lambda X: t.forward({**binds, "A": X})[loss], A0)
    assert np.linalg.norm(g.by_name("A") - fd_a) <= 1e-5 * np.linalg.norm(fd_a)


def test_gradient_independent_of_construction_order():
    rng = np.random.default_rng(45)
    A0 = _random(rng, (4, 4))
    B0 = _random(rng, (4, 4))

    t1 = Tape()
    a = t1.input("A")
    b = t1.input("B")
    mm = t1.matmul(a, b)
    hh = t1.hadamard(a, a)
    loss1 = t1.l1_loss(t1.add(mm, hh))

    t2 = Tape()
    b = t2.input("B")
    a = t2.input("A")
    hh = t2.hadamard(a, a)
    mm = t2.matmul(a, b)
    loss2 = t2.l1_loss(t2.add(mm, hh))

    binds = {"A": A0, "B": B0}
    g1 = t1.backward(t1.forward(binds), loss1, GradMode.inv())
    g2 = t2.backward(t2.forward(binds), loss2, GradMode.inv())
    # A collects three contributions; a different reversal order only
    # reassociates that float sum
    ga1, ga2 = g1.by_name("A"), g2.by_name("A")
    assert np.allclose(ga1, ga2, rtol=1e-13, atol=1e-13)
    assert np.array_equal(g1.by_name("B"), g2.by_name("B"))


def test_unreached_nodes_have_no_gradient():
    rng = np.random.default_rng(46)
    t = Tape()
    a = t.input("A")
    unused = t.input("W")
    loss = t.l1_loss(a)
    values = t.forward({"A": _random(rng, (3, 3)), "W": _random(rng, (2, 2))})
    g = t.backward(values, loss, GradMode.inv())
    assert g.by_name("W") is None
    assert g.by_name("A") is not None


def test_nonfinite_cotangent_reported_with_node_id():
    # exact mode on an exactly duplicated spectrum produces inf * 0 = NaN in
    # the core; the input node must be listed as carrying the bad cotangent
    t = Tape()
    a = t.input("A")
    loss = t.l1_loss(t.svt(a, ThresholdSpec.hard_tail(0)))
    values = t.forward({"A": np.diag([2.0, 2.0, 1.0])})
    g = t.backward(values, loss, GradMode.exact())
    assert not g.all_finite()
    assert t.names["A"] in g.nonfinite_nodes
    g_inv = t.backward(values, loss, GradMode.inv())
    assert g_inv.all_finite()
    assert g_inv.nonfinite_nodes == []


def test_forward_errors():
    t = Tape()
    a = t.input("A")
    b = t.input("B")
    t.mse_loss(a, b)
    with pytest.raises(ValueError):
        t.forward({"A": np.zeros((2, 2))})  # B unbound
    with pytest.raises(ValueError):
        t.forward({"A": np.zeros((2, 2)), "B": np.zeros((3, 3))})


def test_stacked_forward_runs_and_backward_refuses():
    rng = np.random.default_rng(19)
    mats = [_random(rng, (4, 3)) for _ in range(3)]
    for through in ("svt", "svt_tau_param", "hard_tail", "sum_singular_values"):
        t = Tape()
        a = t.input("A")
        if through == "svt":
            b = t.svt(a, ThresholdSpec.soft(0.3))
        elif through == "svt_tau_param":
            b = t.svt(a, tau_param=t.parameter_scalar("tau"))
        elif through == "hard_tail":
            b = t.svt(a, ThresholdSpec.hard_tail(0))
        else:
            b = a
        loss = t.sum_singular_values(b) if through == "sum_singular_values" else t.l1_loss(b)

        def run(A):
            return t.forward({"A": A, "tau": 0.3})

        values = run(np.stack(mats))
        per_matrix = [run(A)[b] for A in mats]
        assert values[b].tobytes() == np.stack(per_matrix).tobytes()
        assert values[loss] == pytest.approx(sum(run(A)[loss] for A in mats), rel=1e-14)
        with pytest.raises(ValueError):
            t.backward(values, loss, GradMode.inv())


def test_construction_errors():
    t = Tape()
    a = t.input("A")
    with pytest.raises(ValueError):
        t.input("A")  # duplicate name
    with pytest.raises(ValueError):
        t.scale_by_param(a, a)  # not a parameter node
    with pytest.raises(ValueError):
        t.svt(a)  # needs spec or tau_param
    with pytest.raises(ValueError):
        t.matmul(a, 99)  # parent out of range
    values = t.forward({"A": np.ones((2, 2))})
    with pytest.raises(ValueError):
        t.backward(values, a, GradMode.inv())  # loss node not a scalar


def test_multiple_consumers_of_one_svd():
    # the sum of singular values and the reconstruction MSE are two
    # SVD-backed consumers of one input, whose cotangents add up there
    rng = np.random.default_rng(47)
    A0 = _random(rng, (4, 4))
    t = Tape()
    a = t.input("A")
    z = t.input("Z")
    loss = t.add(t.sum_singular_values(a), t.mse_loss(t.svt(a, ThresholdSpec.hard_tail(0)), z))
    binds = {"A": A0, "Z": 0.5 * A0}
    values = t.forward(binds)
    g = t.backward(values, loss, GradMode.inv())
    fd = _fd(lambda X: t.forward({**binds, "A": X})[loss], A0)
    assert np.linalg.norm(g.by_name("A") - fd) <= 1e-5 * np.linalg.norm(fd)
