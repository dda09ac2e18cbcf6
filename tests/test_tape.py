"""Reverse-mode tape: forward semantics, VJP rules, graph invariants."""

import re
import sys

import numpy as np
import pytest

from svdgrad import GradMode, StabilityParams, SvtCache, Tape, ThresholdSpec, build_admm_tape, run_efficacy
from svdgrad.cli import main
from svdgrad.linalg import NonFiniteError

from oracles import finite_difference_loop, soft_threshold_loss_straightline
from test_backward import _random


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
    fd_a = finite_difference_loop(lambda X: t.forward({**binds, "A": X})[loss], A0, h=1e-7)
    assert np.linalg.norm(g.by_name("A") - fd_a) <= 1e-7 * np.linalg.norm(fd_a)
    fd_b = finite_difference_loop(lambda X: t.forward({**binds, "B": X})[loss], B0, h=1e-7)
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
    fd = finite_difference_loop(lambda X: t.forward({**binds, "A": X})[loss], A0)
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
    fd_a = finite_difference_loop(lambda X: t.forward({**binds, "A": X})[loss], A0)
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
    # the core; every node below the svt carries it, and the list names them
    # all, last node first (the matmul reaches A before A^H, so the order is
    # not the one the cotangents were first met in)
    t = Tape()
    a = t.input("A")
    ah = t.conj_transpose(a)
    m = t.matmul(a, ah)
    loss = t.l1_loss(t.svt(m, ThresholdSpec.hard_tail(0)))
    values = t.forward({"A": np.diag([1.0, 1.0, 0.5])})
    g = t.backward(values, loss, GradMode.exact())
    assert not g.all_finite()
    assert g.nonfinite_nodes == [m, ah, a]
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


def test_stacked_forward_and_backward_match_per_matrix():
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
        assert values[loss].tobytes() == np.array([run(A)[loss] for A in mats]).tobytes()
        # the stacked loss is seeded with ones: each matrix gets its own gradient
        g = t.backward(values, loss, GradMode.inv()).by_name("A")
        own = [t.backward(run(A), loss, GradMode.inv()).by_name("A") for A in mats]
        assert g.tobytes() == np.stack(own).tobytes(), through


def _every_op_tape():
    """A loss through every op of the tape: W and Z bind one 2-D matrix for
    the whole stack (a matmul operand and the mse_loss target), c and tau
    are parameters."""
    t = Tape()
    x, w, m, z = (t.input(name) for name in ("X", "W", "M", "Z"))
    c, tau = t.parameter_scalar("c"), t.parameter_scalar("tau")
    b = t.add(t.matmul(x, w), t.conj_transpose(x))
    d = t.scale_by_param(t.sub(b, t.hadamard(x, m)), c)
    e = t.svt(d, tau_param=tau)
    f = t.svt(e, ThresholdSpec.hard_tail(1))
    loss = t.add(t.add(t.l1_loss(f), t.mse_loss(e, z)), t.sum_singular_values(d))
    return t, loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_stacked_backward_through_every_op(dtype):
    from svdgrad.tape import _OPS

    rng = np.random.default_rng(62)
    t, loss = _every_op_tape()
    assert {node.op for node in t.nodes} == set(_OPS)
    N = 4
    X = _random(rng, (N, 4, 4), dtype)
    shared = {"W": _random(rng, (4, 4), dtype), "M": _random(rng, (4, 4), dtype),
              "Z": _random(rng, (4, 4), dtype)}
    c = rng.uniform(0.5, 2.0, N)
    tau = rng.uniform(0.05, 0.2, N)
    for mode in (GradMode.inv(), GradMode.taylor()):
        g = t.backward(t.forward({**shared, "X": X, "c": c, "tau": tau}), loss, mode)
        own = [t.backward(t.forward({**shared, "X": X[i], "c": c[i], "tau": tau[i]}), loss, mode)
               for i in range(N)]
        for node in t.nodes:
            stacked = g.cotangents.get(node.idx)
            if node.name in shared:
                assert stacked.shape == (4, 4)
                continue
            # every per-matrix cotangent, intermediate ones included, matches
            # the lone matrix's bit for bit; parameters bound per matrix too
            stacked = np.asarray(stacked)
            for i in range(N):
                lone = np.asarray(own[i].cotangents.get(node.idx), dtype=stacked.dtype)
                assert stacked[i].tobytes() == lone.tobytes(), (node.op, i)
        assert g.by_name("c").shape == g.by_name("tau").shape == (N,)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_shared_cotangents_are_the_sum_over_the_stack(dtype):
    # a parameter bound to a float, and a 2-D input bound once for the whole
    # stack, get the sum of the per-matrix cotangents
    rng = np.random.default_rng(63)
    t, loss = _every_op_tape()
    N = 5
    X = _random(rng, (N, 4, 4), dtype)
    shared = {"W": _random(rng, (4, 4), dtype), "M": _random(rng, (4, 4), dtype),
              "Z": _random(rng, (4, 4), dtype), "c": 1.3, "tau": 0.1}
    g = t.backward(t.forward({**shared, "X": X}), loss, GradMode.inv())
    own = [t.backward(t.forward({**shared, "X": X[i]}), loss, GradMode.inv()) for i in range(N)]
    for name in ("c", "tau"):
        assert isinstance(g.by_name(name), float)
        total = sum(o.by_name(name) for o in own)
        assert abs(g.by_name(name) - total) <= 1e-12 * abs(total), name
    for name in ("W", "M", "Z"):
        total = sum(o.by_name(name) for o in own)
        assert np.linalg.norm(g.by_name(name) - total) <= 1e-12 * np.linalg.norm(total), name
    # an input bound to a stack of one broadcasts like a 2-D one
    g1 = t.backward(t.forward({**shared, "W": shared["W"][None], "X": X}), loss, GradMode.inv())
    assert g1.by_name("W").shape == (1, 4, 4)
    assert np.array_equal(g1.by_name("W")[0], g.by_name("W"))


def test_stacked_backward_needs_a_scalar_loss():
    t = Tape()
    a = t.input("A")
    values = t.forward({"A": np.ones((3, 2, 2))})
    with pytest.raises(ValueError):
        t.backward(values, a, GradMode.inv())


def test_mse_loss_broadcasts_a_matrix_against_a_stack():
    rng = np.random.default_rng(20)
    stack = _random(rng, (3, 4, 5))
    target = _random(rng, (4, 5))
    t = Tape()
    loss = t.mse_loss(t.input("X"), t.input("Z"))
    per_matrix = [t.forward({"X": X, "Z": target})[loss] for X in stack]
    for binds in ({"X": stack, "Z": target}, {"X": target, "Z": stack}):
        values = t.forward(binds)
        assert values[loss].shape == (3,)
        assert values[loss].tobytes() == np.array(per_matrix).tobytes()
    for bad in (np.zeros((5, 4)), np.zeros((2, 4, 5)), np.zeros((3, 4, 4))):
        with pytest.raises(ValueError, match=re.escape(f"{stack.shape} vs {bad.shape}")):
            t.forward({"X": stack, "Z": bad})


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
    fd = finite_difference_loop(lambda X: t.forward({**binds, "A": X})[loss], A0)
    assert np.linalg.norm(g.by_name("A") - fd) <= 1e-5 * np.linalg.norm(fd)


# -- reusing an earlier forward's SVD ------------------------------------------


def _one_svd_tape(through):
    """(tape, SVD-backed node, loss) with one svt or sum_singular_values node
    on the input A; a parameter tau is bound as `tau`."""
    t = Tape()
    a = t.input("A")
    if through == "sum_singular_values":
        node = loss = t.sum_singular_values(a)
        return t, node, loss
    fixed = {"soft": ThresholdSpec.soft(0.3), "hard_tail": ThresholdSpec.hard_tail(1)}
    if through in fixed:
        node = t.svt(a, fixed[through])
    else:
        node = t.svt(a, tau_param=t.parameter_scalar("tau"))
    return t, node, t.l1_loss(node)


def _factors(values, node):
    state = values.saved[node]
    return getattr(state, "factors", state)


def _assert_same_forward(got, want):
    """Every value and every saved state, byte for byte."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert got.saved.keys() == want.saved.keys()
    for idx, state in want.saved.items():
        other = got.saved[idx]
        if isinstance(state, SvtCache):
            assert other.spec.kind == state.spec.kind and other.spec.d == state.spec.d
            pairs = [(other.s_hat, state.s_hat),
                     (np.asarray(other.spec.tau), np.asarray(state.spec.tau))]
            other, state = other.factors, state.factors
        else:
            pairs = []
        pairs += [(other.U, state.U), (other.s, state.s), (other.V, state.V)]
        for g, w in pairs:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("through", ["soft", "tau_float", "tau_per_matrix", "hard_tail",
                                     "sum_singular_values"])
def test_forward_reuses_the_svd_of_a_repeated_input(through, stack, dtype):
    rng = np.random.default_rng(71)
    t, node, loss = _one_svd_tape(through)
    A = _random(rng, stack + (5, 4), dtype)
    A[(0,) * A.ndim] = 0
    if through == "tau_per_matrix":
        taus = rng.uniform(0.1, 0.6, (2,) + stack)
    else:
        taus = rng.uniform(0.1, 0.6, 2).tolist()

    def run(X, tau, reuse=None):
        return t.forward({"A": X, "tau": tau}, reuse)

    prior = run(A, taus[0])
    # equal bytes in another array: the earlier factors, thresholded anew
    again = run(A.copy(), taus[1], prior)
    assert _factors(again, node) is _factors(prior, node)
    _assert_same_forward(again, run(A.copy(), taus[1]))
    for mode in (GradMode.inv(), GradMode.exact()):
        g, want = (t.backward(v, loss, mode).by_name("A") for v in (again, run(A, taus[1])))
        assert g.tobytes() == want.tobytes()

    # each of these decomposes again, and matches its own fresh forward
    flipped = A.copy()
    flipped[(0,) * A.ndim] = -flipped[(0,) * A.ndim]  # -0.0: equal, not the same bytes
    assert np.array_equal(flipped, A) and flipped.tobytes() != A.tobytes()
    bumped = A.copy()
    part = bumped.real
    part[(-1,) * A.ndim] = np.nextafter(part[(-1,) * A.ndim], np.inf)
    reshaped = A.reshape(stack + (4, 5))  # the same bytes in another shape
    other_dtype = {np.float32: np.float64, np.float64: np.float32,
                   np.complex64: np.complex128, np.complex128: np.complex64}[dtype]
    for changed in (flipped, bumped, reshaped, A.astype(other_dtype)):
        values = run(changed, taus[1], prior)
        assert _factors(values, node) is not _factors(prior, node)
        _assert_same_forward(values, run(changed, taus[1]))

    bad = A.copy()
    bad[(-1,) * A.ndim] = np.nan
    with pytest.raises(NonFiniteError):
        run(bad, taus[1], prior)


def test_forward_reuse_needs_the_same_dtype_not_only_the_same_bytes():
    # float64 and complex64 share an item size: the same bytes, shape and
    # strides, but another matrix
    rng = np.random.default_rng(72)
    A = rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64)
    t, node, _ = _one_svd_tape("soft")
    prior = t.forward({"A": A})
    other = A.view(np.complex64)
    assert other.shape == A.shape and other.tobytes() == A.tobytes()
    values = t.forward({"A": other}, prior)
    assert _factors(values, node) is not _factors(prior, node)
    _assert_same_forward(values, t.forward({"A": other}))


def test_forward_reuse_must_come_from_this_tape():
    t, _, _ = _one_svd_tape("soft")
    longer, _, _ = _one_svd_tape("tau_float")
    prior = longer.forward({"A": np.eye(3), "tau": 0.1})
    with pytest.raises(ValueError, match="reuse holds"):
        t.forward({"A": np.eye(3)}, prior)


# -- one backward under several modes -----------------------------------------

# every variant, and two with a t of their own
_PAIRED_MODES = [GradMode.exact(), GradMode.tf(), GradMode.clip(), GradMode.taylor(), GradMode.inv(),
                 GradMode.inv(StabilityParams(t=1e6)), GradMode.clip(stability=StabilityParams(t=1e6))]


def _assert_same_gradients(got, want):
    """The same cotangents, node by node: type, dtype, shape and bytes."""
    assert got.names == want.names and got.cotangents.keys() == want.cotangents.keys()
    for idx, w in want.cotangents.items():
        g = got.cotangents[idx]
        assert type(g) is type(w), idx
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes(), idx


def _paired(tape, values, loss, modes):
    """The backward under all of modes, checked against each mode's own."""
    paired = tape.backward(values, loss, modes)
    assert isinstance(paired, list) and len(paired) == len(modes)
    for mode, grads in zip(modes, paired):
        _assert_same_gradients(grads, tape.backward(values, loss, mode))
    return paired


def _check_paired_backwards(monkeypatch):
    """Tape.backward, patched to check every call under several modes
    against the lone calls; returns the list of the checked calls' tapes."""
    checked = []
    original = Tape.backward

    def checking(self, values, loss, mode):
        out = original(self, values, loss, mode)
        if not isinstance(mode, GradMode):
            for m, grads in zip(mode, out):
                _assert_same_gradients(grads, original(self, values, loss, m))
            checked.append((self, values))
        return out

    monkeypatch.setattr(Tape, "backward", checking)
    return checked


@pytest.mark.parametrize("basis", ["rotated", "identity"])
def test_paired_backward_on_the_efficacy_workflow_stacks(monkeypatch, basis):
    checked = _check_paired_backwards(monkeypatch)
    modes = [GradMode.tf(), GradMode.clip(stability=StabilityParams(t=1e6)), GradMode.taylor(), GradMode.inv()]
    report = run_efficacy(3, modes, seeds=(7,), basis=basis)
    assert np.isfinite([c.mse_sum for c in report.cells]).all()
    # one stack per workflow, of both cases' trials
    assert len(checked) == 3
    assert all(values[tape.names["A"]].shape == (6, 10, 10) for tape, values in checked)


def test_paired_backward_on_the_gradcheck_tapes(monkeypatch, capsys):
    checked = _check_paired_backwards(monkeypatch)
    assert main(["gradcheck", "--checks", "2", "--seed", "5"]) == 0
    capsys.readouterr()
    # the four op groups, each on a real and on a complex128 matrix
    dtypes = [values[tape.names["A"]].dtype for tape, values in checked]
    assert dtypes == [np.dtype(np.float64), np.dtype(np.complex128)] * 4


def test_paired_backward_where_cotangents_split_and_meet():
    # past the second svt each mode has its own cotangent; the first svt and
    # L_1 take a per-mode cotangent and one that all modes share
    rng = np.random.default_rng(83)
    tape, x = build_admm_tape(2)
    loss = tape.mse_loss(x, tape.input("target"))
    Y = rng.standard_normal((3, 6, 5)).astype(np.float32)
    mask = (rng.random(Y.shape) < 0.6).astype(np.float32)
    binds = {"Y": Y, "mask": mask, "unobserved": 1 - mask, "L0": np.zeros_like(Y),
             "target": rng.standard_normal((6, 5)).astype(np.float32),
             "tau_1": 0.4, "eta_1": 0.8, "tau_2": 0.3, "eta_2": 0.5}
    paired = _paired(tape, tape.forward(binds), loss, _PAIRED_MODES)
    # tau_2's cotangent comes before any mode-dependent node: one object
    assert all(p.by_name("tau_2") is paired[0].by_name("tau_2") for p in paired)
    assert len({p.by_name("tau_1") for p in paired}) > 1


@pytest.mark.parametrize("dtype", [np.float32, np.complex128])
def test_paired_backward_through_two_svd_nodes(dtype):
    rng = np.random.default_rng(84)
    t = Tape()
    a = t.input("A")
    loss = t.add(t.sum_singular_values(a), t.l1_loss(t.svt(a, tau_param=t.parameter_scalar("tau"))))
    A = _random(rng, (4, 6, 5), dtype)
    values = t.forward({"A": A, "tau": np.array([0.1, 0.2, 0.3, 0.4])})
    _paired(t, values, loss, _PAIRED_MODES)
    # a one-mode list gives a list of one set
    (one,) = _paired(t, values, loss, [GradMode.inv()])
    _assert_same_gradients(one, t.backward(values, loss, (GradMode.inv(),))[0])


def _count_everywhere(monkeypatch, name, record):
    """Wrap svdgrad.backward's `name` at every svdgrad module attribute bound
    to it, as the benchmark tracer does; each call appends its arguments."""
    import svdgrad.backward as backward

    original = getattr(backward, name)

    def counting(*args, **kwargs):
        record.append((args, kwargs))
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname == "svdgrad" or modname.startswith("svdgrad."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)


def test_paired_backward_shares_the_pullback_and_classification(monkeypatch):
    calls = {name: [] for name in ("build_aux", "svd_vjp", "_pullback", "_classify")}
    for name, record in calls.items():
        _count_everywhere(monkeypatch, name, record)
    rng = np.random.default_rng(85)
    t = Tape()
    a = t.input("A")
    loss = t.add(t.sum_singular_values(a), t.l1_loss(t.svt(a, ThresholdSpec.hard_tail(1))))
    A = rng.standard_normal((5, 6, 4)).astype(np.float32)
    values = t.forward({"A": A})
    # every mode, with the float32 default t and 1e6; a lone mode takes the
    # same path with the default t
    for mode, ts in ((_PAIRED_MODES, [1e6, 1e30]), (GradMode.inv(), [1e30])):
        for record in calls.values():
            record.clear()
        t.backward(values, loss, mode)
        # per SVD node: one pullback, one classification per distinct t, one
        # svd_vjp per mode with that mode and the shared pullback, and one
        # build_aux per spectrum and mode
        modes = [mode] if isinstance(mode, GradMode) else mode
        assert len(calls["_pullback"]) == 2
        assert sorted(args[1] for args, _ in calls["_classify"]) == sorted(ts * 2)
        assert [args[4] for args, _ in calls["svd_vjp"]] == modes * 2
        assert all(set(kwargs) == {"pullback"} for _, kwargs in calls["svd_vjp"])
        assert len(calls["build_aux"]) == 2 * len(modes) * 5
        assert all(args[0].shape == (4,) and isinstance(args[1], GradMode) for args, _ in calls["build_aux"])


def test_backward_refuses_what_is_not_a_mode():
    t = Tape()
    loss = t.sum_singular_values(t.input("A"))
    values = t.forward({"A": np.eye(3)})
    with pytest.raises(ValueError, match="at least one mode"):
        t.backward(values, loss, [])
    for bad in ("inv", [GradMode.inv(), "tf"], None):
        with pytest.raises(TypeError, match="GradMode"):
            t.backward(values, loss, bad)
