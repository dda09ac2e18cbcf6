"""Independent reference routines the tests check the library against.

Everything here deliberately avoids the library's own code paths: the SVD is
a hand-rolled one-sided Jacobi (no LAPACK), and the nuclear-norm prox shrinks
the Jacobi spectrum directly. The per-item loops at the end are the plain
forms that vectorized library code must reproduce bit for bit, among them
the finite-difference loop that perturbs one entry per loss call. The last
routine assembles the reconstruct-through-SVD gradient by hand from the
public `svd` and `svd_vjp`; the tape's svt with hard_tail(0) must match it bit
for bit. The unrolled solvers' reparameterisation is also written out by hand,
per algorithm, for the table-driven bindings and chain rule to match exactly.
`build_aux_reference` keeps the auxiliary-matrix construction as it stood
before `build_aux` was rewritten for speed; the rewrite must match its bytes.
`gradcheck_case_reference` keeps one gradcheck check as it stood before each
distinct forward ran only once: a standalone svt for the kink test, and the
FD of the chain group's parameter one forward per perturbed value.
Slow is fine; these run on small matrices only.
"""

import numpy as np

from svdgrad import (
    Tape,
    ThresholdSpec,
    finite_difference,
    reference_gradient,
    svd,
    svd_vjp,
    unrolled_forward,
)
from svdgrad.experiments import (
    _CASE_SCALES,
    _PRECISIONS,
    CellStats,
    EfficacyReport,
    Scenario,
    _normalize_modes,
    _rng,
    _workflow_tape,
)
from svdgrad.svt import svt


def conj_transpose(A):
    """A^H of one matrix, as a fresh array."""
    return np.asarray(A).conj().T.copy()


def build_aux_reference(s, mode):
    """(FS, T, s_pinv) of one float spectrum, formed step by step as
    `build_aux` did before its rewrite (less the F it no longer returns)."""
    s = np.asarray(s)
    if s.ndim != 1:
        raise ValueError(f"singular values must be a vector, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("singular values contain non-finite entries")
    if (s < 0).any():
        raise ValueError("singular values must be nonnegative")
    rdt = s.dtype
    if rdt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(f"dtype must be a real float type, got {rdt}")
    k = s.shape[0]
    t, clamp = mode.stability.resolve(rdt)
    clamp = min(clamp, float(np.finfo(rdt).max))
    safe = mode.variant != "exact"
    one = rdt.type(1)

    def clamp_nonfinite(x):
        finite = np.isfinite(x)
        if finite.all():
            return x
        return np.where(finite, x, np.copysign(clamp, x))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        scale = s.max(initial=0)
        if scale == 0:
            scale = s.dtype.type(1)
        gap = ((s[None, :] - s[:, None]) / scale) * ((s[None, :] + s[:, None]) / scale)
        equal = np.abs(gap).astype(np.float64) < 1.0 / float(t)
        zero = s == 0
        if mode.variant == "taylor":
            hi = np.maximum(s[:, None], s[None, :])
            lo = np.minimum(s[:, None], s[None, :])
            ratio = np.square(lo / hi)
            series = np.zeros_like(ratio)
            term = np.ones_like(ratio)
            for _ in range(mode.taylor_k + 1):
                series += term
                term = term * ratio
            h = hi / scale
            sgn = np.sign(s[None, :] - s[:, None])
            F_rel = np.where(hi > lo, series / (h * h), 0) * sgn
        else:
            F_rel = one / gap
            if safe:
                F_rel[equal] = 0
            else:
                F_rel[zero[:, None] & zero[None, :]] = 0
                np.fill_diagonal(F_rel, 0)
        if safe:
            F_rel = clamp_nonfinite(F_rel)
        FS = F_rel * (s / scale)[None, :] / scale
        if mode.variant == "clip":
            Fc = np.sign(s[None, :] - s[:, None]) * rdt.type(mode.clip_value)
            FS = np.where(equal, Fc * s[None, :], FS)
        if safe:
            FS = clamp_nonfinite(FS)

        T = np.zeros((k, k), dtype=rdt)
        if mode.variant == "inv":
            fill = equal & ~(zero[:, None] & zero[None, :])
            np.fill_diagonal(fill, False)
            if fill.any():
                T = np.where(fill, np.minimum(one / s, clamp)[None, :], T)

        s_pinv = np.where(zero, 0, one / s)
        if safe:
            s_pinv = np.minimum(s_pinv, clamp)
    return FS, T, s_pinv


def jacobi_svd(A, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi SVD of a real or complex matrix.

    Returns (U, s, V) with A = U @ diag(s) @ V.conj().T, s descending and
    nonnegative, U m-by-k and V n-by-k for k = min(m, n). Columns belonging
    to zero singular values are left as zeros in U; they contribute nothing
    to the reconstruction, which is all the tests use them for.
    """
    A = np.asarray(A)
    m, n = A.shape
    if m < n:
        V, s, U = jacobi_svd(A.conj().T, tol=tol, max_sweeps=max_sweeps)
        return U, s, V
    W = A.astype(np.complex128 if np.iscomplexobj(A) else np.float64)
    V = np.eye(n, dtype=W.dtype)
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                p = W[:, i]
                q = W[:, j]
                alpha = np.real(np.vdot(p, p))
                beta = np.real(np.vdot(q, q))
                gamma = np.vdot(p, q)
                if alpha == 0 or beta == 0:
                    continue
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                # phase-align column j so the pair rotation is real
                phase = gamma / abs(gamma)
                zeta = (beta - alpha) / (2 * abs(gamma))
                t = np.sign(zeta) if zeta != 0 else 1.0
                t = t / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s_ = c * t
                G = np.array(
                    [[c, s_], [-s_ * np.conj(phase), c * np.conj(phase)]],
                    dtype=W.dtype,
                )
                W[:, [i, j]] = W[:, [i, j]] @ G
                V[:, [i, j]] = V[:, [i, j]] @ G
        if not rotated:
            break
    s = np.sqrt(np.sum(np.abs(W) ** 2, axis=0))
    U = np.zeros_like(W)
    nz = s > 0
    U[:, nz] = W[:, nz] / s[nz]
    order = np.argsort(-s, kind="stable")
    return U[:, order], s[order], V[:, order]


def nuclear_prox(A, tau):
    """argmin_X 0.5*||X - A||_F^2 + tau*||X||_* via Jacobi SVD and shrink."""
    U, s, V = jacobi_svd(A)
    shrunk = np.maximum(s - tau, 0.0)
    return (U * shrunk[None, :]) @ V.conj().T


def soft_threshold_loss_straightline(A, tau):
    """L1 norm of U max(S - tau, 0) V^H, computed without the tape or LAPACK."""
    U, s, V = jacobi_svd(A)
    shrunk = np.maximum(s - tau, 0.0)
    B = (U * shrunk[None, :]) @ V.conj().T
    return float(np.abs(B).sum())


def gauge_fixed_svd_loop(A):
    """Economy (U, s, V) of one matrix with the library's gauge, column by
    column: each U column's first exactly-nonzero entry made real positive."""
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    V = Vh.conj().T
    for j in range(s.shape[0]):
        col = U[:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        lead = col[nz[0]]
        phase = np.conj(lead / abs(lead))
        if phase != 1:
            U[:, j] = col * phase
            V[:, j] = V[:, j] * phase
            U[nz[0], j] = abs(lead)
    return U, s, V


def finite_difference_loop(loss, at, h=1e-6):
    """Central differences one entry at a time, `loss` taking one matrix:
    at[ix] +- d*h for d in 1 (and 1j for complex input), in C order."""
    is_complex = np.iscomplexobj(at)
    grad = np.zeros_like(at)
    it = np.nditer(at, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        parts = []
        for d in [1.0, 1.0j] if is_complex else [1.0]:
            step = at.dtype.type(d * h)
            plus = at.copy()
            plus[ix] += step
            minus = at.copy()
            minus[ix] -= step
            fp, fm = loss(plus), loss(minus)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError(f"non-finite loss when perturbing entry {ix}")
            parts.append((fp - fm) / (2 * h))
        grad[ix] = parts[0] + 1.0j * parts[1] if is_complex else parts[0]
        it.iternext()
    return grad


def val_mse_per_sample(config, val_set, positive):
    """Held-out MSE with one solver tape built and run per validation sample."""
    dt = _PRECISIONS[config.precision]
    total = 0.0
    for Y, mask, X_true in val_set:
        X = unrolled_forward(Y.astype(dt), mask, config, positive)
        total += float(np.mean((X.astype(np.float64) - X_true) ** 2))
    return total / len(val_set)


def reconstruct_l1_gradient(A, mode):
    """Gradient of ||U S V^H||_1 through the SVD, from the factor cotangents
    Ubar = g V S, Vbar = g^H U S and sbar = Re diag(U^H g V) of g = sign(B)."""
    factors = svd(A)
    B = factors.reconstruct()
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(B == 0, np.asarray(0, dtype=B.dtype), B / np.abs(B))
    s_d = factors.s.astype(g.dtype, copy=False)
    gV = g @ factors.V
    Ubar = gV * s_d[None, :]
    Vbar = (g.conj().T @ factors.U) * s_d[None, :]
    sbar = np.real(np.einsum("ij,ij->j", factors.U.conj(), gV))
    return svd_vjp(factors, Ubar, sbar, Vbar, mode)


def bind_tape_params(config, positive):
    """Tape parameters (tau_i, eta_i / rho_i) from the positive scalars."""
    out = {}
    for i in range(1, config.n_unroll + 1):
        if config.algorithm == "admm":
            out[f"tau_{i}"] = positive[f"lambda_{i}"] / positive[f"mu_{i}"]
            out[f"eta_{i}"] = positive[f"eta_{i}"]
        else:
            out[f"tau_{i}"] = positive[f"lambda_{i}"] * positive[f"rho_{i}"]
            out[f"rho_{i}"] = positive[f"rho_{i}"]
    return out


def theta_grads(config, bound, tape_grads):
    """Chain tape-parameter gradients to log-space scalars by hand: with
    theta = log(p), dL/dtheta = dL/dp * p, and tau composes as lambda/mu
    (ADMM) or lambda*rho (PGD), so d tau/d theta is +-tau."""
    g = {}
    for i in range(1, config.n_unroll + 1):
        dtau = tape_grads.get(f"tau_{i}", 0.0)
        tau = bound[f"tau_{i}"]
        g[f"lambda_{i}"] = dtau * tau
        if config.algorithm == "admm":
            g[f"mu_{i}"] = -dtau * tau
            g[f"eta_{i}"] = tape_grads.get(f"eta_{i}", 0.0) * bound[f"eta_{i}"]
        else:
            g[f"rho_{i}"] = dtau * tau + tape_grads.get(f"rho_{i}", 0.0) * bound[f"rho_{i}"]
    return g


def scenario_parts_per_trial(spec):
    """One scenario's double-precision matrix and designed spectrum, drawn
    and rotated as a lone 2-D matrix (the batched generator's reference)."""
    rng = _rng(spec.seed)
    m, n = spec.size
    k = min(m, n)
    scale = _CASE_SCALES[spec.case]
    sigma0 = abs(rng.standard_normal()) * scale
    sigma1 = sigma0 + sigma0 * 1e-15
    rest = np.abs(rng.standard_normal(k - 2)) * scale
    s = np.concatenate([[sigma0, sigma1], rest])
    A = np.zeros((m, n), dtype=np.float64)
    A[:k, :k] = np.diag(s)
    if spec.basis == "rotated":
        haar = []
        for size in (m, n):
            q, r = np.linalg.qr(rng.standard_normal((size, size)))
            haar.append(q * np.sign(np.diag(r)))
        A = haar[0] @ A @ haar[1].T
    return A, s


def _efficacy_trial(solver, master, case, workflow, trial, size, basis, modes):
    """One paired trial scored alone: (per-mode (sumsq, meansq), attempts)."""
    tape, loss = solver
    attempt = 0
    while True:
        spec = Scenario(case=case, seed=(master, case, workflow, trial, attempt), size=size, basis=basis)
        A64, svals = scenario_parts_per_trial(spec)
        valid = True
        if workflow == 2:
            sd = np.linalg.svd(A64, compute_uv=False)
            a2, b2 = sd[-3] ** 2, sd[-2] ** 2
            valid = a2 - b2 >= np.finfo(np.float32).eps * a2
        if valid:
            sd = np.sort(svals)[::-1]
            bindings = {"A": A64, "tau": float((sd[-2] + sd[-3]) / 2)}
            ref, ok = reference_gradient(tape, bindings, loss)
            if ok:
                break
        attempt += 1
        if attempt > 200:
            raise RuntimeError("reference stayed invalid")
    Aref = ref.by_name("A")
    values32 = tape.forward({**bindings, "A": A64.astype(np.float32)})
    per_mode = []
    for mode in modes:
        diff = tape.backward(values32, loss, mode).by_name("A").astype(np.float64) - Aref
        sumsq = float(np.sum(diff * diff))
        per_mode.append((sumsq, sumsq / diff.size))
    return per_mode, attempt


def efficacy_report_per_trial(n_trials, modes, cases=(1, 2), workflows=(1, 2, 3), seeds=(3407,),
                              size=(10, 10), basis="rotated"):
    """The efficacy report with every trial generated, referenced and scored
    on its own, one 2-D forward and backward at a time."""
    modes = _normalize_modes(modes)
    cells = []
    for case in cases:
        for workflow in workflows:
            solver = _workflow_tape(workflow)
            sums = [0.0] * len(modes)
            means = [0.0] * len(modes)
            invalid = 0
            for master in seeds:
                for trial in range(n_trials):
                    per_mode, attempts = _efficacy_trial(
                        solver, master, case, workflow, trial, size, basis, modes
                    )
                    invalid += attempts
                    for i, (sumsq, meansq) in enumerate(per_mode):
                        sums[i] += sumsq
                        means[i] += meansq
            for i, mode in enumerate(modes):
                t, clamp = mode.stability.resolve(np.float32)
                cells.append(CellStats(
                    case=case, workflow=workflow, mode=mode.variant, trials=n_trials * len(seeds),
                    mse_sum=sums[i], mse_mean=means[i], invalid_trials=invalid,
                    seed_list=tuple(seeds), t=t, clamp=clamp, taylor_k=mode.taylor_k,
                ))
    config = {
        "n_trials": n_trials, "modes": [m.variant for m in modes], "cases": list(cases),
        "workflows": list(workflows), "seeds": list(seeds), "size": list(size), "basis": basis,
        "precision": "single", "reference": "double/exact",
    }
    return EfficacyReport(cells=cells, config=config)


def separated_matrix_reference(rng, n, complex_):
    """Random n x n double matrix whose singular values are >= 0.3 apart."""
    s = np.linspace(2.0, 2.0 + 0.5 * (n - 1), n) + rng.uniform(0, 0.1, n)
    if complex_:
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    else:
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * s[None, :]) @ q2.conj().T, s


def gradcheck_case_reference(op, rng, cfg, complex_):
    """One FD-vs-analytic check; returns (fd rel err, exact-vs-inv rel gap)."""
    n = int(rng.integers(4, 8))
    A, svals = separated_matrix_reference(rng, n, complex_)
    tape = Tape()
    a = tape.input("A")
    extra: dict[str, np.ndarray] = {}
    if op == "sum_singular_values":
        loss = tape.sum_singular_values(a)
    elif op == "svt_mse":
        z = tape.input("Z")
        extra["Z"] = np.zeros_like(A)
        loss = tape.mse_loss(tape.svt(a, ThresholdSpec.soft(float(np.sort(svals)[1] * 0.5))), z)
    elif op == "svt":
        # the L1 loss has kinks at zero entries; redraw until the output is
        # safely away from them at the FD step size
        use_soft = rng.random() < 0.5
        for _ in range(50):
            sd = np.sort(svals)
            spec = (
                ThresholdSpec.soft(float((sd[1] + sd[2]) / 2))
                if use_soft
                else ThresholdSpec.hard_tail(2)
            )
            B, _, _ = svt(A, spec)
            if float(np.abs(B).min()) > 1e-4:
                break
            A, svals = separated_matrix_reference(rng, n, complex_)
        loss = tape.l1_loss(tape.svt(a, spec))
    elif op == "chain":
        z = tape.input("Z")
        extra["Z"] = np.zeros_like(A)
        p = tape.parameter_scalar("c")
        extra["c"] = 0.7
        extra["M"] = (rng.random((n, n)) < 0.6).astype(A.dtype)
        h = tape.hadamard(a, a)
        m1 = tape.matmul(a, tape.conj_transpose(a))
        s2 = tape.sub(tape.add(m1, h), a)
        loss = tape.mse_loss(tape.scale_by_param(tape.hadamard(s2, tape.input("M")), p), z)
    else:  # pragma: no cover
        raise ValueError(op)

    def loss_fn(stack):
        return tape.forward({"A": stack, **extra})[loss]

    fd = finite_difference(loss_fn, A)
    values = tape.forward({"A": A, **extra})
    g_exact = tape.backward(values, loss, cfg.grad_mode("exact")).by_name("A")
    grads_inv = tape.backward(values, loss, cfg.grad_mode("inv"))
    g_inv = grads_inv.by_name("A")
    ref = max(float(np.linalg.norm(fd)), 1e-30)
    fd_err = float(np.linalg.norm(g_inv - fd)) / ref
    mode_gap = float(np.linalg.norm(g_inv - g_exact)) / max(float(np.linalg.norm(g_exact)), 1e-30)
    if op == "chain":
        c = np.array([extra["c"]], dtype=np.float64)

        def loss_c(cs):
            # c binds a scalar parameter, so its perturbed values run one by one
            return [tape.forward({"A": A, **extra, "c": float(cv[0])})[loss] for cv in cs]

        fd_c = finite_difference(loss_c, c)
        g_c = grads_inv.by_name("c")
        fd_err = max(fd_err, abs(float(fd_c[0]) - g_c) / max(abs(float(fd_c[0])), 1e-30))
    return fd_err, mode_gap
