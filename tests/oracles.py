"""Independent reference routines the tests check the library against.

Everything here deliberately avoids the library's own code paths: the SVD is
a hand-rolled one-sided Jacobi (no LAPACK), and the nuclear-norm prox shrinks
the Jacobi spectrum directly. The per-item loops at the end are the plain
forms that vectorized library code must reproduce bit for bit. The last
routine assembles the reconstruct-through-SVD gradient by hand from the
public `svd` and `svd_vjp`; the tape's svt with hard_tail(0) must match it bit
for bit. The unrolled solvers' reparameterisation is also written out by hand,
per algorithm, for the table-driven bindings and chain rule to match exactly.
Slow is fine; these run on small matrices only.
"""

import numpy as np

from svdgrad import svd, svd_vjp, unrolled_forward
from svdgrad.experiments import _dtype_of


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


def val_mse_per_sample(config, val_set, positive):
    """Held-out MSE with one solver tape built and run per validation sample."""
    dt = _dtype_of(config)
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
    return svd_vjp(A, factors, Ubar, sbar, Vbar, mode)


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
