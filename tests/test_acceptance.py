"""Release acceptance gate.

One test per shipping criterion, each with its tolerance and runtime
budget stated inline and a single printed verdict line. These are
deliberately end-to-end: they exercise the public API the way the
benchmark and training demos do, not internal helpers.

Criterion 4 (benchmark ordering in all six cells) is asserted exactly as
stated. It depends on the equal-pair rule being relative to the largest
singular value: case 2 places its spectra near 1e-18, where an absolute
threshold would call every pair equal in single precision. A cheaper
60-trial slice of the same ordering is pinned in test_experiments.py.
"""

import time

import numpy as np
import pytest

from svdgrad.backward import GradMode, build_aux, svd_vjp
from svdgrad.experiments import (
    UnrolledConfig,
    _scenario_parts,
    _workflow_tape,
    _workflow_tau,
    run_efficacy,
    train_unrolled,
)
from svdgrad.linalg import SvdFactors, svd
from svdgrad.oracle import finite_difference
from svdgrad.svt import ThresholdSpec, svt
from svdgrad.tape import Tape

from oracles import conj_transpose, nuclear_prox

MASTER_SEEDS = (3407, 3408, 3409)


def _verdict(num, name, ok, detail):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def _haar(m, k, cplx, rng, dtype=np.float64):
    X = rng.standard_normal((m, k))
    if cplx:
        X = X + 1j * rng.standard_normal((m, k))
    Q, R = np.linalg.qr(np.asarray(X, dtype=np.result_type(dtype, X.dtype)))
    d = np.diag(R).real
    return Q * np.sign(np.where(d == 0, 1, d))


def test_criterion_1_svd_forward_correctness():
    # 1000 random matrices, sizes 1..64, all four dtypes; reconstruction
    # and orthonormality residuals <= 1e-6 relative in single precision
    # and <= 1e-12 in double; 60 s budget
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    dtypes = (np.float32, np.float64, np.complex64, np.complex128)
    worst = {"single": 0.0, "double": 0.0}
    for i in range(1000):
        dt = dtypes[i % 4]
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        A = rng.standard_normal((m, n))
        if np.issubdtype(dt, np.complexfloating):
            A = A + 1j * rng.standard_normal((m, n))
        A = A.astype(dt)
        f = svd(A)
        k = f.k
        recon_rel = np.linalg.norm(f.reconstruct() - A) / np.linalg.norm(A)
        # orthonormality scaled by sqrt(k): the per-column RMS deviation,
        # so the residual is size-relative like the reconstruction one
        eye = np.eye(k)
        orth = max(
            np.linalg.norm(conj_transpose(f.U) @ f.U - eye),
            np.linalg.norm(conj_transpose(f.V) @ f.V - eye),
        ) / np.sqrt(k)
        key = "single" if dt in (np.float32, np.complex64) else "double"
        worst[key] = max(worst[key], float(recon_rel), float(orth))
    elapsed = time.perf_counter() - start
    ok = worst["single"] <= 1e-6 and worst["double"] <= 1e-12 and elapsed <= 60
    _verdict(1, "svd forward", ok,
             f"worst single {worst['single']:.3e} (tol 1e-6), "
             f"worst double {worst['double']:.3e} (tol 1e-12), {elapsed:.1f}s")
    assert worst["single"] <= 1e-6
    assert worst["double"] <= 1e-12
    assert elapsed <= 60


def _smooth_loss_tape(kind, svals):
    t = Tape()
    a = t.input("A")
    if kind == 0:
        loss = t.sum_singular_values(a)
    elif kind == 1:
        # mean-squared form of the squared Frobenius reconstruction norm;
        # the 1/(mn) factor cancels in every relative comparison below
        z = t.input("Z")
        loss = t.mse_loss(t.svt(a, ThresholdSpec.hard_tail(0)), z)
    else:
        j = len(svals) // 2
        tau = 0.5 * (svals[j - 1] + svals[j])
        loss = t.l1_loss(t.svt(a, spec=ThresholdSpec.soft(tau)))
    return t, loss


def test_criterion_2_smooth_regime_gradients():
    # >= 100 double-precision cases with min singular gap >= 0.1 across
    # the three scalar losses; exact and inv each within 1e-5 of central
    # finite differences and within 1e-12 of each other; 2 min budget
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    exact, inv = GradMode.exact(), GradMode.inv()
    worst_fd = 0.0
    worst_pair = 0.0
    cases = 120
    for idx in range(cases):
        cplx = idx % 2 == 1
        m = int(rng.integers(3, 7))
        n = int(rng.integers(3, 7))
        k = min(m, n)
        gaps = 0.1 + 0.4 * rng.random(k)
        s = (0.15 + np.cumsum(gaps)[::-1]).copy()
        A = (_haar(m, k, cplx, rng) * s) @ conj_transpose(_haar(n, k, cplx, rng))
        svals = np.sort(s)[::-1]
        tape, loss = _smooth_loss_tape(idx % 3, svals)
        bind = {"A": A}
        if idx % 3 == 1:
            bind["Z"] = np.zeros_like(A)
        vals = tape.forward(bind)
        g_exact = tape.backward(vals, loss, exact)
        g_inv = tape.backward(vals, loss, inv)
        assert g_exact.all_finite() and g_inv.all_finite()
        ge = g_exact.by_name("A")
        gi = g_inv.by_name("A")
        worst_pair = max(worst_pair,
                         np.linalg.norm(ge - gi) / np.linalg.norm(ge))

        def f(M, tape=tape, loss=loss, bind=bind):
            b = dict(bind)
            b["A"] = M
            return tape.forward(b)[loss]

        fd = finite_difference(f, A)
        denom = np.linalg.norm(fd)
        worst_fd = max(worst_fd,
                       np.linalg.norm(ge - fd) / denom,
                       np.linalg.norm(gi - fd) / denom)
    elapsed = time.perf_counter() - start
    ok = worst_fd <= 1e-5 and worst_pair <= 1e-12 and elapsed <= 120
    _verdict(2, "smooth-regime gradients", ok,
             f"{cases} cases, worst fd rel {worst_fd:.3e} (tol 1e-5), "
             f"worst exact-inv rel {worst_pair:.3e} (tol 1e-12), {elapsed:.1f}s")
    assert worst_fd <= 1e-5
    assert worst_pair <= 1e-12
    assert elapsed <= 120


def test_criterion_3_finiteness_under_duplicates():
    # 10^4 fuzz trials with exact duplicate and exact zero singular
    # values injected into the factors; the four safeguarded modes must
    # stay entrywise finite, the exact mode must reproduce the failure
    # on duplicated spectra; 2 min budget
    start = time.perf_counter()
    rng = np.random.default_rng(991)
    safe = (GradMode.tf(), GradMode.clip(), GradMode.taylor(), GradMode.inv())
    exact = GradMode.exact()
    safe_violations = 0
    dup_trials = 0
    exact_nonfinite = 0
    for trial in range(10_000):
        k = int(rng.integers(2, 7))
        m = k + int(rng.integers(0, 3))
        n = k + int(rng.integers(0, 3))
        cplx = trial % 2 == 1
        single = trial % 4 >= 2
        dt = (np.complex64 if single else np.complex128) if cplx else \
             (np.float32 if single else np.float64)
        rdt = np.float32 if single else np.float64
        s = np.sort(np.abs(rng.standard_normal(k)))[::-1].astype(rdt)
        pat = trial % 4
        if pat == 0:
            s[1] = s[0]
        elif pat == 1:
            s[-1] = 0
            if k > 2:
                s[-2] = 0
        elif pat == 2:
            s[1] = s[0]
            s[-1] = 0
        else:
            s[1] = s[0]
            if k > 2:
                s[2] = s[0]
        s = np.sort(s)[::-1]
        has_dup = bool(np.any((s[:-1] == s[1:]) & (s[:-1] > 0)))
        U = _haar(m, k, cplx, rng, rdt).astype(dt)
        V = _haar(n, k, cplx, rng, rdt).astype(dt)
        factors = SvdFactors(U=U, s=s, V=V)
        Ubar = rng.standard_normal(U.shape).astype(dt)
        Vbar = rng.standard_normal(V.shape).astype(dt)
        if cplx:
            Ubar = Ubar + 1j * rng.standard_normal(U.shape).astype(dt)
            Vbar = Vbar + 1j * rng.standard_normal(V.shape).astype(dt)
        sbar = rng.standard_normal(k).astype(rdt)
        for mode in safe:
            if not np.isfinite(svd_vjp(factors, Ubar, sbar, Vbar, mode)).all():
                safe_violations += 1
        if has_dup:
            dup_trials += 1
            if not np.isfinite(svd_vjp(factors, Ubar, sbar, Vbar, exact)).all():
                exact_nonfinite += 1
    elapsed = time.perf_counter() - start
    ok = safe_violations == 0 and exact_nonfinite >= 1 and elapsed <= 120
    _verdict(3, "finiteness under duplicates", ok,
             f"10000 trials, safe-mode violations {safe_violations}, exact "
             f"non-finite on {exact_nonfinite}/{dup_trials} duplicated trials, "
             f"{elapsed:.1f}s")
    assert safe_violations == 0
    assert exact_nonfinite >= 1
    assert elapsed <= 120


@pytest.fixture(scope="module")
def efficacy_reports():
    start = time.perf_counter()
    reports = {
        seed: run_efficacy(1000, ("tf", "clip", "taylor", "inv"), seeds=(seed,))
        for seed in MASTER_SEEDS
    }
    return reports, time.perf_counter() - start


def test_criterion_4_duplicate_benchmark_ordering(efficacy_reports):
    # N=1000 per cell, cases 1-2 x workflows 1-3, three master seeds; the
    # pseudoinverse mode's cumulative gradient MSE against the f64
    # reference must be strictly smallest in every cell; 5 min budget
    reports, elapsed = efficacy_reports
    violations = []
    for seed, rep in reports.items():
        for case in (1, 2):
            for wf in (1, 2, 3):
                inv_mse = rep.cell(case, wf, "inv").mse_sum
                for name in ("tf", "clip", "taylor"):
                    other = rep.cell(case, wf, name).mse_sum
                    if not inv_mse < other:
                        violations.append(
                            f"seed {seed} case {case} workflow {wf}: "
                            f"inv {inv_mse:.6g} >= {name} {other:.6g}")
    ok = not violations and elapsed <= 300
    _verdict(4, "benchmark ordering", ok,
             f"3 seeds x 6 cells, {len(violations)} ordering violations, "
             f"{elapsed:.1f}s" + ("" if not violations else
                                  "; " + "; ".join(violations)))
    assert elapsed <= 300
    assert not violations, "inv not strictly smallest in:\n" + "\n".join(violations)


def test_criterion_5_tf_clip_equivalence(efficacy_reports):
    # workflows 2 and 3: cumulative MSEs within 1e-10 relative per cell,
    # and per-trial gradients entrywise within 1e-10 relative
    reports, _ = efficacy_reports
    for seed, rep in reports.items():
        for case in (1, 2):
            for wf in (2, 3):
                a = rep.cell(case, wf, "tf").mse_sum
                b = rep.cell(case, wf, "clip").mse_sum
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)), \
                    f"seed {seed} case {case} workflow {wf}: {a} vs {b}"

    start = time.perf_counter()
    tf_mode, clip_mode = GradMode.tf(), GradMode.clip()
    checked = 0
    for case in (1, 2):
        for wf in (2, 3):
            tape, loss = _workflow_tape(wf)
            keys = [(case, (MASTER_SEEDS[0], case, wf, trial, 0)) for trial in range(1000)]
            A64, svals = _scenario_parts(keys, (10, 10), "rotated")
            for trial in range(1000):
                # the workflow-2 tape has no tau node and ignores the binding
                vals = tape.forward({"A": A64[trial].astype(np.float32), "tau": _workflow_tau(svals[trial])})
                g_tf = tape.backward(vals, loss, tf_mode).by_name("A")
                g_clip = tape.backward(vals, loss, clip_mode).by_name("A")
                close = np.abs(g_tf - g_clip) <= 1e-10 * np.abs(g_clip)
                assert close.all(), f"case {case} workflow {wf} trial {trial}"
                checked += 1
    elapsed = time.perf_counter() - start
    _verdict(5, "tf-clip equivalence", True,
             f"12 cumulative cells and {checked} per-trial gradients "
             f"entrywise within 1e-10 rel, {elapsed:.1f}s")


def test_criterion_6_stability_bounds():
    # 1000 thresholded spectra with tau >= 1e-10; every retained F entry
    # over kept/dropped pairs bounded by 1.01/tau^2, T finite after
    # clamping, and both cotangent brackets exactly zero on dropped
    # columns. Dropped values sit below 0.0995*tau so the bound follows
    # from sigma_kept > tau alone.
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    inv = GradMode.inv()
    worst_ratio = 0.0
    for trial in range(1000):
        tau = float(10.0 ** rng.uniform(-10, 1))
        k = int(rng.integers(3, 11))
        n_small = int(rng.integers(1, k))
        n_large = k - n_small
        large = tau * (1.005 + 3.0 * np.abs(rng.standard_normal(n_large)))
        if n_large >= 2 and trial % 5 == 0:
            # exact duplicate among the kept values exercises the T fill
            large[1] = large[0]
        small = tau * 0.099 * rng.random(n_small)
        if trial % 3 == 0:
            small[-1] = 0.0
        s = np.sort(np.concatenate([large, small]))[::-1]
        aux = build_aux(s, inv)
        assert np.isfinite(aux.T).all()
        kept = s > tau
        bound = 1.01 / tau**2
        # |F_ij| for kept i and dropped j, as |FS_ji| / sigma_i (sigma_i F_ij = -FS_ji)
        F_ls = np.abs(aux.FS[np.ix_(~kept, kept)]) / s[kept]
        if F_ls.size:
            assert float(F_ls.max()) <= bound, f"trial {trial}"
            worst_ratio = max(worst_ratio, float(F_ls.max()) / bound)

        # brackets (U^H Bbar V) Shat and (V^H Bbar^H U) Shat vanish
        # exactly on dropped columns because Shat is exactly zero there
        m = k + int(rng.integers(0, 3))
        n = k + int(rng.integers(0, 3))
        cplx = trial % 2 == 1
        U = _haar(m, k, cplx, rng)
        V = _haar(n, k, cplx, rng)
        Bbar = rng.standard_normal((m, n))
        if cplx:
            Bbar = Bbar + 1j * rng.standard_normal((m, n))
        s_hat = np.where(kept, s - tau, 0.0)
        P = (conj_transpose(U) @ Bbar @ V) * s_hat
        Q = (conj_transpose(V) @ conj_transpose(Bbar) @ U) * s_hat
        assert np.all(P[:, ~kept] == 0)
        assert np.all(Q[:, ~kept] == 0)
    elapsed = time.perf_counter() - start
    _verdict(6, "stability bounds", True,
             f"1000 spectra, worst |F| at {worst_ratio:.3f} of the 1.01/tau^2 "
             f"bound, T finite, brackets exactly zero, {elapsed:.1f}s")


def test_criterion_7_hermitian_psd_gradients():
    # 100 random Hermitian PSD doubles with distinct eigenvalues; the
    # pseudoinverse mode matches central finite differences to 1e-5
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    inv = GradMode.inv()
    worst = 0.0
    for idx in range(100):
        n = int(rng.integers(3, 8))
        cplx = idx % 2 == 1
        lam = (0.5 + np.cumsum(0.1 + 0.5 * rng.random(n))[::-1]).copy()
        Q = _haar(n, n, cplx, rng)
        A = (Q * lam) @ conj_transpose(Q)
        A = 0.5 * (A + conj_transpose(A))
        t = Tape()
        a = t.input("A")
        if idx % 2 == 0:
            loss = t.sum_singular_values(a)
        else:
            j = n // 2
            tau = 0.5 * (lam[j - 1] + lam[j])
            loss = t.l1_loss(t.svt(a, spec=ThresholdSpec.soft(tau)))
        vals = t.forward({"A": A})
        g = t.backward(vals, loss, inv)
        assert g.all_finite()
        fd = finite_difference(lambda M: t.forward({"A": M})[loss], A)
        worst = max(worst, np.linalg.norm(g.by_name("A") - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5
    _verdict(7, "hermitian psd gradients", ok,
             f"100 cases, worst fd rel {worst:.3e} (tol 1e-5), {elapsed:.1f}s")
    assert worst <= 1e-5


def test_criterion_8_unrolled_training_stability():
    # 200 steps of rank-2 completion with 10% duplicate-injected batches:
    # the pseudoinverse mode never sees a non-finite gradient and ends
    # with a strictly lower held-out MSE; the exact mode under the same
    # schedule logs at least one non-finite event; 3 min budget
    start = time.perf_counter()
    cfg = UnrolledConfig(steps=200, inject_rate=0.10, seed=3407)
    _, log = train_unrolled(cfg)
    initial = log.lines[1 if log.lines[0]["step"] != 0 else 0]["loss"]
    final = log.lines[-1]["loss"]
    inv_clean = not log.halted and log.nonfinite_steps() == []

    cfg_exact = UnrolledConfig(steps=200, inject_rate=0.10, seed=3407,
                               mode=GradMode.exact())
    _, log_exact = train_unrolled(cfg_exact)
    exact_events = log_exact.nonfinite_steps()
    elapsed = time.perf_counter() - start
    ok = inv_clean and final < initial and len(exact_events) >= 1 and elapsed <= 180
    _verdict(8, "unrolled training", ok,
             f"inv val mse {initial:.6f} -> {final:.6f}, non-finite events 0; "
             f"exact non-finite at steps {exact_events[:3]}, {elapsed:.1f}s")
    assert inv_clean
    assert final < initial
    assert len(exact_events) >= 1
    assert elapsed <= 180


def test_criterion_9_svt_prox_oracle():
    # 500 matrices against the independent Jacobi-based nuclear-norm prox
    # oracle at 1e-10 relative, plus nonexpansiveness on 500 pairs
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for idx in range(500):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        cplx = idx % 2 == 1
        A = rng.standard_normal((m, n))
        if cplx:
            A = A + 1j * rng.standard_normal((m, n))
        smax = float(np.linalg.svd(A, compute_uv=False)[0])
        tau = (0.05 + 1.25 * rng.random()) * smax
        B, _, _ = svt(A, ThresholdSpec.soft(tau))
        P = nuclear_prox(A, tau)
        nP = np.linalg.norm(P)
        if nP == 0:
            assert np.linalg.norm(B) == 0
        else:
            worst = max(worst, np.linalg.norm(B - P) / nP)
    assert worst <= 1e-10

    for idx in range(500):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        X = rng.standard_normal((m, n))
        Y = rng.standard_normal((m, n))
        if idx % 2 == 1:
            X = X + 1j * rng.standard_normal((m, n))
            Y = Y + 1j * rng.standard_normal((m, n))
        tau = 0.8 * rng.random() * float(np.linalg.svd(X, compute_uv=False)[0])
        BX, _, _ = svt(X, ThresholdSpec.soft(tau))
        BY, _, _ = svt(Y, ThresholdSpec.soft(tau))
        assert np.linalg.norm(BX - BY) <= np.linalg.norm(X - Y) * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    _verdict(9, "svt prox oracle", True,
             f"500 prox comparisons worst rel {worst:.3e} (tol 1e-10), "
             f"500 nonexpansiveness pairs, {elapsed:.1f}s")
