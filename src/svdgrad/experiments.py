"""Gradient-efficacy benchmark and unrolled low-rank completion demos.

The efficacy benchmark measures, per (case, workflow, mode) cell, the
cumulative MSE between single-precision backward-mode gradients and a
double-precision exact reference on matrices constructed with a near-
duplicate singular-value pair (relative gap 1e-15) at scales 1e-10 (case 1)
and 1e-18 (case 2). Workflows: 1 reconstruct + L1, 2 hard-threshold the two
trailing values + L1, 3 soft-threshold chosen so the two trailing values
vanish + L1. All modes share one cached forward per trial; only backward
differs.

The completion demos unroll ADMM / proximal gradient descent over the tape
with per-iteration learnable positive scalars and train them with Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .backward import GradMode, StabilityParams
from .linalg import NonFiniteError
from .oracle import reference_gradient
from .svt import ThresholdSpec
from .tape import Tape

__all__ = [
    "CellStats",
    "EfficacyReport",
    "Scenario",
    "TrainingLog",
    "UnrolledConfig",
    "build_admm_tape",
    "build_pgd_tape",
    "generate_scenario",
    "make_completion_dataset",
    "run_efficacy",
    "train_unrolled",
    "unrolled_admm_forward",
    "unrolled_pgd_forward",
]

_CASE_SCALES = {1: 1e-10, 2: 1e-18}


def _rng(*entropy) -> np.random.Generator:
    """Counter-style generator: a Philox stream keyed by an entropy tuple."""
    flat = []
    for e in entropy:
        if isinstance(e, (tuple, list)):
            flat.extend(int(x) for x in e)
        else:
            flat.append(int(e))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(flat)))


@dataclass(frozen=True)
class Scenario:
    """Benchmark matrix recipe: a near-duplicate pair inside a random spectrum.

    The spectrum is sigma_0, sigma_1 = sigma_0 + sigma_0 * 1e-15, plus
    k - 2 further values, all |N(0,1)| * scale with scale 1e-10 (case 1) or
    1e-18 (case 2). basis "identity" keeps A = diag(spectrum) exactly;
    "rotated" conjugates by seeded Haar orthogonal factors so the matrix is
    dense while the double-precision spectrum is unchanged.
    """

    case: int = 1
    workflow: int = 1
    seed: tuple | int = 0
    size: tuple[int, int] = (10, 10)
    basis: str = "identity"

    def __post_init__(self):
        if self.case not in _CASE_SCALES:
            raise ValueError("case must be 1 or 2")
        if self.workflow not in (1, 2, 3):
            raise ValueError("workflow must be 1, 2 or 3")
        if self.basis not in ("identity", "rotated"):
            raise ValueError("basis must be 'identity' or 'rotated'")
        if min(self.size) < 3:
            raise ValueError("size must allow at least 3 singular values")


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _scenario_parts(spec: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Double-precision matrix and its designed spectrum (generated order)."""
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
        A = _haar(m, rng) @ A @ _haar(n, rng).T
    return A, s


def generate_scenario(spec: Scenario) -> np.ndarray:
    """Double-precision benchmark matrix for one scenario."""
    return _scenario_parts(spec)[0]


def _workflow_tape(workflow: int, tau: float | None = None) -> tuple[Tape, int]:
    """Tape computing the workflow's L1 loss; returns (tape, loss node id)."""
    t = Tape()
    a = t.input("A")
    if workflow == 1:
        # hard_tail(0) keeps the spectrum: U S V^H back through the SVD
        b = t.svt(a, ThresholdSpec.hard_tail(0))
    elif workflow == 2:
        b = t.svt(a, ThresholdSpec.hard_tail(2))
    else:
        if tau is None:
            raise ValueError("workflow 3 needs tau")
        b = t.svt(a, ThresholdSpec.soft(tau))
    return t, t.l1_loss(b)


def _workflow_tau(s: np.ndarray) -> float:
    """Soft threshold that zeroes exactly the two smallest singular values."""
    sd = np.sort(s)[::-1]
    return float((sd[-2] + sd[-3]) / 2)


@dataclass
class CellStats:
    case: int
    workflow: int
    mode: str
    trials: int
    mse_sum: float
    mse_mean: float
    invalid_trials: int
    seed_list: tuple[int, ...]
    t: float
    clamp: float
    taylor_k: int


@dataclass
class EfficacyReport:
    cells: list[CellStats]
    config: dict

    def cell(self, case: int, workflow: int, mode: str) -> CellStats:
        for c in self.cells:
            if (c.case, c.workflow, c.mode) == (case, workflow, mode):
                return c
        raise KeyError(f"no cell ({case}, {workflow}, {mode})")

    def to_csv_text(self) -> str:
        import json

        lines = ["# config: " + json.dumps(self.config, sort_keys=True)]
        lines.append(
            "case,workflow,mode,trials,mse_sum,mse_mean,invalid_trials,seed_list,t,clamp,taylor_k"
        )
        for c in self.cells:
            seeds = ";".join(str(s) for s in c.seed_list)
            lines.append(
                f"{c.case},{c.workflow},{c.mode},{c.trials},{c.mse_sum!r},"
                f"{c.mse_mean!r},{c.invalid_trials},{seeds},{c.t!r},{c.clamp!r},{c.taylor_k}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"config": self.config, "cells": [vars(c) for c in self.cells]}


def _normalize_modes(modes) -> list[GradMode]:
    out = []
    for m in modes:
        if isinstance(m, str):
            m = GradMode(m)
        if m.variant == "exact":
            raise ValueError(
                "mode 'exact' is the double-precision reference and is not benchmarked"
            )
        out.append(m)
    if not any(m.variant == "inv" for m in out):
        raise ValueError("benchmark modes must include 'inv'")
    if len(out) < 2:
        raise ValueError("benchmark needs at least one baseline mode besides 'inv'")
    return out


def _efficacy_trial(master: int, case: int, workflow: int, trial: int, size, basis: str, modes):
    """One paired trial: (per-mode (sumsq, meansq) errors, attempts used)."""
    attempt = 0
    while True:
        spec = Scenario(
            case=case,
            workflow=workflow,
            seed=(master, case, workflow, trial, attempt),
            size=size,
            basis=basis,
        )
        A64, svals = _scenario_parts(spec)
        valid = True
        if workflow == 2 and min(size) > 2:
            # hard_tail(2) cuts the spectrum between the third- and
            # second-smallest values. When that boundary splits a pair the
            # single-precision forward cannot represent as distinct (relative
            # gap below float32 epsilon; the built-in near-tie sits at 1e-15)
            # the reference derivative scales like a^2/(a^2-b^2) >= 1e7 while
            # every bounded safeguard stays O(1), and the trial only measures
            # that common unrepresentable spike. Such a reference is invalid
            # for scoring and the trial is regenerated like a non-finite one.
            sd = np.linalg.svd(A64, compute_uv=False)
            a2, b2 = sd[-3] ** 2, sd[-2] ** 2
            valid = a2 - b2 >= np.finfo(np.float32).eps * a2
        if valid:
            tau = _workflow_tau(svals) if workflow == 3 else None
            tape, loss = _workflow_tape(workflow, tau)
            ref, ok = reference_gradient(tape, {"A": A64}, loss)
            if ok:
                break
        attempt += 1
        if attempt > 200:
            raise RuntimeError(
                f"reference stayed invalid after {attempt} regenerations "
                f"(case {case}, workflow {workflow}, trial {trial})"
            )
    Aref = ref.by_name("A")
    values32 = tape.forward({"A": A64.astype(np.float32)})
    per_mode = []
    for mode in modes:
        g = tape.backward(values32, loss, mode)
        diff = g.by_name("A").astype(np.float64) - Aref
        sumsq = float(np.sum(diff * diff))
        per_mode.append((sumsq, sumsq / diff.size))
    return per_mode, attempt


def run_efficacy(
    n_trials: int,
    modes,
    cases=(1, 2),
    workflows=(1, 2, 3),
    seeds=(3407,),
    size=(10, 10),
    basis: str = "rotated",
) -> EfficacyReport:
    """Cumulative gradient-MSE benchmark over paired trials.

    Every trial builds one double-precision matrix, takes the exact
    double-precision gradient as reference (regenerating with an incremented
    sub-seed when the reference itself is non-finite), runs the forward once
    in single precision, and accumulates each mode's squared gradient error.
    Reports are bit-reproducible for a fixed configuration.
    """
    modes = _normalize_modes(modes)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    seeds = tuple(int(s) for s in seeds)
    cases = tuple(cases)
    workflows = tuple(workflows)
    for label, values in (("seeds", seeds), ("cases", cases), ("workflows", workflows)):
        if not values:
            raise ValueError(f"{label} must not be empty")
    cells: list[CellStats] = []
    for case in cases:
        for workflow in workflows:
            sums = [0.0] * len(modes)
            means = [0.0] * len(modes)
            invalid = 0
            for master in seeds:
                for trial in range(n_trials):
                    per_mode, attempts = _efficacy_trial(master, case, workflow, trial, size, basis, modes)
                    invalid += attempts
                    for i, (sumsq, meansq) in enumerate(per_mode):
                        sums[i] += sumsq
                        means[i] += meansq
            for i, mode in enumerate(modes):
                t, clamp = mode.stability.resolve(np.float32)
                cells.append(
                    CellStats(
                        case=case,
                        workflow=workflow,
                        mode=mode.variant,
                        trials=n_trials * len(seeds),
                        mse_sum=sums[i],
                        mse_mean=means[i],
                        invalid_trials=invalid,
                        seed_list=seeds,
                        t=t,
                        clamp=clamp,
                        taylor_k=mode.taylor_k,
                    )
                )
    config = {
        "n_trials": n_trials,
        "modes": [m.variant for m in modes],
        "cases": list(cases),
        "workflows": list(workflows),
        "seeds": list(seeds),
        "size": list(size),
        "basis": basis,
        "precision": "single",
        "reference": "double/exact",
    }
    return EfficacyReport(cells=cells, config=config)


# -- unrolled solvers -------------------------------------------------------

# Adam decay rates and denominator guard, the default held-out set size, and
# the diagnostic of a halt on a solver forward that met a non-finite value
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_VAL_SIZE = 8
_SOLVER_HALT = "non-finite solver value"


@dataclass(frozen=True)
class UnrolledConfig:
    """Unrolled completion demo: sizes, unroll depth, optimizer, grad mode."""

    size: tuple[int, int] = (20, 20)
    rank: int = 2
    sampling_ratio: float = 0.5
    n_unroll: int = 5
    algorithm: str = "admm"
    steps: int = 200
    lr: float = 0.05
    inject_rate: float = 0.0
    mode: GradMode = field(default_factory=GradMode.inv)
    precision: str = "single"
    seed: int = 3407

    def __post_init__(self):
        if not 0 < self.sampling_ratio <= 1:
            raise ValueError("sampling_ratio must be in (0, 1]")
        if self.n_unroll < 1:
            raise ValueError("n_unroll must be >= 1")
        if self.rank < 1 or self.rank > min(self.size):
            raise ValueError("rank must be in [1, min(size)]")
        if self.algorithm not in ("admm", "pgd"):
            raise ValueError("algorithm must be 'admm' or 'pgd'")
        if not 0 <= self.inject_rate <= 1:
            raise ValueError("inject_rate must be in [0, 1]")
        if self.precision not in ("single", "double"):
            raise ValueError("precision must be 'single' or 'double'")


def build_admm_tape(mask: np.ndarray, n_unroll: int) -> tuple[Tape, int]:
    """Unrolled ADMM for completion: returns (tape, output node id).

    X_0 = P_Omega(Y), L_0 = 0, then per iteration i:
      Z_i = SVT(X_{i-1} + L_{i-1}, tau_i)
      X_i = P_Omega(Y) + P_Omega^c(Z_i - L_{i-1})
      L_i = L_{i-1} - eta_i (Z_i - X_i)
    with tau_i = lambda_i/mu_i and eta_i learnable through the trainer.
    """
    mask = np.asarray(mask, dtype=bool)
    t = Tape()
    y = t.input("Y")
    l = t.input("L0")
    x = t.mask_project(y, mask)
    for i in range(1, n_unroll + 1):
        tau_i = t.parameter_scalar(f"tau_{i}")
        eta_i = t.parameter_scalar(f"eta_{i}")
        z = t.svt(t.add(x, l), tau_param=tau_i)
        d = t.sub(z, l)
        x = t.add(t.mask_project(y, mask), t.mask_project(d, ~mask))
        r = t.sub(z, x)
        l = t.sub(l, t.scale_by_param(r, eta_i))
    return t, x


def build_pgd_tape(mask: np.ndarray, n_unroll: int) -> tuple[Tape, int]:
    """Unrolled proximal gradient descent with the sampling operator P_Omega:
      Z = X - rho_i P_Omega(X - Y),  X^+ = SVT(Z, tau_i)
    with tau_i = lambda_i * rho_i learnable through the trainer."""
    mask = np.asarray(mask, dtype=bool)
    t = Tape()
    y = t.input("Y")
    b = t.mask_project(y, mask)
    x = b
    for i in range(1, n_unroll + 1):
        rho_i = t.parameter_scalar(f"rho_{i}")
        tau_i = t.parameter_scalar(f"tau_{i}")
        resid = t.sub(t.mask_project(x, mask), b)
        z = t.sub(x, t.scale_by_param(resid, rho_i))
        x = t.svt(z, tau_param=tau_i)
    return t, x


def _solver_tape(config: UnrolledConfig, mask: np.ndarray) -> tuple[Tape, int]:
    if config.algorithm == "admm":
        return build_admm_tape(mask, config.n_unroll)
    return build_pgd_tape(mask, config.n_unroll)


def _default_params(config: UnrolledConfig) -> dict[str, float]:
    """lambda = mu = eta = rho = 1 per iteration, before reparameterization."""
    names = _theta_names(config)
    return {name: 1.0 for name in names}


def _theta_names(config: UnrolledConfig) -> list[str]:
    if config.algorithm == "admm":
        stems = ("lambda", "mu", "eta")
    else:
        stems = ("lambda", "rho")
    return [f"{stem}_{i}" for i in range(1, config.n_unroll + 1) for stem in stems]


def _bind_tape_params(config: UnrolledConfig, positive: dict[str, float]) -> dict[str, float]:
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


def _solver_bindings(config: UnrolledConfig, positive: dict[str, float], Y: np.ndarray) -> dict:
    """Tape parameters, the observations Y and, for ADMM, L0 = 0."""
    bindings = _bind_tape_params(config, positive)
    bindings["Y"] = Y
    if config.algorithm == "admm":
        bindings["L0"] = np.zeros_like(Y)
    return bindings


def _solve(config: UnrolledConfig, mask: np.ndarray, Y: np.ndarray, positive: dict[str, float]) -> np.ndarray:
    """Run the unrolled solver's forward pass and return the reconstruction."""
    tape, out = _solver_tape(config, mask)
    return tape.forward(_solver_bindings(config, positive, Y))[out]


def _theta_grads(
    config: UnrolledConfig, bound: dict[str, float], tape_grads: dict[str, float]
) -> dict[str, float]:
    """Chain tape-parameter gradients to log-space scalars.

    `bound` holds the tape parameters from `_bind_tape_params`. With
    theta = log(p) the gradient is dL/dtheta = dL/dp * p; tau composes as
    lambda/mu (ADMM) or lambda*rho (PGD), so d tau/d theta is +-tau.
    """
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


def unrolled_admm_forward(Y, mask, config: UnrolledConfig, params: dict[str, float] | None = None) -> np.ndarray:
    """Run the unrolled ADMM forward pass and return the reconstruction."""
    config = replace(config, algorithm="admm")
    return _solve(config, mask, np.asarray(Y), params or _default_params(config))


def unrolled_pgd_forward(Y, mask, config: UnrolledConfig, params: dict[str, float] | None = None) -> np.ndarray:
    """Run the unrolled PGD forward pass and return the reconstruction."""
    config = replace(config, algorithm="pgd")
    return _solve(config, mask, np.asarray(Y), params or _default_params(config))


def make_completion_dataset(config: UnrolledConfig, n: int, tag: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """n triples (Y, mask, X_true) of rank-`rank` matrices with Bernoulli masks.

    Masks are redrawn until at least one entry is observed so the
    data-consistency step is never vacuous.
    """
    out = []
    m, n_cols = config.size
    for j in range(n):
        rng = _rng(config.seed, tag, j)
        g1 = rng.standard_normal((m, config.rank))
        g2 = rng.standard_normal((n_cols, config.rank))
        x = (g1 @ g2.T) / math.sqrt(config.rank)
        while True:
            mask = rng.random((m, n_cols)) < config.sampling_ratio
            if mask.any():
                break
        out.append((x.copy(), mask, x))
    return out


def _json_safe(obj):
    """Replace non-finite floats with None; JSON has no NaN/Infinity."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


@dataclass
class TrainingLog:
    lines: list[dict]
    halted: bool = False

    def to_jsonl(self, config_line: dict | None = None) -> str:
        import json

        rows = []
        if config_line is not None:
            rows.append(json.dumps({"config": config_line}, sort_keys=True))
        rows.extend(json.dumps(_json_safe(line), sort_keys=True) for line in self.lines)
        return "\n".join(rows) + "\n"

    def nonfinite_steps(self) -> list[int]:
        return [l["step"] for l in self.lines if l.get("grad_finite") is False]


def _dtype_of(config: UnrolledConfig):
    return np.float32 if config.precision == "single" else np.float64


def _val_mse(
    config: UnrolledConfig, solver: tuple[Tape, int], Y: np.ndarray, val_set, positive: dict[str, float]
) -> float:
    """Held-out completion MSE from one forward over the stacked set.

    `solver` is the tape built from the stacked validation masks and `Y` the
    stacked observations; the per-sample MSEs are summed in `val_set` order.
    """
    tape, out = solver
    X = tape.forward(_solver_bindings(config, positive, Y))[out]
    total = 0.0
    for X_i, (_, _, X_true) in zip(X, val_set):
        total += float(np.mean((X_i.astype(np.float64) - X_true) ** 2))
    return total / len(val_set)


def _halt(log: TrainingLog, line: dict, diagnostic: str) -> None:
    """Append the last log line, marked with why training stopped."""
    log.lines.append({**line, "halted": True, "diagnostic": diagnostic})
    log.halted = True


def _exp(x: float) -> float:
    """math.exp, with an overflow mapped to inf so the update halts training."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _injected_sample(config: UnrolledConfig, step: int):
    """Full-observation duplicate-spectrum matrix (the instability trigger)."""
    A = generate_scenario(
        Scenario(case=2, workflow=1, seed=(config.seed, 7001, step), size=config.size, basis="rotated")
    )
    mask = np.ones(config.size, dtype=bool)
    return A, mask, A


def train_unrolled(
    config: UnrolledConfig,
    dataset: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    val_set: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
) -> tuple[dict[str, float], TrainingLog]:
    """Adam training of the unrolled solver's positive scalars.

    Scalars are optimized in log space (exponential reparameterization keeps
    lambda, mu, eta, rho positive). Every log line carries the held-out
    completion MSE as `loss`, the per-step batch loss as `train_loss`, the
    gradient finiteness flag, and the current positive parameters. An update
    that leaves any parameter non-finite halts training with a diagnostic
    line; safeguarded modes never trigger it, the exact mode does under
    injected duplicate spectra. So does a solver forward that meets a
    non-finite value (a parameter too large for the tape's precision, or one
    that drives an iterate to inf). The held-out set is scored as one stack,
    so its samples must share one shape.
    """
    if not dataset:
        dataset = make_completion_dataset(config, 32, tag=1)
    if not val_set:
        val_set = make_completion_dataset(config, _VAL_SIZE, tag=2)
    dt = _dtype_of(config)
    # the validation tape depends only on the fixed masks: built once per run
    val_solver = _solver_tape(config, np.stack([mask for _, mask, _ in val_set]))
    val_Y = np.stack([Y for Y, _, _ in val_set]).astype(dt)
    theta = {name: 0.0 for name in _theta_names(config)}
    adam_m = {name: 0.0 for name in theta}
    adam_v = {name: 0.0 for name in theta}
    inject_rng = _rng(config.seed, 7000)

    def positive_of(th):
        return {name: _exp(v) for name, v in th.items()}

    log = TrainingLog(lines=[])
    positive = positive_of(theta)
    log.lines.append(
        {
            "step": 0,
            "loss": _val_mse(config, val_solver, val_Y, val_set, positive),
            "train_loss": None,
            "grad_finite": True,
            "params": positive,
        }
    )

    for step in range(1, config.steps + 1):
        injected = config.inject_rate > 0 and float(inject_rng.random()) < config.inject_rate
        if injected:
            Y, mask, X_true = _injected_sample(config, step)
        else:
            Y, mask, X_true = dataset[(step - 1) % len(dataset)]
        tape, out = _solver_tape(config, mask)
        target = tape.input("target")
        loss = tape.mse_loss(out, target)
        positive = positive_of(theta)
        bindings = _solver_bindings(config, positive, Y.astype(dt))
        bindings["target"] = X_true.astype(dt)
        try:
            values = tape.forward(bindings)
        except NonFiniteError:
            line = {"step": step, "loss": None, "train_loss": None, "grad_finite": None,
                    "injected": injected, "params": positive}
            _halt(log, line, _SOLVER_HALT)
            break
        train_loss = values[loss]
        grads = tape.backward(values, loss, config.mode)
        tape_grads = {
            name: float(grads.by_name(name)) if grads.by_name(name) is not None else 0.0
            for name in bindings
            if tape.nodes[tape.names[name]].op == "parameter_scalar"
        }
        tg = _theta_grads(config, bindings, tape_grads)
        grad_finite = all(math.isfinite(v) for v in tg.values())

        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for name in theta:
            g = tg[name]
            adam_m[name] = b1 * adam_m[name] + (1 - b1) * g
            adam_v[name] = b2 * adam_v[name] + (1 - b2) * g * g
            mhat = adam_m[name] / (1 - b1**step)
            vhat = adam_v[name] / (1 - b2**step)
            theta[name] -= config.lr * mhat / (math.sqrt(vhat) + _ADAM_EPS)

        params_now = positive_of(theta)
        line = {
            "step": step,
            "loss": None,
            "train_loss": train_loss,
            "grad_finite": grad_finite,
            "injected": injected,
            "params": params_now,
        }
        if not all(math.isfinite(v) for v in params_now.values()):
            _halt(log, line, "non-finite parameter after update")
            break
        try:
            line["loss"] = _val_mse(config, val_solver, val_Y, val_set, params_now)
        except NonFiniteError:
            _halt(log, line, _SOLVER_HALT)
            break
        log.lines.append(line)
    return positive_of(theta), log
