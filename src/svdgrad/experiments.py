"""Gradient-efficacy benchmark and unrolled low-rank completion demos.

The efficacy benchmark measures, per (case, workflow, mode) cell, the
cumulative MSE between single-precision backward-mode gradients and a
double-precision exact reference on matrices constructed with a near-
duplicate singular-value pair (relative gap 1e-15) at scales 1e-10 (case 1)
and 1e-18 (case 2). Workflows: 1 reconstruct + L1, 2 hard-threshold the two
trailing values + L1, 3 soft-threshold chosen so the two trailing values
vanish + L1. All modes share one cached forward per trial; only backward
differs. Each workflow runs as one stack over all its cases: one float32
forward and one backward under all the modes serve all of its trials, and
each cell's rows are sliced back out of it.

The completion demos unroll ADMM / proximal gradient descent over the tape
with per-iteration learnable positive scalars and train them with Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backward import GradMode
from .linalg import NonFiniteError
from .oracle import reference_gradient
from .svt import ThresholdSpec
from .tape import GradientSet, Tape

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
    "unrolled_forward",
]

_CASE_SCALES = {1: 1e-10, 2: 1e-18}
# trials scored as one stack: each holds about 22 KB while it is scored,
# and the benchmark's 40-trial workflows stay one stack
_EFFICACY_CHUNK = 256


def _ints(name: str, values) -> tuple[int, ...]:
    """values as a tuple of Python ints. An entry that is not a Python or
    NumPy integer (a bool or a float is none) raises TypeError naming
    `name`."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"{name}: expected an integer, got {v!r}")
    return tuple(int(v) for v in values)


def _rng(*entropy) -> np.random.Generator:
    """Counter-style generator: a Philox stream keyed by an entropy tuple.

    Each entry is an int or a tuple/list of ints, flattened one level. The
    stream is the one `SeedSequence(list_of_ints)` gives: the entropy is
    handed over as the uint32 words NumPy would make of that list (each int
    its little-endian 32-bit words, 0 the one word 0), built here in one
    array instead of one small array per int. A negative int raises
    ValueError, as NumPy does.
    """
    words = []
    for e in entropy:
        for x in e if isinstance(e, (tuple, list)) else (e,):
            x = int(x)
            if x < 0:
                raise ValueError("expected non-negative integer")
            words.append(x & 0xFFFFFFFF)
            x >>= 32
            while x:
                words.append(x & 0xFFFFFFFF)
                x >>= 32
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class Scenario:
    """Benchmark matrix recipe: a near-duplicate pair inside a random spectrum.

    The spectrum is sigma_0, sigma_1 = sigma_0 + sigma_0 * 1e-15, plus
    k - 2 further values, all |N(0,1)| * scale with scale 1e-10 (case 1) or
    1e-18 (case 2). basis "identity" keeps A = diag(spectrum) exactly;
    "rotated" conjugates by seeded Haar orthogonal factors so the matrix is
    dense while the double-precision spectrum is unchanged. `size` must be
    two values (ValueError). case, the seed (an int or a tuple of them) and
    size take integers, and a bool or a float raises TypeError naming it.
    """

    case: int = 1
    seed: tuple | int = 0
    size: tuple[int, int] = (10, 10)
    basis: str = "identity"

    def __post_init__(self):
        _ints("case", (self.case,))
        _ints("seed", self.seed if isinstance(self.seed, tuple) else (self.seed,))
        if self.case not in _CASE_SCALES:
            raise ValueError("case must be 1 or 2")
        if self.basis not in ("identity", "rotated"):
            raise ValueError("basis must be 'identity' or 'rotated'")
        if len(self.size) != 2:
            raise ValueError("size must be two integers")
        _ints("size", self.size)
        if min(self.size) < 3:
            raise ValueError("size must allow at least 3 singular values")


def _haar(G: np.ndarray) -> np.ndarray:
    """Haar orthogonal factors from a (..., n, n) stack of Gaussian draws."""
    q, r = np.linalg.qr(G)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _scenario_parts(keys, size, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Double-precision matrices and their designed spectra (generated
    order) of the N scenarios keyed by (case, seed) pairs, all of one size
    and basis, stacked as (N, m, n) and (N, k). The caller has checked case,
    size and basis as `Scenario` does.

    Each scenario draws from its own Philox stream, in one call that fills
    its row of one (N, k - 1 [+ m*m + n*n]) buffer: sigma_0, the k - 2
    further values and, for "rotated", the two Gaussian factors, the values
    and order of drawing them in four calls. The spectra, the diagonal
    embedding, the Haar QRs and the products then run once per stack, each
    matrix bit-identical to generating it alone.
    """
    m, n = size
    k = min(m, n)
    draws = np.empty((len(keys), k - 1 + (m * m + n * n if basis == "rotated" else 0)))
    for (_, seed), row in zip(keys, draws):
        _rng(seed).standard_normal(out=row)
    scale = np.array([_CASE_SCALES[case] for case, _ in keys])
    s = np.empty((len(keys), k))
    s[:, 0] = np.abs(draws[:, 0]) * scale
    s[:, 1] = s[:, 0] + s[:, 0] * 1e-15
    s[:, 2:] = np.abs(draws[:, 1:k - 1]) * scale[:, None]
    A = np.zeros((len(keys), m, n), dtype=np.float64)
    A[:, np.arange(k), np.arange(k)] = s
    if basis == "rotated":
        left = draws[:, k - 1:k - 1 + m * m].reshape(-1, m, m)
        right = draws[:, k - 1 + m * m:].reshape(-1, n, n)
        A = _haar(left) @ A @ _haar(right).swapaxes(-1, -2)
    return A, s


def generate_scenario(spec: Scenario) -> np.ndarray:
    """Double-precision benchmark matrix for one scenario: the one-key
    stack of `_scenario_parts`."""
    return _scenario_parts([(spec.case, spec.seed)], spec.size, spec.basis)[0][0]


def _workflow_tape(workflow: int) -> tuple[Tape, int]:
    """Tape computing the workflow's L1 loss; returns (tape, loss node id).
    Workflow 3 thresholds at the bound parameter `tau`."""
    t = Tape()
    a = t.input("A")
    if workflow == 1:
        # hard_tail(0) keeps the spectrum: U S V^H back through the SVD
        b = t.svt(a, ThresholdSpec.hard_tail(0))
    elif workflow == 2:
        b = t.svt(a, ThresholdSpec.hard_tail(2))
    else:
        b = t.svt(a, tau_param=t.parameter_scalar("tau"))
    return t, t.l1_loss(b)


def _workflow_tau(s: np.ndarray) -> np.ndarray:
    """Soft threshold that zeroes exactly the two smallest singular values,
    one per spectrum of the (..., k) stack s."""
    sd = np.sort(s, axis=-1)
    return (sd[..., 1] + sd[..., 2]) / 2


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


def _efficacy_workflow(workflow: int, keys, size, basis: str, modes):
    """All paired trials of one workflow, across its cases, on one workflow
    tape, scored as stacks of at most _EFFICACY_CHUNK trials.

    keys lists each trial's (master seed, trial index, case). Returns the
    squared gradient errors, shaped (mode, trial), and the attempts each
    trial used, in the order of keys. A trial scores alike in any chunk, so
    the chunk size bounds the memory a workflow holds without changing a
    result.
    """
    tape, loss = _workflow_tape(workflow)
    parts = [_efficacy_chunk(tape, loss, workflow, keys[start:start + _EFFICACY_CHUNK], size, basis, modes)
             for start in range(0, len(keys), _EFFICACY_CHUNK)]
    return np.concatenate([p[0] for p in parts], axis=1), np.concatenate([p[1] for p in parts])


def _efficacy_chunk(tape: Tape, loss: int, workflow: int, keys, size, basis: str, modes):
    """The trials of keys as one stack on the workflow's tape: their squared
    gradient errors, shaped (mode, trial), and their attempts.

    A trial whose reference is invalid is regenerated with an incremented
    sub-seed; each round generates, cut-tests and references only the
    trials still invalid, each as one stack. The scored trials then take
    one single-precision forward and one backward under all the modes,
    which forms the L1 and factor cotangents, the SVD pullback and each
    distinct t's pair classification once for every mode.
    """
    m, n = size
    A64 = np.empty((len(keys), m, n))
    svals = np.empty((len(keys), min(m, n)))
    Aref = np.empty_like(A64)
    attempts = np.zeros(len(keys), dtype=int)
    pending = np.arange(len(keys))
    while pending.size:
        draws = []
        for i in pending:
            master, trial, case = keys[i]
            draws.append((case, (master, case, workflow, trial, int(attempts[i]))))
        A, s = _scenario_parts(draws, size, basis)
        valid = np.ones(len(pending), dtype=bool)
        if workflow == 2:
            # hard_tail(2) cuts the spectrum between the third- and
            # second-smallest values. When that boundary splits a pair the
            # single-precision forward cannot represent as distinct (relative
            # gap below float32 epsilon; the built-in near-tie sits at 1e-15)
            # the reference derivative scales like a^2/(a^2-b^2) >= 1e7 while
            # every bounded safeguard stays O(1), and the trial only measures
            # that common unrepresentable spike. Such a reference is invalid
            # for scoring and the trial is regenerated like a non-finite one.
            # The spectrum comes from its own LAPACK call without vectors: it
            # may differ in the last bit from the reference forward's.
            sd = np.linalg.svd(A, compute_uv=False)
            a2, b2 = sd[:, -3] ** 2, sd[:, -2] ** 2
            valid = a2 - b2 >= np.finfo(np.float32).eps * a2
        if valid.any():
            # only the workflow-3 tape has a `tau` node; the others ignore it
            bindings = {"A": A[valid], "tau": _workflow_tau(s[valid])}
            ref, ok = reference_gradient(tape, bindings, loss)
            done = pending[valid][ok]
            A64[done], svals[done] = A[valid][ok], s[valid][ok]
            Aref[done] = ref.by_name("A")[ok]
            valid[valid] = ok
        pending = pending[~valid]
        attempts[pending] += 1
        if pending.size and attempts[pending[0]] > 200:
            master, trial, case = keys[pending[0]]
            raise RuntimeError(
                f"reference stayed invalid after {attempts[pending[0]]} regenerations "
                f"(case {case}, workflow {workflow}, trial {trial})"
            )
    values32 = tape.forward({"A": A64.astype(np.float32), "tau": _workflow_tau(svals)})
    sumsq = np.empty((len(modes), len(keys)))
    for j, grads in enumerate(tape.backward(values32, loss, modes)):
        diff = grads.by_name("A").astype(np.float64) - Aref
        sumsq[j] = np.sum(diff * diff, axis=(-2, -1))
    return sumsq, attempts


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
    Each workflow runs its len(cases) * len(seeds) * n_trials trials on one
    tape, as consecutive stacks of at most _EFFICACY_CHUNK trials: one
    Tape.backward per stack, under all the modes at once, plus one per
    regeneration round of the reference. Each (case, workflow) cell's
    per-trial errors are sliced back out and added in (seed, trial) order
    by one cumulative sum, so the report is bit-identical to scoring the
    trials one at a time and adding them in a loop, and bit-reproducible
    for a fixed configuration. A repeated seed, case, workflow or mode
    variant is refused, like every other bad setting, before any trial
    runs. n_trials, the seeds, cases, workflows and size take integers
    (NumPy's too), and a bool or a float raises TypeError naming it.
    """
    modes = _normalize_modes(modes)
    # NumPy integers are taken, and reported, as Python ints
    (n_trials,) = _ints("n_trials", (n_trials,))
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    seeds, cases, workflows = _ints("seeds", seeds), _ints("cases", cases), _ints("workflows", workflows)
    for label, values in (("seeds", seeds), ("cases", cases), ("workflows", workflows)):
        if not values:
            raise ValueError(f"{label} must not be empty")
    # a repeated cell would be scored again as a duplicate row, and a
    # repeated seed would score its trials twice
    for label, values in (("seeds", seeds), ("cases", cases), ("workflows", workflows),
                          ("modes", [m.variant for m in modes])):
        if len(set(values)) < len(values):
            raise ValueError(f"{label} must not repeat an entry")
    if min(seeds) < 0:
        raise ValueError("seeds must be >= 0")
    if not set(workflows) <= {1, 2, 3}:
        raise ValueError("workflows must be from 1, 2, 3")
    for case in cases:  # refuses a case, size or basis before any cell runs
        Scenario(case=case, size=size, basis=basis)
    size = _ints("size", size)
    per_cell = len(seeds) * n_trials
    # case-major, so each case's trials are one slice in (seed, trial) order
    keys = [(master, trial, case) for case in cases for master in seeds for trial in range(n_trials)]
    scored = {workflow: _efficacy_workflow(workflow, keys, size, basis, modes) for workflow in workflows}
    cells: list[CellStats] = []
    for c, case in enumerate(cases):
        rows = slice(c * per_cell, (c + 1) * per_cell)
        for workflow in workflows:
            sumsq, attempts = scored[workflow]
            # cumsum adds in (seed, trial) order; np.sum would add pairwise
            sums = np.cumsum(sumsq[:, rows], axis=-1)[..., -1].tolist()
            means = np.cumsum(sumsq[:, rows] / (size[0] * size[1]), axis=-1)[..., -1].tolist()
            invalid = int(attempts[rows].sum())
            for i, mode in enumerate(modes):
                t, clamp = mode.stability.resolve(np.float32)
                cells.append(
                    CellStats(
                        case=case,
                        workflow=workflow,
                        mode=mode.variant,
                        trials=per_cell,
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

# Adam decay rates and denominator guard, the default training and held-out
# set sizes, the diagnostic of a halt on a solver forward that met a
# non-finite value, and the NumPy warnings silenced on the way to it (the
# halt line reports the value)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_TRAIN_SIZE = 32
_VAL_SIZE = 8
_SOLVER_HALT = "non-finite solver value"
_QUIET = {"over": "ignore", "invalid": "ignore"}

# algorithm -> (tape parameters, tape inputs bound to zeros). Each iteration
# i binds tape parameter `name_i` to the product of the positive scalars
# `stem_i ** exponent`; the trainer learns theta = log of those scalars.
_SOLVERS = {
    "admm": ({"tau": (("lambda", 1), ("mu", -1)), "eta": (("eta", 1),)}, ("L0",)),
    "pgd": ({"tau": (("lambda", 1), ("rho", 1)), "rho": (("rho", 1),)}, ()),
}
# precision name -> the dtype the trainer's tape runs in
_PRECISIONS = {"single": np.float32, "double": np.float64}


@dataclass(frozen=True)
class UnrolledConfig:
    """Unrolled completion demo: sizes, unroll depth, optimizer, grad mode.

    The trainer's settings are range-checked on construction (ValueError).
    `size` must be two values. `lr` must be >= 0 and finite; 0 keeps the
    parameters frozen. `steps` must be >= 0; 0 only scores the initial
    parameters.
    """

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
        if len(self.size) != 2:
            raise ValueError("size must be two integers")
        if self.n_unroll < 1:
            raise ValueError("n_unroll must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0 <= self.lr < math.inf:  # also rejects nan
            raise ValueError("lr must be >= 0 and finite")
        if self.rank < 1 or self.rank > min(self.size):
            raise ValueError("rank must be in [1, min(size)]")
        if self.algorithm not in _SOLVERS:
            raise ValueError("algorithm must be " + " or ".join(map(repr, _SOLVERS)))
        if not 0 <= self.inject_rate <= 1:
            raise ValueError("inject_rate must be in [0, 1]")
        if self.precision not in _PRECISIONS:
            raise ValueError("precision must be " + " or ".join(map(repr, _PRECISIONS)))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def build_admm_tape(n_unroll: int) -> tuple[Tape, int]:
    """Unrolled ADMM for completion: returns (tape, output node id).

    X_0 = P_Omega(Y), L_0 = 0, then per iteration i:
      Z_i = SVT(X_{i-1} + L_{i-1}, tau_i)
      X_i = P_Omega(Y) + P_Omega^c(Z_i - L_{i-1})
      L_i = L_{i-1} - eta_i (Z_i - X_i)
    with tau_i = lambda_i/mu_i and eta_i learnable through the trainer.
    P_Omega multiplies by the bound 0/1 input `mask`, P_Omega^c by `unobserved`.
    """
    t = Tape()
    y = t.input("Y")
    l = t.input("L0")
    mask = t.input("mask")
    unobserved = t.input("unobserved")
    b = t.hadamard(y, mask)
    x = b
    for i in range(1, n_unroll + 1):
        tau_i = t.parameter_scalar(f"tau_{i}")
        eta_i = t.parameter_scalar(f"eta_{i}")
        z = t.svt(t.add(x, l), tau_param=tau_i)
        d = t.sub(z, l)
        x = t.add(b, t.hadamard(d, unobserved))
        r = t.sub(z, x)
        l = t.sub(l, t.scale_by_param(r, eta_i))
    return t, x


def build_pgd_tape(n_unroll: int) -> tuple[Tape, int]:
    """Unrolled proximal gradient descent with the sampling operator P_Omega:
      Z = X - rho_i P_Omega(X - Y),  X^+ = SVT(Z, tau_i)
    with tau_i = lambda_i * rho_i learnable through the trainer. P_Omega
    multiplies by the bound 0/1 input `mask`."""
    t = Tape()
    y = t.input("Y")
    mask = t.input("mask")
    b = t.hadamard(y, mask)
    x = b
    for i in range(1, n_unroll + 1):
        rho_i = t.parameter_scalar(f"rho_{i}")
        tau_i = t.parameter_scalar(f"tau_{i}")
        resid = t.sub(t.hadamard(x, mask), b)
        z = t.sub(x, t.scale_by_param(resid, rho_i))
        x = t.svt(z, tau_param=tau_i)
    return t, x


def _solver_tape(config: UnrolledConfig) -> tuple[Tape, int]:
    # builders go by module name, not in _SOLVERS: the benchmark tracer wraps
    # them as module attributes, and a reference held elsewhere escapes it
    if config.algorithm == "admm":
        return build_admm_tape(config.n_unroll)
    return build_pgd_tape(config.n_unroll)


def _theta_names(config: UnrolledConfig) -> list[str]:
    params, _ = _SOLVERS[config.algorithm]
    stems = dict.fromkeys(stem for factors in params.values() for stem, _ in factors)
    return [f"{stem}_{i}" for i in range(1, config.n_unroll + 1) for stem in stems]


def _solver_bindings(config: UnrolledConfig, positive: dict[str, float], Y: np.ndarray, mask) -> dict:
    """Tape parameters from the positive scalars, the observations Y, the
    sampling mask as 0/1 inputs `mask` and `unobserved` in Y's dtype, and the
    zero inputs. Each product starts from 1.0 and takes its factors in table
    order, so lambda/mu and lambda*rho round as the plain expressions."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != Y.shape:
        raise ValueError(f"mask shape {mask.shape} vs Y shape {Y.shape}")
    params, zeros = _SOLVERS[config.algorithm]
    bindings = {}
    for i in range(1, config.n_unroll + 1):
        for name, factors in params.items():
            value = 1.0
            for stem, exponent in factors:
                p = positive[f"{stem}_{i}"]
                value = value * p if exponent > 0 else value / p
            bindings[f"{name}_{i}"] = value
    bindings["Y"] = Y
    bindings["mask"] = mask.astype(Y.dtype)
    bindings["unobserved"] = (~mask).astype(Y.dtype)
    for name in zeros:
        bindings[name] = np.zeros_like(Y)
    return bindings


def _theta_grads(config: UnrolledConfig, bound: dict, grads: GradientSet) -> dict[str, float]:
    """Chain tape-parameter gradients to log-space scalars theta = log(p).

    `bound` holds the tape parameters q from `_solver_bindings`. As q is a
    product of p**exponent, dL/dtheta_p = sum_q exponent * dL/dq * q, summed
    from 0.0 in table order; a parameter with no cotangent contributes 0.
    """
    params, _ = _SOLVERS[config.algorithm]
    g = {name: 0.0 for name in _theta_names(config)}
    for i in range(1, config.n_unroll + 1):
        for name, factors in params.items():
            cot = grads.by_name(f"{name}_{i}")
            dq = float(cot) if cot is not None else 0.0
            for stem, exponent in factors:
                g[f"{stem}_{i}"] += exponent * dq * bound[f"{name}_{i}"]
    return g


def unrolled_forward(Y, mask, config: UnrolledConfig, params: dict[str, float] | None = None) -> np.ndarray:
    """Run the unrolled `config.algorithm` forward pass and return the
    reconstruction; every positive scalar defaults to 1."""
    positive = params or {name: 1.0 for name in _theta_names(config)}
    tape, out = _solver_tape(config)
    return tape.forward(_solver_bindings(config, positive, np.asarray(Y), mask))[out]


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


def _run_bindings(config: UnrolledConfig, positive: dict[str, float], sample) -> dict:
    """Bindings of the run's tape, the solver plus a `target` input, for one
    (Y, mask, X_true) sample or a stack of them, in the config's precision."""
    Y, mask, X_true = sample
    dt = _PRECISIONS[config.precision]
    bindings = _solver_bindings(config, positive, Y.astype(dt, copy=False), mask)
    bindings["target"] = X_true.astype(dt, copy=False)
    return bindings


def _val_mse(config: UnrolledConfig, solver: tuple[Tape, int], val, positive: dict[str, float],
             reuse=None) -> tuple[float, list]:
    """Held-out completion MSE from one forward of the run's (tape, output
    node) over `val`, the held-out (Y, mask, X_true) stacked. Each sample's
    MSE is taken in float64 as its own mean, and one cumulative sum adds
    them in stack order, as a per-sample loop would. Returns the MSE and the
    forward's values.

    `reuse`, the values of an earlier held-out forward, goes to
    `Tape.forward`: an SVD input that repeats from it is not decomposed
    again. Both solvers' first SVT acts on P_Omega(Y) alone, so it repeats
    at every step."""
    tape, out = solver
    with np.errstate(**_QUIET):
        values = tape.forward(_run_bindings(config, positive, val), reuse)
        X = values[out]
        mse = np.mean((X.astype(np.float64) - val[2]) ** 2, axis=(-2, -1))
    return float(np.cumsum(mse)[-1]) / len(X), values


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
        Scenario(case=2, seed=(config.seed, 7001, step), size=config.size, basis="rotated")
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
    lambda, mu, eta, rho positive). One loop runs steps 0..config.steps;
    step 0 scores the initial parameters and updates nothing, so its line
    has no `injected` key. Every log line carries the held-out completion MSE
    as `loss`, the per-step batch loss as `train_loss`, the gradient
    finiteness flag, and the current positive parameters. An update
    that leaves any parameter non-finite halts training with a diagnostic
    line; safeguarded modes never trigger it, the exact mode does under
    injected duplicate spectra. So does a solver forward that meets a
    non-finite value (a parameter too large for the tape's precision, or one
    that drives an iterate to inf), the held-out score before the first step
    included. Without a `dataset`, the steps cycle through 32 generated
    samples, of which only the ones they visit are drawn. One tape serves
    every forward of the run; each sample's mask is bound data. The held-out
    set is scored as one stack, so its samples must share one shape. Each
    held-out forward reuses the SVDs of the one before it where their inputs
    repeat byte for byte (see `_val_mse`); only that one previous forward is
    kept.
    """
    if not dataset:
        # each sample has its own stream, so drawing only those the steps
        # visit leaves every one of them as drawing all would
        dataset = make_completion_dataset(config, min(_TRAIN_SIZE, config.steps), tag=1)
    if not val_set:
        val_set = make_completion_dataset(config, _VAL_SIZE, tag=2)
    tape, out = solver = _solver_tape(config)
    loss = tape.mse_loss(out, tape.input("target"))
    val = tuple(np.stack(column) for column in zip(*val_set))
    theta = {name: 0.0 for name in _theta_names(config)}
    adam_m = {name: 0.0 for name in theta}
    adam_v = {name: 0.0 for name in theta}
    inject_rng = _rng(config.seed, 7000)

    def positive_of(th):
        return {name: _exp(v) for name, v in th.items()}

    log = TrainingLog(lines=[])
    val_values = None
    for step in range(config.steps + 1):
        line = {"step": step, "loss": None, "train_loss": None, "grad_finite": True,
                "params": positive_of(theta)}
        if step > 0:
            injected = config.inject_rate > 0 and float(inject_rng.random()) < config.inject_rate
            line["injected"] = injected
            sample = _injected_sample(config, step) if injected else dataset[(step - 1) % len(dataset)]
            with np.errstate(**_QUIET):
                bindings = _run_bindings(config, line["params"], sample)
                try:
                    values = tape.forward(bindings)
                except NonFiniteError:
                    _halt(log, {**line, "grad_finite": None}, _SOLVER_HALT)
                    break
                grads = tape.backward(values, loss, config.mode)
            tg = _theta_grads(config, bindings, grads)

            b1, b2 = _ADAM_BETA1, _ADAM_BETA2
            for name in theta:
                g = tg[name]
                adam_m[name] = b1 * adam_m[name] + (1 - b1) * g
                adam_v[name] = b2 * adam_v[name] + (1 - b2) * g * g
                mhat = adam_m[name] / (1 - b1**step)
                vhat = adam_v[name] / (1 - b2**step)
                theta[name] -= config.lr * mhat / (math.sqrt(vhat) + _ADAM_EPS)

            line.update(train_loss=values[loss], grad_finite=all(map(math.isfinite, tg.values())),
                        params=positive_of(theta))
            if not all(map(math.isfinite, line["params"].values())):
                _halt(log, line, "non-finite parameter after update")
                break
        try:
            line["loss"], val_values = _val_mse(config, solver, val, line["params"], val_values)
        except NonFiniteError:
            _halt(log, line, _SOLVER_HALT)
            break
        log.lines.append(line)
    return positive_of(theta), log
