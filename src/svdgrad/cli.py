"""Command-line entry point: gradcheck, efficacy benchmark, unrolled training.

Configuration comes from defaults, an optional JSON config file, and explicit
flags, in increasing precedence. Unknown config keys are rejected, and so
is a config value that is not of its setting's declared type. Exit
codes: 0 success, 1 tolerance/assertion failure, 2 usage or config error.
Reports embed the resolved configuration so outputs are self-describing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import types
import typing
from dataclasses import asdict, dataclass

import numpy as np

from .backward import _VARIANTS, GradMode, StabilityParams
from .experiments import (
    _PRECISIONS,
    _SOLVERS,
    UnrolledConfig,
    _json_safe,
    _rng,
    run_efficacy,
    train_unrolled,
)
from .oracle import finite_difference
from .svt import ThresholdSpec
from .tape import Tape

__all__ = ["RunConfig", "cmd_efficacy", "cmd_gradcheck", "cmd_train", "main"]


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation.

    A setting is range-checked by the library object its command hands it
    to (UnrolledConfig, run_efficacy, GradMode), so one a command does not
    read is not checked under that command: `"trials": 0` in a train config
    file passes. Checked here is only what no library object checks, plus
    one rule of the CLI's own: `train` refuses a zero `lr`. Every field's
    value must fit its declared type (`_fits`, the rule a config file is
    read by), else TypeError naming the field. A NumPy integer or float
    (`np.bool_` is neither) is taken as the Python int or float of its
    value, and stored as that, so `resolved()` stays JSON.
    """

    command: str = ""
    modes: tuple[str, ...] = ("tf", "clip", "taylor", "inv")
    mode: str = "inv"
    t: float | None = None
    clamp: float | None = None
    clip_value: float = 1e16
    taylor_k: int = 9
    precision: str = "single"
    seed: int = 3407
    seeds: tuple[int, ...] | None = None
    trials: int = 100
    cases: tuple[int, ...] = (1, 2)
    workflows: tuple[int, ...] = (1, 2, 3)
    size: tuple[int, int] = (10, 10)
    basis: str = "rotated"
    output: str | None = None
    format: str = "csv"
    steps: int = 200
    algorithm: str = "admm"
    n_unroll: int = 5
    lr: float = 0.05
    inject_duplicates: float = 0.0
    checks: int = 25
    tolerance: float = 1e-5

    def __post_init__(self):
        for key, hint in _CONFIG_TYPES.items():
            value = getattr(self, key)
            python = _python_scalars(value)
            if not _fits(python, hint):
                raise TypeError(f"{key} must be {self.__annotations__[key]}, got {value!r}")
            setattr(self, key, python)
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if self.checks < 1:
            raise ValueError("checks must be >= 1")
        if not self.tolerance >= 0:  # also rejects nan
            raise ValueError("tolerance must be >= 0")
        if self.seed < 0:  # gradcheck keys its Philox streams with it
            raise ValueError("seed must be >= 0")
        for variant in (*self.modes, self.mode):
            self.grad_mode(variant)
        if self.command == "train":
            if self.lr == 0:  # the library takes it as a frozen run
                raise ValueError("lr must be positive")
            self.unrolled_config()

    def grad_mode(self, variant: str | None = None) -> GradMode:
        return GradMode(
            variant or self.mode,
            clip_value=self.clip_value,
            taylor_k=self.taylor_k,
            stability=StabilityParams(t=self.t, clamp=self.clamp),
        )

    def unrolled_config(self) -> UnrolledConfig:
        return UnrolledConfig(
            size=self.size,
            n_unroll=self.n_unroll,
            algorithm=self.algorithm,
            steps=self.steps,
            lr=self.lr,
            inject_rate=self.inject_duplicates,
            mode=self.grad_mode(),
            precision=self.precision,
            seed=self.seed,
        )

    def resolved(self) -> dict:
        d = asdict(self)
        for key in ("modes", "cases", "workflows", "size", "seeds"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d


_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def _python_scalars(value):
    """value with each NumPy integer or float, also in a tuple, as the
    Python int or float of its value; anything else as it is."""
    if isinstance(value, tuple):
        return tuple(_python_scalars(v) for v in value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _fits(value, hint) -> bool:
    """Whether the value fits the type hint of a RunConfig field: True and
    False are no numbers, an integer is also a float, a tuple fits a tuple
    hint when each entry fits the hint's first argument (the library checks
    the length), and None fits only an optional setting. A config file's
    lists are taken as tuples."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        entry = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_fits(v, entry) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise SystemExit(f"error: cannot read config {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise SystemExit(f"error: config {path} must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_TYPES))
    if unknown:
        raise SystemExit(f"error: unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        if isinstance(value, list):
            raw[key] = tuple(value)
        if not _fits(raw[key], _CONFIG_TYPES[key]):
            declared = RunConfig.__annotations__[key]
            raise SystemExit(f"error: config {path}: {key} must be {declared}, got {json.dumps(value)}")
    return raw


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise SystemExit(f"error: cannot write {path}: {e.strerror}") from e


# -- gradcheck ---------------------------------------------------------------


def _separated_matrix(rng: np.random.Generator, n: int, complex_: bool):
    """Random n x n double matrix whose singular values are >= 0.4 apart."""
    s = np.linspace(2.0, 2.0 + 0.5 * (n - 1), n) + rng.uniform(0, 0.1, n)
    gauss = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if complex_
        else rng.standard_normal((n, n))
        for _ in range(2)
    ]
    q, _ = np.linalg.qr(np.stack(gauss))
    return (q[0] * s[None, :]) @ q[1].conj().T, s


_SVT_DRAWS = 50


def _svt_point(rng: np.random.Generator, n: int, complex_: bool, A, svals):
    """The svt group's tape, loss node, point forward and matrix.

    The L1 loss has kinks at zero entries, so A is redrawn until every entry
    of the svt node's value in the point forward is more than 1e-4 from zero,
    safely away from the kinks at the FD step size. Raises RuntimeError when
    all of _SVT_DRAWS draws fail."""
    use_soft = rng.random() < 0.5
    for draw in range(_SVT_DRAWS):
        if draw:
            A, svals = _separated_matrix(rng, n, complex_)
        sd = np.sort(svals)
        spec = ThresholdSpec.soft(float((sd[1] + sd[2]) / 2)) if use_soft else ThresholdSpec.hard_tail(2)
        tape = Tape()
        b = tape.svt(tape.input("A"), spec)
        loss = tape.l1_loss(b)
        values = tape.forward({"A": A})
        if float(np.abs(values[b]).min()) > 1e-4:
            return tape, loss, values, A
    raise RuntimeError(
        f"gradcheck group 'svt': all {_SVT_DRAWS} draws put an output entry within 1e-4 of an L1 kink"
    )


def _gradcheck_case(op: str, rng: np.random.Generator, cfg: RunConfig, complex_: bool):
    """One FD-vs-analytic check; returns (fd rel err, exact-vs-inv rel gap).

    Each distinct forward runs once: the point forward, whose values one
    backward under both modes (exact and inv) reuses, one stacked forward
    for the FD of A, and in the chain group one more for the FD of its
    parameter c."""
    n = int(rng.integers(4, 8))
    A, svals = _separated_matrix(rng, n, complex_)
    extra: dict[str, np.ndarray] = {}
    if op == "svt":
        tape, loss, values, A = _svt_point(rng, n, complex_, A, svals)
    else:
        tape = Tape()
        a = tape.input("A")
        if op == "sum_singular_values":
            loss = tape.sum_singular_values(a)
        elif op == "svt_mse":
            z = tape.input("Z")
            extra["Z"] = np.zeros_like(A)
            loss = tape.mse_loss(tape.svt(a, ThresholdSpec.soft(float(np.sort(svals)[1] * 0.5))), z)
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
        values = tape.forward({"A": A, **extra})

    def loss_fn(stack):
        return tape.forward({"A": stack, **extra})[loss]

    fd = finite_difference(loss_fn, A)
    grads_exact, grads_inv = tape.backward(values, loss, [cfg.grad_mode("exact"), cfg.grad_mode("inv")])
    g_exact, g_inv = grads_exact.by_name("A"), grads_inv.by_name("A")
    ref = max(float(np.linalg.norm(fd)), 1e-30)
    fd_err = float(np.linalg.norm(g_inv - fd)) / ref
    mode_gap = float(np.linalg.norm(g_inv - g_exact)) / max(float(np.linalg.norm(g_exact)), 1e-30)
    if op == "chain":
        c = np.array([extra["c"]], dtype=np.float64)

        def loss_c(cs):
            # c binds one perturbed value per matrix of the output stack
            return tape.forward({"A": A, **extra, "c": cs[:, 0]})[loss]

        fd_c = float(finite_difference(loss_c, c)[0])
        c_err = abs(fd_c - grads_inv.by_name("c")) / max(abs(fd_c), 1e-30)
        # np.maximum, unlike max, keeps a NaN from either side
        fd_err = float(np.maximum(fd_err, c_err))
    return fd_err, mode_gap


def cmd_gradcheck(cfg: RunConfig) -> int:
    """FD and double-precision cross-checks over a random suite; exit 1 on
    any worst-case relative error above the tolerance or not finite."""
    ops = ("sum_singular_values", "svt_mse", "svt", "chain")
    results = []
    failed = False
    print(f"gradcheck seed={cfg.seed} checks={cfg.checks} tolerance={cfg.tolerance:g}")
    for op_index, op in enumerate(ops):
        rng = _rng(cfg.seed, op_index)
        cases = [_gradcheck_case(op, rng, cfg, complex_=(i % 2 == 1)) for i in range(cfg.checks)]
        fd_errs, gaps = zip(*cases)
        # np.max, unlike max, carries a NaN through, so it fails the group
        worst_fd, worst_gap = float(np.max(fd_errs)), float(np.max(gaps))
        ok = worst_fd <= cfg.tolerance
        failed = failed or not ok
        results.append({"op": op, "worst_fd_rel_err": worst_fd, "exact_inv_gap": worst_gap, "ok": ok})
        print(
            f"op={op} worst_fd_rel_err={worst_fd:.3e} exact_inv_gap={worst_gap:.3e} "
            f"{'ok' if ok else 'FAIL'}"
        )
    status = "FAIL" if failed else "PASS"
    print(f"gradcheck: {status}")
    if cfg.output:
        _write_text(
            cfg.output,
            json.dumps(_json_safe({"config": cfg.resolved(), "results": results}), sort_keys=True) + "\n",
        )
    return 1 if failed else 0


# -- efficacy ----------------------------------------------------------------


def cmd_efficacy(cfg: RunConfig) -> int:
    modes = [cfg.grad_mode(name) for name in cfg.modes]
    seeds = cfg.seeds if cfg.seeds is not None else (cfg.seed,)
    try:
        report = run_efficacy(
            cfg.trials,
            modes,
            cases=cfg.cases,
            workflows=cfg.workflows,
            seeds=seeds,
            size=cfg.size,
            basis=cfg.basis,
        )
    except ValueError as e:
        raise SystemExit(f"error: {e}") from e
    report.config.update({"command": "efficacy", "clip_value": cfg.clip_value})
    if cfg.format == "json":
        _write_text(cfg.output, json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    else:
        _write_text(cfg.output, report.to_csv_text())
    return 0


# -- train -------------------------------------------------------------------


def cmd_train(cfg: RunConfig) -> int:
    params, log = train_unrolled(cfg.unrolled_config())
    _write_text(cfg.output, log.to_jsonl(config_line=cfg.resolved()))
    if log.halted:
        last = log.lines[-1]
        what = last["diagnostic"].removesuffix(" after update")
        print(f"training halted: {what} after step {last['step']}", file=sys.stderr)
    return 0


# -- argument plumbing -------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _size(text: str) -> tuple[int, int]:
    parts = text.lower().replace("x", ",").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("size must look like 10x10")
    return (int(parts[0]), int(parts[1]))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing keeps no
    state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="svdgrad",
        description="SVD gradient benchmarks: gradcheck, duplicate-spectrum efficacy, unrolled training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help="master seed (default 3407)")
        p.add_argument("--t", type=float, dest="t", help="classification threshold parameter")
        p.add_argument("--clamp", type=float, help="clamp for 1/sigma style quantities")
        p.add_argument("--clip-value", type=float, dest="clip_value")
        p.add_argument("--taylor-k", type=int, dest="taylor_k")
        p.add_argument("--output", "-o", help="output path ('-' for stdout)")

    g = sub.add_parser("gradcheck", help="finite-difference and cross-mode gradient checks")
    common(g)
    g.add_argument("--checks", type=int, help="cases per op group")
    g.add_argument("--tolerance", type=float, help="max allowed FD relative error")

    e = sub.add_parser("efficacy", help="cumulative gradient-MSE benchmark")
    common(e)
    e.add_argument("--trials", type=int, help="trials per cell")
    e.add_argument("--modes", type=_str_list, help="comma list from tf,clip,taylor,inv")
    e.add_argument("--cases", type=_int_list, help="comma list from 1,2")
    e.add_argument("--workflows", type=_int_list, help="comma list from 1,2,3")
    e.add_argument("--seeds", type=_int_list, help="comma list of master seeds")
    e.add_argument("--size", type=_size, help="matrix size, e.g. 10x10")
    e.add_argument("--basis", choices=("identity", "rotated"))
    e.add_argument("--format", choices=("csv", "json"))

    t = sub.add_parser("train", help="train an unrolled completion solver")
    common(t)
    t.add_argument("--mode", choices=_VARIANTS)
    t.add_argument("--algorithm", choices=tuple(_SOLVERS))
    t.add_argument("--steps", type=int)
    t.add_argument("--n-unroll", type=int, dest="n_unroll")
    t.add_argument("--lr", type=float)
    t.add_argument("--inject-duplicates", type=float, dest="inject_duplicates")
    t.add_argument("--precision", choices=tuple(_PRECISIONS))
    t.add_argument("--size", type=_size, help="matrix size, e.g. 20x20")
    return parser


def _resolve(argv: list[str] | None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    provided = {k: v for k, v in vars(ns).items() if v is not None and k != "config"}
    merged: dict = {}
    if ns.command == "train":
        merged["size"] = (20, 20)
    if ns.config:
        merged.update(_load_config_file(ns.config))
    merged.update(provided)
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as e:
        raise SystemExit(f"error: invalid configuration: {e}") from e


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code, also for a usage error or
    `--help` (where argparse would exit)."""
    handlers = {"gradcheck": cmd_gradcheck, "efficacy": cmd_efficacy, "train": cmd_train}
    try:
        cfg = _resolve(argv)
        return handlers[cfg.command](cfg)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        return e.code or 0


if __name__ == "__main__":
    sys.exit(main())
