"""svdgrad benchmark: one closed-loop caller, three workloads, outside-in layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload efficacy --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with the program untouched;
`--trace 1` wraps the layers (see tracing.py) and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
`record` with the environment, the configuration and every check. See
README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9      # fresh processes timed for setup_s, spread over the run
TRACE_CYCLE = 4       # call indices a traced run repeats, so its counts repeat exactly

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def _cap_blas_threads() -> int:
    """Limit BLAS threads to the usable CPUs; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _blas_threads_in_effect():
    """OpenBLAS's own thread count, queried from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(nproc: int, seed: int) -> dict:
    import platform

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads_in_effect(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def _check_sources() -> None:
    if not (SRC / "svdgrad" / "__init__.py").is_file():
        raise SystemExit(f"error: no svdgrad sources under {SRC}; run from a checkout of the repository")


def _import_svdgrad():
    sys.path.insert(0, str(SRC))
    import importlib

    svdgrad = importlib.import_module("svdgrad")
    if Path(svdgrad.__file__).resolve().parent != SRC / "svdgrad":
        raise SystemExit(f"error: imported svdgrad from {svdgrad.__file__}, not from {SRC}")
    importlib.import_module("svdgrad.cli")
    return svdgrad


def _probe_setup(args) -> float:
    """Seconds from spawning a fresh process until it has imported svdgrad,
    built its inputs and finished one warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: setup probe failed (exit {code})")
    return elapsed


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _all_checks(workload, outcomes, warm) -> tuple[dict[str, bool], dict]:
    checks: dict[str, bool] = {}
    for out in outcomes:
        for name, ok in out.checks.items():
            checks[name] = checks.get(name, True) and ok
    same = [out.digest == warm.digest for out in outcomes if out.index == 0]
    checks["same_seed_same_digest"] = bool(same) and all(same)
    distinct = {}
    for out in outcomes:
        distinct.setdefault(out.index, out)
    run_checks, summary = workload.summarize([distinct[i] for i in sorted(distinct)])
    checks.update(run_checks)
    return checks, summary


def _timed(workload, index):
    start = time.perf_counter_ns()
    out = workload.call(index)
    out.index = index
    return out, time.perf_counter_ns() - start


def run_untraced(workload, reference, seconds: float, probe):
    """Calls in a closed loop for `seconds` of loop time; each call's rate is
    rescaled by the reference passes before and after it. The set-up probes
    are spread evenly over the loop, so that they sample the same spells of
    host speed as the calls, and their median is rescaled by the run's median
    reference factor; probe time does not count as loop time."""
    outcomes, raw, factors, probes = [], [], [], []
    index, loop_s = 0, 0.0
    while loop_s < seconds or not outcomes:
        if len(probes) < SETUP_PROBES and loop_s >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        start = time.perf_counter()
        before = reference.seconds()
        out, ns = _timed(workload, index)
        after = reference.seconds()
        loop_s += time.perf_counter() - start
        outcomes.append(out)
        raw.append(out.items / (ns / 1e9))
        factors.append(reference.scale(before, after))
        index += 1
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    scaled = [rate * factor for rate, factor in zip(raw, factors)]
    metrics = {"items_per_s": _median(scaled), "setup_s": _median(probes) / _median(factors)}
    extra = {"calls": len(outcomes), "items_per_s_raw": _median(raw),
             "items_per_s_quartiles": _quartiles(scaled), "setup_probe_s": probes,
             "reference_factor": _median(factors)}
    return outcomes, metrics, dict(END_TO_END_UNITS), extra


def run_traced(workload, seconds: float):
    from tracing import SPANS, Tracer

    tracer = Tracer()
    traced, plain = [], []          # (outcome, ns) pairs
    hook_before = 0
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline or not traced:
        for index in range(TRACE_CYCLE):
            for with_trace in ((True, False) if (cycle + index) % 2 == 0 else (False, True)):
                if with_trace:
                    tracer.install()
                    try:
                        out, ns = _timed(workload, index)
                    finally:
                        tracer.uninstall()
                    traced.append((out, ns - (tracer.hook_ns - hook_before)))
                    hook_before = tracer.hook_ns
                else:
                    plain.append(_timed(workload, index))
        cycle += 1

    items = sum(out.items for out, _ in traced)
    wall_ns = sum(ns for _, ns in traced) + tracer.hook_ns
    metrics, units = {}, {}
    for span in SPANS:
        if span in tracer.sites:
            metrics[f"{span}.calls_per_item"] = tracer.calls[span] / items
            metrics[f"{span}.self_us_per_item"] = tracer.self_ns[span] / items / 1e3
            units[f"{span}.calls_per_item"] = "calls/item"
            units[f"{span}.self_us_per_item"] = "us/item"

    regen, trials = (sum(out.regen[i] for out, _ in traced) for i in (0, 1))
    counts = {
        "backward.equal_pair_frac": tracer.equal_pairs / tracer.pairs if tracer.pairs else 0.0,
        "backward.nonfinite_frac": (tracer.vjp_nonfinite / tracer.vjp_safeguarded
                                    if tracer.vjp_safeguarded else 0.0),
        "experiments.regen_ratio": regen / trials if trials else 0.0,
        "untraced_us_per_item": (wall_ns - tracer.top_ns) / items / 1e3,
        "trace_overhead_frac": (_median([ns / out.items for out, ns in traced])
                                / _median([ns / out.items for out, ns in plain]) - 1.0),
        "failed_frac": sum(out.failed for out, _ in traced) / items,
    }
    for name, value in counts.items():
        if name not in tracer.absent_counts:
            metrics[name] = value
            units[name] = "us/item" if name.endswith("us_per_item") else "frac"

    span_us = sum(v for k, v in metrics.items() if k.endswith(".self_us_per_item"))
    extra = {
        "traced_calls": len(traced),
        "cycles": cycle,
        "traced_us_per_item": (wall_ns - tracer.hook_ns) / items / 1e3,
        "spans_plus_untraced_us_per_item": span_us + counts["untraced_us_per_item"],
        "count_hook_us_per_item": tracer.hook_ns / items / 1e3,
        "absent_spans": tracer.absent_spans,
        "absent_targets": tracer.absent_targets,
        "absent_counts": tracer.absent_counts,
        "binding_sites": tracer.sites,
    }
    return [out for out, _ in traced] + [out for out, _ in plain], metrics, units, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _check_sources()
    nproc = _cap_blas_threads()
    svdgrad = _import_svdgrad()
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](svdgrad, args.seed, workdir)
        warm = workload.call(0)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            outcomes, metrics, units, extra = run_traced(workload, args.seconds)
        else:
            from reference import Reference

            outcomes, metrics, units, extra = run_untraced(
                workload, Reference(), args.seconds, lambda: _probe_setup(args))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks, summary = _all_checks(workload, outcomes, warm)
    attempted = sum(out.items for out in outcomes)
    failed = sum(out.failed for out in outcomes)
    record = {
        "workload": args.workload,
        "item": workload.item,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": workload.config,
        "env": _environment(nproc, args.seed),
        "checks": checks,
        "failed_frac": failed / attempted,
        "first_call": warm.detail,
        "summary": summary,
        **extra,
    }
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[name]}")
    if "failed_frac" not in metrics:
        print(f"failed_frac {failed / attempted!r} frac ({failed} of {attempted} {workload.item}s)")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
