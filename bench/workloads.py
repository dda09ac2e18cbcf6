"""The three benchmark workloads, each calling svdgrad's public entry points.

A workload is built from the master seed and then called with an index;
call `i` derives its own seed from the master seed and `i`, so a run is a
deterministic sequence of inputs however many calls fit in its time. Each
call returns an `Outcome`: how many items of work it did, how many of them
failed, which output checks held, and a digest of its report so that two
calls with the same index can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field

MODES = ("tf", "clip", "taylor", "inv")


def call_seed(master: int, index: int) -> int:
    return master * 1_000_000 + index


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    items: int
    failed: int
    checks: dict[str, bool]
    digest: str
    detail: dict = field(default_factory=dict)
    regen: tuple[int, int] = (0, 0)  # (regenerated inputs, trials)
    index: int = -1


class Workload:
    name: str
    item: str

    def summarize(self, outcomes) -> tuple[dict, dict]:
        """Checks and record entries over the run's distinct calls."""
        return {}, {}


class Efficacy(Workload):
    """Criterion-4 shape: rotated 10x10 basis, four modes, 2 cases x 3 workflows.

    Item: one paired trial, i.e. one float32 forward scored under every mode
    against the float64 exact reference, in one (case, workflow) cell.
    """

    name = "efficacy"
    item = "paired trial"
    trials = 20
    options = {"cases": (1, 2), "workflows": (1, 2, 3), "size": (10, 10), "basis": "rotated"}

    def __init__(self, svdgrad, seed: int, workdir: str):
        self.sg = svdgrad
        self.seed = seed
        self.config = {"trials_per_cell": self.trials, "modes": MODES, **self.options}

    def call(self, index: int) -> Outcome:
        report = self.sg.run_efficacy(
            self.trials, MODES, seeds=(call_seed(self.seed, index),), **self.options
        )
        mse = {(c.case, c.workflow, c.mode): c.mse_sum for c in report.cells}
        grid = {(c.case, c.workflow): (c.invalid_trials, c.trials) for c in report.cells}
        bad = {(case, wf) for (case, wf, _), v in mse.items() if not math.isfinite(v)}
        return Outcome(
            items=sum(trials for _, trials in grid.values()),
            failed=sum(grid[cell][1] for cell in bad),
            checks={"mse_sum_finite": not bad},
            digest=_digest(report.to_csv_text()),
            detail={"mse_sum": {f"case{c}.workflow{w}.{m}": v for (c, w, m), v in mse.items()}},
            regen=(sum(inv for inv, _ in grid.values()), sum(t for _, t in grid.values())),
        )

    def summarize(self, outcomes) -> tuple[dict, dict]:
        """The ordering is a claim about cumulative error, so it is checked on
        every cell's mse_sum summed over the run's distinct calls."""
        total: dict[str, float] = {}
        for out in outcomes:
            for key, value in out.detail["mse_sum"].items():
                total[key] = total.get(key, 0.0) + value
        cells = sorted({key.rsplit(".", 1)[0] for key in total})
        ordered = all(total[f"{cell}.inv"] < total[f"{cell}.{other}"]
                      for cell in cells for other in ("tf", "clip"))
        detail = {
            "cumulative_mse_sum": total,
            # known red at the criterion-4 config; recorded, not checked
            "taylor_below_inv": [cell for cell in cells if total[f"{cell}.taylor"] < total[f"{cell}.inv"]],
        }
        return {"inv_below_tf_and_clip": ordered}, detail


class Train(Workload):
    """Criterion-8 schedule: unrolled ADMM, 20x20 rank 2, 5 unrolls, inv, float32,
    10% of batches replaced by exactly duplicated spectra.

    Item: one optimizer step (one tape forward and backward plus the
    held-out validation forwards that follow it).
    """

    name = "train"
    item = "optimizer step"
    options = {"steps": 15, "size": (20, 20), "rank": 2, "n_unroll": 5, "algorithm": "admm",
               "precision": "single", "inject_rate": 0.1}

    def __init__(self, svdgrad, seed: int, workdir: str):
        self.sg = svdgrad
        self.seed = seed
        self.config = {"mode": "inv", **self.options}

    def call(self, index: int) -> Outcome:
        sg = self.sg
        config = sg.UnrolledConfig(
            mode=sg.GradMode.inv(), seed=call_seed(self.seed, index), **self.options
        )
        _, log = sg.train_unrolled(config)
        steps = [line for line in log.lines if line["step"] > 0]
        bad = [line for line in steps if line["grad_finite"] is False or line.get("halted")]
        initial, final = log.lines[0]["loss"], log.lines[-1]["loss"]
        return Outcome(
            items=len(steps),
            failed=len(bad),
            checks={
                "no_halt": not log.halted,
                "all_steps_finite": not bad,
                "final_below_initial": final is not None and final < initial,
            },
            digest=_digest(log.to_jsonl()),
            detail={"initial_val_mse": initial, "final_val_mse": final,
                    "injected_steps": sum(1 for line in steps if line.get("injected"))},
        )


class Gradcheck(Workload):
    """`svdgrad gradcheck` called in process: FD against the inv and exact
    backward over four op groups, real and complex128 matrices, n = 4-7.

    Item: one finite-difference check.
    """

    name = "gradcheck"
    item = "FD check"
    per_group = 5

    def __init__(self, svdgrad, seed: int, workdir: str):
        self.cli = importlib.import_module("svdgrad.cli")
        self.seed = seed
        self.output = os.path.join(workdir, "gradcheck.json")
        self.config = {"checks_per_group": self.per_group}

    def call(self, index: int) -> Outcome:
        argv = ["gradcheck", "--checks", str(self.per_group),
                "--seed", str(call_seed(self.seed, index)), "--output", self.output]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        with open(self.output) as fh:
            text = fh.read()
        os.remove(self.output)
        results = json.loads(text)["results"]
        not_ok = [r["op"] for r in results if not r["ok"]]
        return Outcome(
            items=self.per_group * len(results),
            failed=self.per_group * len(not_ok),
            checks={"exit_code_zero": code == 0, "every_group_ok": not not_ok and bool(results)},
            digest=_digest(text),
            detail={"worst_fd_rel_err": {r["op"]: r["worst_fd_rel_err"] for r in results}},
        )


WORKLOADS = {w.name: w for w in (Efficacy, Train, Gradcheck)}
