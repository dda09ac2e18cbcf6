"""End-to-end checks of the command line entry point.

Nearly everything drives main(argv) in-process so exit codes and output
files can be asserted directly. Two kinds of test run a subprocess: one smoke
test runs the console script (or `python -m svdgrad` in an uninstalled
checkout) and checks the packaging wiring in pyproject.toml, and the halting
`train` runs check the exact stderr a user sees, warnings included.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import svdgrad
from svdgrad import Tape, cli, finite_difference, train_unrolled
from svdgrad.cli import main


def _module_env() -> dict:
    """Environment in which `python -m svdgrad` imports the svdgrad this
    test imported, installed or not."""
    env = dict(os.environ)
    root = str(Path(svdgrad.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def test_gradcheck_healthy_run_exits_zero(capsys):
    rc = main(["gradcheck", "--checks", "3", "--seed", "3407"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck: PASS" in out
    for op in ("sum_singular_values", "svt_mse", "svt", "chain"):
        assert f"op={op}" in out


def test_gradcheck_backward_calls(monkeypatch, capsys):
    # two per check (exact and inv); the chain group reads the parameter
    # gradient from the inv pass instead of running a third backward
    calls = []
    backward = Tape.backward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "backward", counting)
    assert main(["gradcheck", "--checks", "1", "--seed", "5"]) == 0
    capsys.readouterr()
    assert len(calls) == 8


def test_gradcheck_forward_calls(monkeypatch, capsys):
    # two per check (the point itself, whose values both backward passes
    # reuse, and all finite-difference copies in one stack); the chain
    # group's parameter c adds one forward of its two perturbed values
    calls = []
    forward = Tape.forward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "forward", counting)
    assert main(["gradcheck", "--checks", "1", "--seed", "5"]) == 0
    capsys.readouterr()
    assert len(calls) == 9


_GRADCHECK_OPS = ("sum_singular_values", "svt_mse", "svt", "chain")


def _case_run(monkeypatch, module, case, op, seed, complex_):
    """One gradcheck check: its result, the bytes of every finite-difference
    gradient it took, and the generator's next raw output, which tells
    whether it took as many draws."""
    fds = []

    def recording(loss_fn, at, **kwargs):
        grad = finite_difference(loss_fn, at, **kwargs)
        fds.append(grad.tobytes())
        return grad

    monkeypatch.setattr(module, "finite_difference", recording)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, _GRADCHECK_OPS.index(op)])))
    result = case(op, rng, cli.RunConfig(command="gradcheck"), complex_)
    return np.array(result).tobytes(), fds, int(rng.bit_generator.random_raw())


@pytest.mark.parametrize("op", _GRADCHECK_OPS)
def test_gradcheck_case_matches_reference(op, monkeypatch):
    # each distinct forward once, the chain group's parameter FD as one
    # stacked forward, both QRs of a draw as one stack: the (fd_err,
    # mode_gap) pair, every FD gradient and the draws taken are those of the
    # check as it was written before, bit for bit
    for seed in (1, 2, 3, 3407, 41):
        for complex_ in (False, True):
            new = _case_run(monkeypatch, cli, cli._gradcheck_case, op, seed, complex_)
            old = _case_run(monkeypatch, oracles, oracles.gradcheck_case_reference, op, seed, complex_)
            assert new == old
            assert len(new[1]) == (2 if op == "chain" else 1)


@pytest.mark.parametrize("complex_", [False, True])
def test_gradcheck_svt_redraw_matches_reference(complex_, monkeypatch):
    # the first draw is made diagonal, so the svt output has exact zeros
    # off the diagonal, at the L1 kinks: both versions redraw once and agree
    draws = []

    def kinked_first(draw):
        def wrapped(rng, n, complex_):
            A, s = draw(rng, n, complex_)
            draws.append(n)
            return (np.diag(s).astype(A.dtype) if len(draws) == 1 else A), s
        return wrapped

    results = []
    for module, draw, case in ((cli, "_separated_matrix", cli._gradcheck_case),
                               (oracles, "separated_matrix_reference", oracles.gradcheck_case_reference)):
        draws.clear()
        monkeypatch.setattr(module, draw, kinked_first(getattr(module, draw)))
        results.append(_case_run(monkeypatch, module, case, "svt", 3, complex_))
        assert len(draws) == 2
    assert results[0] == results[1]


def test_gradcheck_svt_raises_when_every_draw_is_kinked(monkeypatch):
    # a check never uses a matrix it did not test: when all 50 draws put an
    # output entry on a kink there is no 51st draw, only an error
    draws = []
    draw = cli._separated_matrix

    def kinked(rng, n, complex_):
        A, s = draw(rng, n, complex_)
        draws.append(n)
        return np.diag(s).astype(A.dtype), s

    monkeypatch.setattr(cli, "_separated_matrix", kinked)
    rng = np.random.Generator(np.random.Philox(7))
    with pytest.raises(RuntimeError, match="gradcheck group 'svt': all 50 draws"):
        cli._gradcheck_case("svt", rng, cli.RunConfig(command="gradcheck"), False)
    assert len(draws) == 50


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    # one process, the same argv twice around a usage error: the parser is
    # built once and the two reports are byte-identical
    cli._build_parser.cache_clear()
    path = tmp_path / "report.json"
    argv = ["gradcheck", "--checks", "2", "--seed", "11", "--output", str(path)]
    assert main(argv) == 0
    first = path.read_bytes()
    assert main(["gradcheck", "--seed", "5", "--checks"]) == 2
    assert main(["gradcheck", "--tolerance", "-1"]) == 2
    assert main(argv) == 0
    capsys.readouterr()
    assert path.read_bytes() == first
    assert cli._build_parser.cache_info().misses == 1


def test_main_returns_argparse_exit_codes(capsys):
    # an argparse usage error and --help return their exit codes instead
    # of raising SystemExit out of main
    assert main(["gradcheck", "--no-such-flag"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_gradcheck_impossible_tolerance_exits_one(capsys):
    # 1e-18 is below central-difference truncation error, so every op
    # must be reported as a violation
    rc = main(["gradcheck", "--checks", "2", "--tolerance", "1e-18"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "gradcheck: FAIL" in out
    assert out.count("FAIL") >= 2


def test_gradcheck_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["gradcheck", "--checks", "2", "--seed", "11", "--output", str(path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(path.read_text())
    assert report["config"]["command"] == "gradcheck"
    assert report["config"]["seed"] == 11
    ops = {row["op"] for row in report["results"]}
    assert ops == {"sum_singular_values", "svt_mse", "svt", "chain"}
    for row in report["results"]:
        assert row["ok"] is True
        assert row["worst_fd_rel_err"] <= 1e-5


def test_efficacy_csv_layout(tmp_path, capsys):
    path = tmp_path / "eff.csv"
    rc = main(["efficacy", "--trials", "2", "--seed", "3407", "--output", str(path)])
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    # the embedded config must round-trip as JSON and record the run
    cfg = json.loads(lines[0][len("# config: "):])
    assert cfg["n_trials"] == 2
    assert cfg["seeds"] == [3407]
    header = "case,workflow,mode,trials,mse_sum,mse_mean,invalid_trials,seed_list,t,clamp,taylor_k"
    assert lines[1] == header
    # 2 cases x 3 workflows x 4 default modes
    assert len(lines) - 2 == 24


def test_efficacy_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["efficacy", "--trials", "3", "--seed", "5", "--output", str(path)])
        assert rc == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_efficacy_json_format_matches_csv(tmp_path, capsys):
    args = ["efficacy", "--trials", "2", "--seed", "7", "--modes", "tf,inv",
            "--cases", "1", "--workflows", "1"]
    csv_path = tmp_path / "eff.csv"
    json_path = tmp_path / "eff.json"
    assert main(args + ["--output", str(csv_path)]) == 0
    assert main(args + ["--format", "json", "--output", str(json_path)]) == 0
    capsys.readouterr()

    report = json.loads(json_path.read_text())
    by_mode = {c["mode"]: c for c in report["cells"]}
    assert set(by_mode) == {"tf", "inv"}

    rows = csv_path.read_text().splitlines()[2:]
    assert len(rows) == 2
    for row in rows:
        fields = row.split(",")
        mode, mse_sum = fields[2], float(fields[4])
        assert by_mode[mode]["mse_sum"] == mse_sum


def test_efficacy_reports_the_clamp_the_backward_uses(capsys):
    # the single-precision backward caps a larger clamp at float32's
    # largest value; the report must state that value, not the flag's
    f32_max = float(np.finfo(np.float32).max)
    args = ["efficacy", "--trials", "1", "--seed", "3", "--cases", "1", "--workflows", "1",
            "--modes", "tf,inv", "--clamp", "1e300", "--output", "-"]
    assert main(args) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split(",")[9] for row in rows] == [repr(f32_max)] * 2
    assert main(args + ["--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [c["clamp"] for c in cells] == [f32_max] * 2


def test_efficacy_writes_to_stdout_with_dash(capsys):
    rc = main(["efficacy", "--trials", "1", "--seed", "3407", "--cases", "1",
               "--workflows", "1", "--modes", "tf,inv", "--output", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# config: ")
    assert len(out.splitlines()) == 4


def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "trials": 2,
        "modes": ["tf", "inv"],
        "cases": [1],
        "workflows": [1],
        "seed": 9,
    }))
    path = tmp_path / "out.csv"
    # --trials on the command line wins over the file value
    rc = main(["efficacy", "--config", str(cfg), "--trials", "3",
               "--output", str(path)])
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text().splitlines()
    embedded = json.loads(lines[0][len("# config: "):])
    assert embedded["n_trials"] == 3
    assert embedded["seeds"] == [9]
    assert embedded["modes"] == ["tf", "inv"]
    rows = lines[2:]
    assert len(rows) == 2
    for row in rows:
        assert row.split(",")[3] == "3"


@pytest.mark.parametrize("command", ["train", "efficacy"])
def test_config_size_of_three_values_exits_two(command, tmp_path, capsys):
    cfg = tmp_path / "size.json"
    cfg.write_text(json.dumps({"size": [8, 8, 3]}))
    rc = main([command, "--config", str(cfg)])
    assert rc == 2
    assert "size must be two integers" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trials": 2, "tirals": 5}))
    rc = main(["efficacy", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "tirals" in err


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc = main(["efficacy", "--config", str(cfg)])
    assert rc == 2
    assert "broken.json" in capsys.readouterr().err


def test_missing_config_exits_two(tmp_path, capsys):
    rc = main(["efficacy", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needle", [
    (["efficacy", "--trials", "0"], "trials"),
    (["efficacy", "--modes", "exact,inv", "--trials", "1"], "exact"),
    (["efficacy", "--modes", "tf,clip", "--trials", "1"], "inv"),
    (["train", "--inject-duplicates", "1.5"], "inject"),
    (["gradcheck", "--tolerance", "-1"], "tolerance"),
    (["gradcheck", "--t", "-1"], "t must be positive"),
    (["gradcheck", "--clamp", "-1"], "clamp"),
    (["efficacy", "--clip-value", "0"], "clip_value"),
    (["train", "--taylor-k", "0"], "taylor_k"),
    (["train", "--n-unroll", "0"], "n_unroll"),
    (["train", "--size", "1x1"], "rank"),
    (["efficacy", "--seeds", ""], "seeds"),
    (["efficacy", "--cases", ""], "cases"),
    (["efficacy", "--workflows", ""], "workflows"),
    (["gradcheck", "--tolerance", "nan"], "tolerance"),
    (["train", "--lr", "nan"], "lr"),
    (["train", "--lr", "-1"], "lr"),
    (["train", "--lr", "0"], "lr"),
    (["train", "--steps", "-2"], "steps"),
    (["gradcheck", "--seed", "-1"], "seed must be"),
    (["train", "--seed", "-2"], "seed must be"),
    (["efficacy", "--seeds", "-5"], "seeds must be"),
    (["efficacy", "--trials", "2", "--cases", "1,1", "--workflows", "3,3",
      "--modes", "tf,inv"], "cases must not repeat"),
    (["efficacy", "--trials", "2", "--workflows", "3,3"], "workflows must not repeat"),
    (["efficacy", "--trials", "2", "--modes", "tf,inv,tf"], "modes must not repeat"),
])
def test_invalid_values_exit_two(argv, needle, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert needle in err


def test_train_default_mode_improves(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    rc = main(["train", "--steps", "60", "--seed", "3407", "--output", str(path)])
    capsys.readouterr()
    assert rc == 0
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert "config" in lines[0]
    assert lines[0]["config"]["mode"] == "inv"
    steps = lines[1:]
    assert steps[0]["step"] == 0
    assert steps[-1]["step"] == 60
    assert all(row["grad_finite"] for row in steps)
    assert steps[-1]["loss"] < steps[0]["loss"]


def test_train_steps_zero_writes_initial_line_only(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    rc = main(["train", "--steps", "0", "--output", str(path)])
    capsys.readouterr()
    assert rc == 0
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[1]["step"] == 0
    assert lines[1]["loss"] > 0


def test_train_exact_with_injection_halts(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    rc = main(["train", "--mode", "exact", "--steps", "40",
               "--inject-duplicates", "0.3", "--seed", "3407",
               "--output", str(path)])
    err = capsys.readouterr().err
    # a recorded halt is an outcome, not a usage error
    assert rc == 0
    assert "halted" in err
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    bad = [row for row in lines[1:] if row["grad_finite"] is False]
    assert len(bad) >= 1
    # the log stops at the step that produced the non-finite update
    assert lines[-1]["step"] == bad[0]["step"]
    assert lines[-1]["step"] < 40


def test_train_parameter_overflow_halts(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    rc = main(["train", "--steps", "3", "--lr", "1e300", "--size", "6x6",
               "--output", str(path)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "halted: non-finite parameter after step 1" in err
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[-1]["step"] == 1
    assert lines[-1]["halted"] is True


def test_train_val_set_overflow_halts_at_step_0(tmp_path, capsys, monkeypatch):
    # the command line has no held-out option: a held-out sample beyond
    # single precision reaches the trainer through a wrapped train_unrolled
    Y = np.full((6, 6), 1e39)
    val_set = [(Y, np.ones((6, 6), dtype=bool), Y)]
    monkeypatch.setattr(cli, "train_unrolled", lambda config: train_unrolled(config, val_set=val_set))
    path = tmp_path / "log.jsonl"
    rc = main(["train", "--steps", "2", "--size", "6x6", "--n-unroll", "2", "--output", str(path)])
    assert rc == 0
    assert capsys.readouterr().err == "training halted: non-finite solver value after step 0\n"
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [line["step"] for line in lines[1:]] == [0]


@pytest.mark.parametrize("algorithm,lr", [("admm", "100"), ("pgd", "100"), ("pgd", "50")])
def test_train_large_learning_rate_halts(tmp_path, algorithm, lr):
    # the parameters stay finite in float64, but the single-precision solver
    # forward meets a non-finite value; that halts training, it is no crash.
    # A subprocess shows the stderr a user sees: the halt line and no NumPy
    # warning ahead of it
    path = tmp_path / "log.jsonl"
    proc = subprocess.run([sys.executable, "-m", "svdgrad", "train", "--steps", "4", "--lr", lr,
                           "--size", "6x6", "--algorithm", algorithm, "--output", str(path)],
                          capture_output=True, text=True, timeout=120, env=_module_env())
    assert proc.returncode == 0
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[-1]["halted"] is True
    assert lines[-1]["diagnostic"] == "non-finite solver value"
    step = lines[-1]["step"]
    assert proc.stderr == f"training halted: non-finite solver value after step {step}\n"


def test_console_script_smoke():
    # read as text: tomllib only exists from Python 3.11 on
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert "[project.scripts]" in pyproject
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^svdgrad\s*=\s*"svdgrad\.cli:main"\s*$', scripts, re.M)

    exe = shutil.which("svdgrad")
    env = dict(os.environ)
    if exe is not None:
        cmd = [exe]
    else:
        # not installed: run the package's __main__
        cmd = [sys.executable, "-m", "svdgrad"]
        env = _module_env()
    proc = subprocess.run(cmd + ["gradcheck", "--checks", "1", "--seed", "2"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "gradcheck: PASS" in proc.stdout
