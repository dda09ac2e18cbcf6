"""Efficacy benchmark scenarios and the unrolled completion demos."""

import json
import math

import numpy as np
import pytest

from svdgrad import (
    GradientSet,
    GradMode,
    Scenario,
    Tape,
    ThresholdSpec,
    UnrolledConfig,
    experiments,
    generate_scenario,
    make_completion_dataset,
    reference_gradient,
    run_efficacy,
    svd,
    train_unrolled,
    unrolled_forward,
)
from svdgrad.experiments import (
    _solver_bindings,
    _solver_tape,
    _theta_grads,
    _theta_names,
    _val_mse,
    _workflow_tape,
)
from svdgrad.svt import SvtCache

from oracles import (
    bind_tape_params,
    efficacy_report_per_trial,
    reconstruct_l1_gradient,
    scenario_parts_per_trial,
    theta_grads,
    val_mse_per_sample,
)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(case=3)
    with pytest.raises(ValueError):
        Scenario(basis="fourier")
    with pytest.raises(ValueError):
        Scenario(size=(2, 10))
    for size in ((10,), (10, 10, 10)):
        with pytest.raises(ValueError, match="size must be two"):
            Scenario(size=size)
    # a bool or a float where an integer is meant; NumPy integers are taken
    for kwargs, name in (({"case": True}, "case"), ({"seed": 1.5}, "seed"), ({"seed": (1, True)}, "seed"),
                         ({"size": (10, 10.0)}, "size")):
        with pytest.raises(TypeError, match=name):
            Scenario(**kwargs)
    Scenario(case=np.int32(2), seed=(np.int64(3), 1), size=(np.int64(10), 10))


def test_generate_scenario_deterministic():
    a = generate_scenario(Scenario(case=1, seed=5))
    b = generate_scenario(Scenario(case=1, seed=5))
    assert np.array_equal(a, b)
    c = generate_scenario(Scenario(case=1, seed=6))
    assert not np.array_equal(a, c)
    r = generate_scenario(Scenario(case=1, seed=5, basis="rotated"))
    assert not np.array_equal(a, r)
    assert a.dtype == np.float64


def test_identity_basis_spectrum_is_exact():
    spec = Scenario(case=1, seed=12)
    A = generate_scenario(spec)
    d = np.diag(A)
    assert np.array_equal(A, np.diag(d))  # strictly diagonal
    assert d[1] == d[0] + d[0] * 1e-15
    assert np.all(d > 0)
    f = svd(A)
    assert np.array_equal(f.s, np.sort(d)[::-1])


def test_rotated_basis_preserves_spectrum():
    spec_i = Scenario(case=2, seed=4)
    spec_r = Scenario(case=2, seed=4, basis="rotated")
    d = np.sort(np.diag(generate_scenario(spec_i)))[::-1]
    s = np.linalg.svd(generate_scenario(spec_r), compute_uv=False)
    assert np.allclose(s, d, rtol=1e-12)


def test_case1_pair_inverse_gap_range():
    # sigma_0 = |N(0,1)|*1e-10 puts 1/(sigma_1^2-sigma_0^2) near 1e35, but the
    # Gaussian lower tail (P(|N| < 0.07) ~ 6%) pushes individual seeds above
    # 1e37, so the band is a typicality statement, not a per-seed bound
    vals = []
    for seed in range(1000):
        A = generate_scenario(Scenario(case=1, seed=seed))
        d = np.diag(A)
        vals.append(1.0 / (d[1] ** 2 - d[0] ** 2))
    vals = np.array(vals)
    assert np.all(vals >= 1e33)
    assert np.mean((vals >= 1e33) & (vals <= 1e37)) >= 0.9
    assert 1e34 <= np.median(vals) <= 1e36


def test_case2_pair_gap_overflows_single():
    f32_max = float(np.finfo(np.float32).max)
    for seed in range(1000):
        A = generate_scenario(Scenario(case=2, seed=seed))
        d = np.diag(A)
        assert 1.0 / (d[1] ** 2 - d[0] ** 2) > f32_max, seed


def test_run_efficacy_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        run_efficacy(2, ["exact", "inv"])
    with pytest.raises(ValueError):
        run_efficacy(2, ["tf", "clip"])  # inv required
    with pytest.raises(ValueError):
        run_efficacy(2, ["inv"])  # needs a baseline
    with pytest.raises(ValueError):
        run_efficacy(0, ["tf", "inv"])
    for empty in ("seeds", "cases", "workflows"):
        with pytest.raises(ValueError, match=empty):
            run_efficacy(2, ["tf", "inv"], **{empty: ()})
    with pytest.raises(ValueError, match="seeds"):
        run_efficacy(1, ("tf", "inv"), seeds=(3407, -5))
    # a bool or a float where an integer is meant is refused by name before
    # any cell runs, not written to the report or truncated
    import svdgrad.experiments as ex

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ex, "_efficacy_workflow", no_cell)
    for n_trials, kwargs, name in (
        (2, {"cases": (True,), "workflows": (1,), "seeds": (1,)}, "cases"),
        (2, {"cases": (1,), "workflows": (1.0,), "seeds": (1,)}, "workflows"),
        (2, {"seeds": (2.7, 1)}, "seeds"),
        (2, {"seeds": (3, True)}, "seeds"),
        (2, {"size": (10.0, 10)}, "size"),
        (True, {}, "n_trials"),
        (2.0, {}, "n_trials"),
    ):
        with pytest.raises(TypeError, match=name):
            run_efficacy(n_trials, ["tf", "inv"], **kwargs)


def test_run_efficacy_takes_numpy_integers():
    # and reports them as the Python ints they equal
    kw = dict(cases=(1,), workflows=(1,), seeds=(5,), size=(6, 5))
    want = run_efficacy(1, ["tf", "inv"], **kw)
    got = run_efficacy(np.int64(1), ["tf", "inv"], **{k: tuple(np.int64(x) for x in v) for k, v in kw.items()})
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert got.to_csv_text() == want.to_csv_text()


@pytest.mark.parametrize("kwargs,needle", [
    ({"workflows": (3, 4)}, "workflows"),   # would run workflow 3 labelled 4
    ({"cases": (1, 3)}, "case"),
    ({"size": (-1, 10)}, "size"),
    ({"size": (2, 10)}, "size"),
    ({"basis": "haar"}, "basis"),
    ({"size": (10, 10, 10)}, "size"),
    # a repeated cell would be scored again and written as duplicate rows
    ({"cases": (1, 1)}, "cases"),
    ({"workflows": (3, 1, 3)}, "workflows"),
    ({"modes": ("tf", "inv", "tf")}, "modes"),
    ({"modes": ("tf", "inv", GradMode("tf", clip_value=1e8))}, "modes"),
    # a repeated seed would score the same trials twice
    ({"seeds": (1, 1)}, "seeds"),
], ids=["workflow", "case", "size-negative", "size-small", "basis", "size-three",
        "case-repeated", "workflow-repeated", "mode-repeated", "mode-variant-repeated",
        "seeds-repeated"])
def test_run_efficacy_refuses_settings_before_any_cell(kwargs, needle, monkeypatch):
    # run_efficacy checks every setting it reads before it scores a cell
    import svdgrad.experiments as ex

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ex, "_efficacy_workflow", no_cell)
    with pytest.raises(ValueError, match=needle):
        run_efficacy(1, **{"modes": ("tf", "inv"), **kwargs})


def test_run_efficacy_reproducible():
    kw = dict(cases=(1,), workflows=(1,), seeds=(3407,))
    r1 = run_efficacy(4, ["tf", "inv"], **kw)
    r2 = run_efficacy(4, ["tf", "inv"], **kw)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_run_efficacy_builds_one_tape_per_workflow(monkeypatch):
    # a workflow's trials, across its cases, differ only in the bound A and
    # tau, so they share a tape
    built = []

    def counting(workflow):
        built.append(workflow)
        return _workflow_tape(workflow)

    monkeypatch.setattr(experiments, "_workflow_tape", counting)
    run_efficacy(3, ["tf", "inv"], seeds=(1, 2))
    assert built == [1, 2, 3]


_MODES = ("tf", "clip", "taylor", "inv")
_EFFICACY_CONFIGS = [
    dict(n_trials=10, seeds=(1, 2)),
    dict(n_trials=4, seeds=(5, 11), cases=(2,), size=(8, 12), basis="identity"),
    dict(n_trials=3, seeds=(3,), workflows=(2, 3), size=(7, 5)),
    # cells sliced back out of each workflow's stack in an unsorted order
    dict(n_trials=3, seeds=(4,), cases=(2, 1), workflows=(3, 1)),
]


@pytest.mark.parametrize("config", _EFFICACY_CONFIGS)
def test_batched_efficacy_matches_per_trial_loop(config):
    # each workflow runs as one stack, yet the report is byte-identical to
    # generating, referencing and scoring every trial on its own
    batched = run_efficacy(modes=_MODES, **config).to_csv_text()
    assert batched == efficacy_report_per_trial(modes=_MODES, **config).to_csv_text()


def test_batched_efficacy_regenerates_like_the_loop():
    # the first config regenerates trials, so its match above covers the
    # regeneration rounds and their sub-seeds
    report = run_efficacy(modes=_MODES, **_EFFICACY_CONFIGS[0])
    assert sum(c.invalid_trials for c in report.cells) > 0


def test_chunked_efficacy_matches_one_stack(monkeypatch):
    # a workflow's trials scored three at a time, the last chunk partial and
    # regenerated trials among them, give the report of one stack
    whole = run_efficacy(modes=_MODES, **_EFFICACY_CONFIGS[0]).to_csv_text()
    chunks = []
    original = experiments._efficacy_chunk

    def counting(tape, loss, workflow, keys, *args):
        chunks.append(len(keys))
        return original(tape, loss, workflow, keys, *args)

    monkeypatch.setattr(experiments, "_EFFICACY_CHUNK", 3)
    monkeypatch.setattr(experiments, "_efficacy_chunk", counting)
    assert run_efficacy(modes=_MODES, **_EFFICACY_CONFIGS[0]).to_csv_text() == whole
    assert chunks == 3 * ([3] * 13 + [1])


@pytest.mark.parametrize("entropy", [
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**64 + 5,),
    (2**96, 0),
    (np.int64(7), np.uint64(2**63)),
    ((3407, 1, 2, 17, 0),),
    (3407, (0, 2**32), 5),
])
def test_rng_draws_what_numpy_draws_from_the_list_of_ints(entropy):
    # _rng hands SeedSequence the uint32 words NumPy makes of the flattened
    # list of ints; the stream must be the one that list gives
    flat = [int(x) for e in entropy for x in (e if isinstance(e, tuple) else (e,))]
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(flat)))
    got = experiments._rng(*entropy)
    assert got.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
    assert got.bit_generator.random_raw(3).tobytes() == want.bit_generator.random_raw(3).tobytes()


def test_rng_refuses_a_negative_entry_before_making_a_stream(monkeypatch):
    made = []
    monkeypatch.setattr(np.random, "SeedSequence", lambda *args: made.append(args))
    for entropy in ((-1,), (3, (0, -2)), (np.int64(-5),)):
        with pytest.raises(ValueError, match="non-negative"):
            experiments._rng(*entropy)
    assert made == []


def test_batched_scenarios_match_one_at_a_time():
    # the one-key generate_scenario is pinned too, for int and tuple seeds
    for basis, size in (("rotated", (10, 10)), ("rotated", (6, 4)), ("identity", (5, 7))):
        keys = [(case, seed) for case in (1, 2) for seed in (5, (0, 9), (1, 9), (2, 9))]
        A, s = experiments._scenario_parts(keys, size, basis)
        assert A.shape == (8, *size) and s.shape == (8, min(size))
        for i, (case, seed) in enumerate(keys):
            spec = Scenario(case=case, seed=seed, size=size, basis=basis)
            A_i, s_i = scenario_parts_per_trial(spec)
            assert A[i].tobytes() == A_i.tobytes() and s[i].tobytes() == s_i.tobytes()
            assert generate_scenario(spec).tobytes() == A_i.tobytes()


def test_run_efficacy_one_backward_per_stack_and_reference_round(monkeypatch):
    # each workflow's stack is scored by one backward under all its modes;
    # every reference round adds one exact backward
    backward, references = [], []
    original_backward, original_reference = Tape.backward, experiments.reference_gradient

    def counting_backward(self, *args):
        backward.append(args[-1])
        return original_backward(self, *args)

    def counting_reference(*args):
        references.append(args[1]["A"].shape[0])
        return original_reference(*args)

    monkeypatch.setattr(Tape, "backward", counting_backward)
    monkeypatch.setattr(experiments, "reference_gradient", counting_reference)
    report = run_efficacy(modes=_MODES, **_EFFICACY_CONFIGS[0])
    invalid = sum(c.invalid_trials for c in report.cells) // len(_MODES)
    # every workflow references the 20 trials of each of its two cases, plus
    # each regenerated one that passes the workflow-2 cut test, in rounds of
    # stacks; the first round stacks both cases
    assert references[0] == 2 * 20
    assert 6 * 20 < sum(references) <= 6 * 20 + invalid
    assert len(references) < sum(references)
    assert len(backward) == 3 + len(references)
    paired = [mode for mode in backward if not isinstance(mode, GradMode)]
    assert [[m.variant for m in modes] for modes in paired] == [list(_MODES)] * 3
    assert all(mode.variant == "exact" for mode in backward if isinstance(mode, GradMode))


def test_report_cell_lookup():
    rep = run_efficacy(2, ["tf", "inv"], cases=(1,), workflows=(1,), seeds=(1,))
    cell = rep.cell(1, 1, "inv")
    assert cell.trials == 2
    assert np.isfinite(cell.mse_sum)
    with pytest.raises(KeyError):
        rep.cell(2, 1, "inv")
    text = rep.to_csv_text()
    assert text.splitlines()[1].startswith("case,workflow,mode,trials,")


def test_efficacy_orderings_small_run():
    # the cheap deterministic slice of the full benchmark; the strict
    # all-cells ordering at N=1000 x 3 seeds lives in the acceptance suite
    rep = run_efficacy(60, ["tf", "clip", "taylor", "inv"], seeds=(3407,))
    for case in (1, 2):
        for wf in (1, 2, 3):
            inv = rep.cell(case, wf, "inv").mse_sum
            tf = rep.cell(case, wf, "tf").mse_sum
            clip = rep.cell(case, wf, "clip").mse_sum
            taylor = rep.cell(case, wf, "taylor").mse_sum
            assert inv < tf, (case, wf)
            assert inv < clip, (case, wf)
            assert inv < taylor, (case, wf)
            assert np.isfinite(taylor)


def test_efficacy_tf_clip_identical_under_thresholding():
    rep = run_efficacy(40, ["tf", "clip", "inv"], workflows=(2, 3), seeds=(3407,))
    for case in (1, 2):
        for wf in (2, 3):
            tf = rep.cell(case, wf, "tf").mse_sum
            clip = rep.cell(case, wf, "clip").mse_sum
            assert tf == pytest.approx(clip, rel=1e-10), (case, wf)


def test_single_trial_well_separated_matches_reference():
    # with a clean gap every safeguarded variant sits at the single-precision
    # floor; the truncated series alone keeps a visible model error
    rng = np.random.default_rng(77)
    s = np.linspace(10.0, 1.0, 10)
    q1, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    q2, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    A = (q1 * s[None, :]) @ q2.T
    t = Tape()
    a = t.input("A")
    loss = t.l1_loss(t.svt(a, ThresholdSpec.hard_tail(0)))
    ref, ok = reference_gradient(t, {"A": A}, loss)
    assert ok
    refA = ref.by_name("A")
    v32 = t.forward({"A": A.astype(np.float32)})
    for name in ["exact", "tf", "clip", "inv"]:
        g = t.backward(v32, loss, GradMode(name)).by_name("A").astype(np.float64)
        rel = np.linalg.norm(g - refA) / np.linalg.norm(refA)
        assert rel <= 1e-3, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_workflow1_matches_reconstruct_oracle(dtype):
    # workflow 1 runs svt with hard_tail(0); its gradient must equal, bit for
    # bit, the L1 gradient of U S V^H pulled back through the SVD by hand
    rng = np.random.default_rng(78)
    near_tie = generate_scenario(Scenario(case=1, seed=5, size=(6, 5), basis="rotated"))
    dense = rng.standard_normal((6, 5))
    if np.issubdtype(dtype, np.complexfloating):
        dense = dense + 1j * rng.standard_normal((6, 5))
    tape, loss = _workflow_tape(1)
    for A in (near_tie.astype(dtype), dense.astype(dtype)):
        values = tape.forward({"A": A})
        for variant in ("exact", "tf", "clip", "taylor", "inv"):
            mode = GradMode(variant)
            g = tape.backward(values, loss, mode).by_name("A")
            assert g.tobytes() == reconstruct_l1_gradient(A, mode).tobytes(), variant


# -- unrolled solvers ---------------------------------------------------------


def _flat_admm_params(n, tau, eta=1.0):
    out = {}
    for i in range(1, n + 1):
        out[f"lambda_{i}"] = tau
        out[f"mu_{i}"] = 1.0
        out[f"eta_{i}"] = eta
    return out


def test_admm_full_mask_copies_observations():
    rng = np.random.default_rng(60)
    Y = rng.standard_normal((6, 6))
    cfg = UnrolledConfig(size=(6, 6), n_unroll=1, algorithm="admm", precision="double")
    X = unrolled_forward(Y, np.ones((6, 6), dtype=bool), cfg, _flat_admm_params(1, 1e-8))
    assert np.linalg.norm(X - Y) <= 1e-6 * np.linalg.norm(Y)


def test_admm_empty_mask_returns_zero():
    rng = np.random.default_rng(61)
    Y = rng.standard_normal((5, 5))
    cfg = UnrolledConfig(size=(5, 5), n_unroll=3, algorithm="admm", precision="double")
    X = unrolled_forward(Y, np.zeros((5, 5), dtype=bool), cfg, _flat_admm_params(3, 0.5))
    assert np.array_equal(X, np.zeros((5, 5)))


def test_admm_beats_zero_filled_baseline():
    cfg = UnrolledConfig(
        size=(20, 20), rank=2, sampling_ratio=0.5, n_unroll=10, algorithm="admm",
        seed=3407, precision="double",
    )
    ((Y, mask, X_true),) = make_completion_dataset(cfg, 1, tag=5)
    zero_filled = np.where(mask, Y, 0.0)
    err_zf = np.linalg.norm(zero_filled - X_true) / np.linalg.norm(X_true)
    tau = 0.1 * np.linalg.norm(Y, 2)
    X = unrolled_forward(Y, mask, cfg, _flat_admm_params(10, float(tau)))
    err = np.linalg.norm(X - X_true) / np.linalg.norm(X_true)
    assert err <= err_zf / 2


def test_pgd_one_step_exact_on_rank_one():
    rng = np.random.default_rng(62)
    X_true = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    cfg = UnrolledConfig(size=(6, 5), rank=1, n_unroll=1, algorithm="pgd", precision="double")
    X = unrolled_forward(X_true, np.ones((6, 5), dtype=bool), cfg, {"lambda_1": 1e-8, "rho_1": 1.0})
    assert np.linalg.norm(X - X_true) <= 1e-6 * np.linalg.norm(X_true)


def test_pgd_full_shrinkage_returns_zero():
    rng = np.random.default_rng(63)
    Y = rng.standard_normal((5, 5))
    smax = float(np.linalg.norm(Y, 2))
    cfg = UnrolledConfig(size=(5, 5), n_unroll=1, algorithm="pgd", precision="double")
    X = unrolled_forward(Y, np.ones((5, 5), dtype=bool), cfg, {"lambda_1": smax * 1.1, "rho_1": 1.0})
    assert np.array_equal(X, np.zeros((5, 5)))


def test_pgd_objective_monotone():
    cfg = UnrolledConfig(
        size=(20, 20), rank=2, sampling_ratio=0.5, algorithm="pgd", seed=3407, precision="double"
    )
    ((Y, mask, _),) = make_completion_dataset(cfg, 1, tag=5)
    b = np.where(mask, Y, 0.0)
    lam = 0.2 * float(np.linalg.norm(b, 2))

    def objective(X):
        data = 0.5 * np.linalg.norm(np.where(mask, X, 0.0) - b) ** 2
        return data + lam * np.linalg.svd(X, compute_uv=False).sum()

    objs = [objective(b)]
    for depth in range(1, 11):
        dcfg = UnrolledConfig(
            size=(20, 20), rank=2, sampling_ratio=0.5, n_unroll=depth,
            algorithm="pgd", seed=3407, precision="double",
        )
        params = {}
        for i in range(1, depth + 1):
            params[f"lambda_{i}"] = lam
            params[f"rho_{i}"] = 1.0
        objs.append(objective(unrolled_forward(Y, mask, dcfg, params)))
    diffs = np.diff(objs)
    assert np.all(diffs <= 1e-10), objs


@pytest.mark.parametrize("algorithm", ["admm", "pgd"])
def test_mask_binding_checked_and_cast(algorithm):
    # a mask must match Y's shape exactly: a broadcastable (1, n) mask would
    # pass through the elementwise product unnoticed
    rng = np.random.default_rng(64)
    Y = rng.standard_normal((6, 6))
    cfg = UnrolledConfig(size=(6, 6), n_unroll=2, algorithm=algorithm, precision="double")
    for shape in ((6, 5), (1, 6)):
        with pytest.raises(ValueError, match="mask"):
            unrolled_forward(Y, np.ones(shape, dtype=bool), cfg)
    # an int 0/1 mask is read as booleans, so its complement is 1 - mask
    mask = rng.random((6, 6)) < 0.5
    X_bool = unrolled_forward(Y, mask, cfg)
    assert unrolled_forward(Y, mask.astype(int), cfg).tobytes() == X_bool.tobytes()


@pytest.mark.parametrize("algorithm", ["admm", "pgd"])
def test_train_builds_one_solver_tape(monkeypatch, algorithm):
    # every step and every held-out forward binds its own data to one tape
    built = []
    for name in ("build_admm_tape", "build_pgd_tape"):
        def counting(n_unroll, name=name, original=getattr(experiments, name)):
            built.append(name)
            return original(n_unroll)

        monkeypatch.setattr(experiments, name, counting)
    cfg = UnrolledConfig(size=(6, 6), n_unroll=2, steps=5, inject_rate=0.5, algorithm=algorithm)
    train_unrolled(cfg)
    assert built == [f"build_{algorithm}_tape"]


def test_make_completion_dataset():
    cfg = UnrolledConfig(size=(12, 9), rank=3, sampling_ratio=0.4)
    data = make_completion_dataset(cfg, 4, tag=1)
    again = make_completion_dataset(cfg, 4, tag=1)
    assert len(data) == 4
    for (Y, mask, X_true), (Y2, mask2, X2) in zip(data, again):
        assert np.array_equal(Y, Y2) and np.array_equal(mask, mask2)
        assert mask.any()
        assert np.linalg.matrix_rank(X_true) == 3
        assert Y is not X_true  # the observed copy may be mutated by callers


def test_unrolled_config_validation():
    with pytest.raises(ValueError):
        UnrolledConfig(sampling_ratio=0.0)
    with pytest.raises(ValueError):
        UnrolledConfig(n_unroll=0)
    with pytest.raises(ValueError):
        UnrolledConfig(rank=0)
    with pytest.raises(ValueError):
        UnrolledConfig(algorithm="fista")
    with pytest.raises(ValueError):
        UnrolledConfig(inject_rate=1.5)
    with pytest.raises(ValueError, match="seed"):
        UnrolledConfig(seed=-1)
    for size in ((8,), (8, 8, 3)):
        with pytest.raises(ValueError, match="size must be two"):
            UnrolledConfig(size=size)


@pytest.mark.parametrize("kwargs,needle", [
    ({"lr": -0.05}, "lr must be >= 0 and finite"),
    ({"lr": math.nan}, "lr must be >= 0 and finite"),
    ({"lr": math.inf}, "lr must be >= 0 and finite"),
    ({"steps": -1}, "steps must be >= 0"),
], ids=["lr-negative", "lr-nan", "lr-inf", "steps-negative"])
def test_unrolled_config_refuses_lr_and_steps_out_of_range(kwargs, needle):
    # a negative lr climbs the loss and a non-finite one poisons every
    # parameter; the config that the trainer reads refuses both, and a
    # negative step count
    with pytest.raises(ValueError, match=needle):
        UnrolledConfig(**kwargs)
    UnrolledConfig(lr=0.0, steps=0)  # a frozen run that only scores step 0


@pytest.mark.parametrize("algorithm", ["admm", "pgd"])
def test_bindings_and_theta_grads_match_hand_written(algorithm):
    # the table-driven reparameterisation against the per-algorithm formulas,
    # bit for bit. The last tape parameter gets no cotangent, as the last
    # ADMM eta never does: it feeds nothing the output depends on
    cfg = UnrolledConfig(n_unroll=3, algorithm=algorithm)
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((4, 4))
    tape, _ = _solver_tape(cfg)
    for _ in range(20):
        positive = {name: math.exp(rng.uniform(-30, 30)) for name in _theta_names(cfg)}
        bound = _solver_bindings(cfg, positive, Y, np.ones((4, 4), dtype=bool))
        assert bound.pop("Y") is Y
        assert np.array_equal(bound.pop("mask"), np.ones_like(Y))
        assert np.array_equal(bound.pop("unobserved"), np.zeros_like(Y))
        if algorithm == "admm":
            assert np.array_equal(bound.pop("L0"), np.zeros_like(Y))
        assert bound == bind_tape_params(cfg, positive)
        tape_grads = {name: float(rng.standard_normal()) for name in list(bound)[:-1]}
        grads = GradientSet(
            cotangents={tape.names[name]: g for name, g in tape_grads.items()}, names=tape.names
        )
        assert _theta_grads(cfg, bound, grads) == theta_grads(cfg, bound, tape_grads)


@pytest.mark.parametrize("algorithm", ["admm", "pgd"])
def test_theta_grads_match_finite_differences(algorithm):
    # dL/dtheta for theta = log p through the whole unrolled solver, against
    # central differences; at this seed every singular value stays at least
    # 10% of tau away from tau, far beyond what the FD step moves it
    cfg = UnrolledConfig(size=(8, 7), n_unroll=3, algorithm=algorithm, precision="double", seed=2)
    ((Y, mask, X_true),) = make_completion_dataset(cfg, 1, tag=1)
    tape, out = _solver_tape(cfg)
    loss = tape.mse_loss(out, tape.input("target"))
    rng = np.random.default_rng(2)
    theta = {name: float(rng.uniform(-0.5, 0.5)) for name in _theta_names(cfg)}

    def run(th):
        bindings = _solver_bindings(cfg, {name: math.exp(v) for name, v in th.items()}, Y, mask)
        bindings["target"] = X_true
        return bindings, tape.forward(bindings)

    bindings, values = run(theta)
    caches = [c for c in values.saved.values() if isinstance(c, SvtCache)]
    assert len(caches) == 3
    assert all(np.min(np.abs(c.factors.s - c.spec.tau)) > 0.1 * c.spec.tau for c in caches)
    g = _theta_grads(cfg, bindings, tape.backward(values, loss, GradMode.inv()))
    h = 1e-6
    for name, v in theta.items():
        fd = (run({**theta, name: v + h})[1][loss] - run({**theta, name: v - h})[1][loss]) / (2 * h)
        assert math.isclose(fd, g[name], rel_tol=1e-5), (name, fd, g[name])


@pytest.mark.parametrize("algorithm", ["admm", "pgd"])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_stacked_validation_matches_per_sample(algorithm, precision):
    cfg = UnrolledConfig(size=(9, 11), n_unroll=3, algorithm=algorithm, precision=precision, seed=5)
    solver = _solver_tape(cfg)
    # from 8 values on, a pairwise sum no longer adds in stack order
    for n_val in (5, 12):
        val_set = make_completion_dataset(cfg, n_val, tag=2)
        val = tuple(np.stack(column) for column in zip(*val_set))
        rng = np.random.default_rng(6)
        prior = None
        for _ in range(3):
            positive = {name: float(rng.uniform(0.2, 2.0)) for name in _theta_names(cfg)}
            # each forward after the first reuses the one before it, as in training
            mse, prior = _val_mse(cfg, solver, val, positive, prior)
            assert mse == val_mse_per_sample(cfg, val_set, positive), n_val


@pytest.mark.parametrize("algorithm", ["admm", "pgd"])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_training_reuses_the_held_out_svd_byte_for_byte(algorithm, precision, monkeypatch):
    # training as shipped against training with `reuse` dropped: the logs
    # must agree byte for byte, and the first SVT of every held-out forward
    # after step 0 must take the previous held-out forward's SVD
    from svdgrad import tape as tape_module

    cfg = UnrolledConfig(size=(8, 8), n_unroll=3, steps=12, algorithm=algorithm,
                         precision=precision, inject_rate=0.1, seed=4)
    forward, reused_svd = Tape.forward, tape_module._reused_svd
    forwards = []  # per Tape.forward call: [held out, SVDs reused]

    def counted_forward(self, bindings, reuse=None):
        forwards.append([bindings["Y"].ndim == 3, 0])
        return forward(self, bindings, reuse)

    def counted_reuse(A, node, reuse):
        factors = reused_svd(A, node, reuse)
        forwards[-1][1] += factors is not None
        return factors

    monkeypatch.setattr(tape_module, "_reused_svd", counted_reuse)
    monkeypatch.setattr(Tape, "forward", counted_forward)
    _, log = train_unrolled(cfg)
    shipped = forwards[:]
    assert not log.halted and len(log.lines) == cfg.steps + 1
    assert any(line.get("injected") for line in log.lines)
    assert [hits for held_out, hits in shipped if held_out] == [0] + [1] * cfg.steps
    assert not any(hits for held_out, hits in shipped if not held_out)

    forwards.clear()
    monkeypatch.setattr(Tape, "forward", lambda self, bindings, reuse=None: counted_forward(self, bindings))
    _, fresh = train_unrolled(cfg)
    assert len(forwards) == len(shipped) and not any(hits for _, hits in forwards)
    assert log.to_jsonl() == fresh.to_jsonl()


@pytest.mark.parametrize("steps", [0, 15, 40])
def test_training_draws_only_the_visited_samples(steps, monkeypatch):
    # the default training set is drawn sample by sample, each from its own
    # stream: drawing only the min(32, steps) the steps visit must give the
    # log that the whole 32-sample set gives, byte for byte
    cfg = UnrolledConfig(size=(8, 8), n_unroll=2, steps=steps, inject_rate=0.1, seed=6)
    drawn = []
    make = experiments.make_completion_dataset

    def counted(config, n, tag):
        drawn.append((n, tag))
        return make(config, n, tag)

    monkeypatch.setattr(experiments, "make_completion_dataset", counted)
    _, lazy = train_unrolled(cfg)
    assert drawn == [(min(32, steps), 1), (8, 2)]
    _, full = train_unrolled(cfg, dataset=make(cfg, 32, tag=1))
    assert len(lazy.lines) == steps + 1
    assert lazy.to_jsonl() == full.to_jsonl()


def test_train_zero_learning_rate():
    cfg = UnrolledConfig(size=(8, 8), n_unroll=2, steps=4, lr=0.0, seed=11)
    params, log = train_unrolled(cfg)
    assert all(v == 1.0 for v in params.values())
    assert not log.halted
    assert len(log.lines) == 5
    first_loss = log.lines[0]["loss"]
    assert all(line["loss"] == first_loss for line in log.lines)
    assert all(v == 1.0 for line in log.lines for v in line["params"].values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_parameter_overflow_halts():
    # lr 1e300 drives a log-space parameter past exp's range in step 1
    cfg = UnrolledConfig(size=(6, 6), n_unroll=2, steps=3, lr=1e300, seed=3407)
    params, log = train_unrolled(cfg)
    assert log.halted
    assert [line["step"] for line in log.lines] == [0, 1]
    assert log.lines[-1]["diagnostic"] == "non-finite parameter after update"
    assert log.lines[-1]["grad_finite"] is True
    assert math.inf in params.values()


@pytest.mark.parametrize("algorithm,lr,precision", [
    ("admm", 100.0, "single"),
    ("pgd", 100.0, "single"),
    ("pgd", 50.0, "single"),
    ("admm", 150.0, "double"),  # tau = lambda / mu overflows float64
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_large_learning_rate_halts(algorithm, lr, precision):
    # every parameter stays finite in float64, yet the solver forward meets a
    # non-finite value: a parameter beyond the tape's precision, an iterate
    # driven to inf, or an overflowing threshold
    cfg = UnrolledConfig(size=(6, 6), steps=4, lr=lr, algorithm=algorithm, precision=precision)
    _, log = train_unrolled(cfg)
    assert log.halted
    assert log.lines[-1]["diagnostic"] == "non-finite solver value"
    assert log.lines[-1]["loss"] is None
    assert all(math.isfinite(v) for v in log.lines[-1]["params"].values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_overflowing_sample_halts():
    # a training sample beyond single precision makes the step's own solver
    # forward meet inf before any gradient exists
    cfg = UnrolledConfig(size=(6, 6), n_unroll=2, steps=3, seed=3407)
    Y = np.full((6, 6), 1e39)
    _, log = train_unrolled(cfg, dataset=[(Y, np.ones((6, 6), dtype=bool), Y)])
    assert log.halted
    assert [line["step"] for line in log.lines] == [0, 1]
    assert log.lines[-1]["diagnostic"] == "non-finite solver value"
    assert log.lines[-1]["train_loss"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_overflowing_val_set_halts_at_step_0():
    # a held-out sample beyond single precision meets inf in the step-0
    # score, before any update; that halts like every later solver forward
    cfg = UnrolledConfig(size=(6, 6), n_unroll=2, steps=2)
    Y = np.full((6, 6), 1e39)
    params, log = train_unrolled(cfg, val_set=[(Y, np.ones((6, 6), dtype=bool), Y)])
    assert log.halted
    assert [line["step"] for line in log.lines] == [0]
    assert log.lines[-1]["diagnostic"] == "non-finite solver value"
    assert log.lines[-1]["loss"] is None
    assert all(v == 1.0 for v in params.values())


def test_train_inv_mode_stays_finite_under_injection():
    cfg = UnrolledConfig(
        size=(10, 10), n_unroll=3, steps=25, inject_rate=0.3,
        mode=GradMode.inv(), seed=3407,
    )
    params, log = train_unrolled(cfg)
    assert not log.halted
    assert log.nonfinite_steps() == []
    assert sum(bool(l.get("injected")) for l in log.lines) >= 3
    assert all(v > 0 and np.isfinite(v) for v in params.values())


def test_train_exact_mode_fails_only_on_injected_steps():
    cfg = UnrolledConfig(
        size=(10, 10), n_unroll=3, steps=40, inject_rate=0.3,
        mode=GradMode.exact(), seed=3407,
    )
    _, log = train_unrolled(cfg)
    bad = log.nonfinite_steps()
    assert len(bad) >= 1
    by_step = {l["step"]: l for l in log.lines}
    for step in bad:
        assert by_step[step]["injected"] is True
    # training halts once a parameter goes non-finite
    assert log.halted
    assert log.lines[-1]["diagnostic"] == "non-finite parameter after update"


def test_training_log_jsonl_is_strict_json():
    cfg = UnrolledConfig(
        size=(10, 10), n_unroll=2, steps=30, inject_rate=0.4,
        mode=GradMode.exact(), seed=3407,
    )
    _, log = train_unrolled(cfg)
    text = log.to_jsonl(config_line={"steps": 30})
    lines = text.strip().split("\n")
    parsed = [json.loads(line) for line in lines]  # raises on NaN/Infinity
    assert parsed[0] == {"config": {"steps": 30}}
    assert parsed[1]["step"] == 0
    if log.halted:
        assert any(p.get("halted") for p in parsed[1:])
