import os
import subprocess
import sys
from pathlib import Path

import pytest

import adamcheck
from adamcheck.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNBOUNDED,
    EXIT_VIOLATION,
    ConfigError,
    cmd_fuzz,
    load_run_config,
    main,
    parse_grid_spec,
)


QUAD_SPEC = "kind = quadratic\nd = 3\nseed = 11\nmu = 0.1\n"


def write_configs(tmp_path, optimizer="adam", T=40, extra="", problem=QUAD_SPEC,
                  name="run.cfg", prob_name="prob.cfg"):
    prob = tmp_path / prob_name
    prob.write_text(problem)
    cfg = tmp_path / name
    cfg.write_text(
        f"problem_spec = {prob_name}\n"
        f"optimizer = {optimizer}\n"
        "eta = 0.1\n"
        f"T = {T}\n"
        "seed = 1\n"
        f"{extra}"
    )
    return cfg


def test_run_smoke_files_and_row_counts(tmp_path, capsys):
    cfg = write_configs(tmp_path, T=40)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 1 + 40 * 3  # header + T*d rows
    assert (out / "bound_report.csv").exists()
    assert (out / "report.txt").exists()


def test_run_rejects_gamma_hypothesis_violation(tmp_path, capsys):
    cfg = write_configs(tmp_path, extra="beta1 = 0.99\nbeta2 = 0.5\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "must be < 1" in capsys.readouterr().err


def test_run_requires_adaptive_optimizer(tmp_path, capsys):
    cfg = write_configs(tmp_path, optimizer="gd")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_run_unknown_key_is_config_error(tmp_path):
    cfg = write_configs(tmp_path, extra="bogus = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_run_missing_problem_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem_spec = nope.cfg\noptimizer = adam\nT = 5\nseed = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_run_unbounded_minimizer_exit_code(tmp_path, monkeypatch):
    import adamcheck.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran before the minimizers were found")

    # 3 samples in 5 dimensions with mu = 0: separable, no finite minimizer
    monkeypatch.setattr(cli, "_run_horizon", no_run)
    problem = "kind = logistic\nd = 5\nseed = 2\nn_samples = 3\nmu = 0\n"
    cfg = write_configs(tmp_path, T=5, problem=problem)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_UNBOUNDED


def test_run_logistic_smoke_replays(tmp_path):
    # a logistic run that reaches its bound report, echoes n_samples and
    # writes a trajectory that replays bit for bit
    from adamcheck.core import trajectory_from_csv
    from adamcheck.optimizers import verify_replay

    problem = "kind = logistic\nd = 3\nseed = 4\nn_samples = 50\n"
    cfg = write_configs(tmp_path, T=30, problem=problem)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "problem n_samples    : 50" in (out / "report.txt").read_text().splitlines()
    params = load_run_config(cfg).params
    traj = trajectory_from_csv((out / "trajectory.csv").read_text(), params)
    assert traj.T == 30 and traj.d == 3
    assert verify_replay(traj)


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_run_byte_determinism(tmp_path):
    cfg = write_configs(tmp_path, T=60)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_run_with_schedule_reports_every_horizon(tmp_path):
    cfg = write_configs(tmp_path, T=50, extra="T_schedule = 10,20,50\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = (out / "bound_report.csv").read_text().splitlines()
    assert len(rows) == 1 + 3
    assert "fitted log-log slope" in (out / "report.txt").read_text()


def test_run_schedule_must_match_T(tmp_path):
    cfg = write_configs(tmp_path, T=50, extra="T_schedule = 10,20,40\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_race_smoke_and_shape(tmp_path):
    cfgs = [
        write_configs(tmp_path, optimizer=name, T=30, name=f"{name}.cfg")
        for name in ("gd", "momentum", "adam")
    ]
    out = tmp_path / "race_out"
    argv = ["race"]
    for cfg in cfgs:
        argv += ["--config", str(cfg)]
    argv += ["--out", str(out)]
    assert main(argv) == EXIT_OK
    lines = (out / "race.csv").read_text().splitlines()
    assert lines[0] == "step,optimizer,objective_value"
    assert len(lines) == 1 + 3 * 30
    assert {ln.split(",")[1] for ln in lines[1:]} == {"gd", "momentum", "adam"}


def test_race_requires_two_configs(tmp_path):
    cfg = write_configs(tmp_path, optimizer="adam")
    assert main(["race", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_race_rejects_mismatched_problems(tmp_path):
    a = write_configs(tmp_path, optimizer="gd", name="a.cfg", prob_name="p1.cfg")
    b = write_configs(
        tmp_path, optimizer="adam", name="b.cfg", prob_name="p2.cfg",
        problem="kind = quadratic\nd = 4\nseed = 11\nmu = 0.1\n",
    )
    argv = ["race", "--config", str(a), "--config", str(b), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG


def test_race_rejects_mismatched_horizons(tmp_path):
    a = write_configs(tmp_path, optimizer="gd", T=10, name="a.cfg")
    b = write_configs(tmp_path, optimizer="adam", T=20, name="b.cfg")
    argv = ["race", "--config", str(a), "--config", str(b), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG


def test_fuzz_smoke_and_determinism(tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    argv = ["fuzz", "--trials", "50", "--tmax", "16", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "fuzz_summary.txt").exists()
    assert (out1 / "counterexamples").is_dir()
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_fuzz_golden_fixture(tmp_path, fixtures_dir):
    # Pinned fuzz run at d = 3, so the spike coordinates are exercised: any
    # change to trial generation or the batched sides must leave the
    # summary byte-identical.
    out = tmp_path / "out"
    argv = ["fuzz", "--trials", "4000", "--tmax", "40", "--d", "3", "--seed", "20260812"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    golden = fixtures_dir / "golden_fuzz_summary.txt"
    assert (out / "fuzz_summary.txt").read_bytes() == golden.read_bytes()


def test_fuzz_rejects_invalid_grid(tmp_path, capsys):
    # 0.99**2 / sqrt(0.5) = 1.386 > 1
    argv = [
        "fuzz", "--trials", "5", "--tmax", "8", "--seed", "1",
        "--out", str(tmp_path / "o"), "--grid", "0.99,0.5,0.9",
    ]
    assert main(argv) == EXIT_CONFIG
    assert "must be < 1" in capsys.readouterr().err


def test_fuzz_custom_grid_accepted(tmp_path):
    argv = [
        "fuzz", "--trials", "20", "--tmax", "8", "--seed", "1",
        "--out", str(tmp_path / "o"), "--grid", "0.9,0.999,0.999;0.5,0.9,0.9",
    ]
    assert main(argv) == EXIT_OK


def test_parse_grid_spec_errors():
    with pytest.raises(ConfigError):
        parse_grid_spec("0.9,0.999")
    with pytest.raises(ConfigError):
        parse_grid_spec("")


def test_fuzz_exit_code_for_confirmed_violation(tmp_path, monkeypatch):
    # the exit-code mapping is unit-tested here; producing a real confirmed
    # violation through the CLI would presume the inequality false
    import adamcheck.cli as cli
    import numpy as np
    from adamcheck.analysis import CounterexampleRecord, FuzzSummary
    from adamcheck.core import HyperParams

    def fake_fuzz(*args, **kwargs):
        summary = FuzzSummary(n_trials=1, t_max=8, d=1, seed=1, grid=[])
        summary.near_misses.append(CounterexampleRecord(
            label="x", params=HyperParams(), T=1, d=1, g=np.ones((1, 1)), g_inf_cap=1.0,
            rhs_coeff=0.5, lhs=np.ones(1), rhs=np.full(1, 0.5), min_slack=-0.5,
            exact_min_slack=-0.5, enclosure=(-0.5, -0.5)))
        return summary

    monkeypatch.setattr(cli, "conjecture_fuzz", fake_fuzz)
    assert cmd_fuzz(1, 8, 1, tmp_path / "o") == EXIT_VIOLATION


def test_numeric_failure_exit_code_carries_step(tmp_path, capsys, monkeypatch):
    from adamcheck.core import NumericInputError
    import adamcheck.cli as cli

    def boom(*args, **kwargs):
        raise NumericInputError("gradient contains a nonfinite component", t=7)

    monkeypatch.setattr(cli, "adam_run", boom)
    cfg = write_configs(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "t=7" in capsys.readouterr().err


def test_load_run_config_seed_and_out_overrides(tmp_path):
    cfg = write_configs(tmp_path, extra="output_dir = somewhere\n")
    loaded = load_run_config(cfg, seed_override=42, out_override=tmp_path / "o")
    assert loaded.seed == 42
    assert loaded.output_dir == tmp_path / "o"
    loaded2 = load_run_config(cfg)
    assert loaded2.seed == 1
    assert loaded2.output_dir == Path("somewhere")


def test_run_golden_noisy_fixture(tmp_path, fixtures_dir):
    # Pinned noisy-quadratic run (T = 3000, three horizons): any change to the
    # bound analysis must leave both reports byte-identical.
    out = tmp_path / "out"
    cfg = fixtures_dir / "golden_noisy_run.cfg"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    for name, golden in (("bound_report.csv", "golden_noisy_bound_report.csv"),
                         ("report.txt", "golden_noisy_report.txt")):
        assert (out / name).read_bytes() == (fixtures_dir / golden).read_bytes(), name


BAD_RUN_CONFIG = (
    "problem_spec = prob.cfg\noptimizer = {optimizer}\neta = {eta}\nT = {T}\nseed = {seed}\n"
)
NAN_MU_SPEC = "kind = quadratic\nd = 3\nseed = 11\nmu = nan\n"
# problems whose arrays exceed any user address space (728 TiB and 2 PiB),
# and one whose d x d matrix is beyond numpy's array size limit
BIG_QUAD_SPEC = "kind = quadratic\nd = 10000000\nseed = 11\n"
BIG_NOISY_SPEC = "kind = noisy-quadratic\nd = 10000000\nseed = 11\n"
BIG_LOGISTIC_SPEC = "kind = logistic\nd = 3\nn_samples = 100000000000000\nseed = 11\n"
# a problem that fits, but whose d x d Newton Hessian (728 TiB) does not
WIDE_LOGISTIC_SPEC = "kind = logistic\nd = 10000000\nn_samples = 1\nseed = 11\n"
HUGE_QUAD_SPEC = "kind = quadratic\nd = 4611686018427387904\nseed = 11\n"


@pytest.mark.parametrize(
    "argv,eta,seed,problem,T",
    [
        (["fuzz", "--trials", "-5", "--tmax", "8", "--seed", "1"], None, None, None, None),
        (["fuzz", "--trials", "5", "--tmax", "0", "--seed", "1"], None, None, None, None),
        (["fuzz", "--trials", "5", "--tmax", "8", "--seed", "-1"], None, None, None, None),
        (["fuzz", "--trials", "5", "--tmax", "8", "--seed", "1", "--grid", "0.9,0.999,nan"],
         None, None, None, None),
        # a 320 TB batch: above any user address space, so the allocation
        # fails when it is requested, whatever the overcommit policy
        (["fuzz", "--trials", "10", "--tmax", "4000000000000", "--seed", "1"],
         None, None, None, None),
        # a batch above numpy's array size limit, rejected before allocation
        (["fuzz", "--trials", "10", "--tmax", str(2 ** 62), "--seed", "1"],
         None, None, None, None),
        (["run"], "0.1", "-3", QUAD_SPEC, 20),
        (["run"], "inf", "1", QUAD_SPEC, 20),
        (["run"], "0.1", "1", NAN_MU_SPEC, 20),
        (["run"], "0.1", "1", QUAD_SPEC.replace("seed = 11", "seed = -3"), 20),
        (["race"], "0.1", "18446744073709551616", QUAD_SPEC, 20),
        # horizons whose arrays exceed any user address space (8 PB and up),
        # and ones beyond numpy's array size limit
        (["run"], "0.1", "1", QUAD_SPEC, 10 ** 15),
        (["run"], "0.1", "1", QUAD_SPEC, 2 ** 62),
        (["race"], "0.1", "1", QUAD_SPEC, 10 ** 15),
        (["race"], "0.1", "1", QUAD_SPEC, 2 ** 62),
        (["run"], "0.1", "1", BIG_QUAD_SPEC, 20),
        (["run"], "0.1", "1", BIG_NOISY_SPEC, 20),
        (["run"], "0.1", "1", BIG_LOGISTIC_SPEC, 20),
        (["run"], "0.1", "1", WIDE_LOGISTIC_SPEC, 1),
        (["run"], "0.1", "1", HUGE_QUAD_SPEC, 20),
        (["race"], "0.1", "1", BIG_QUAD_SPEC, 20),
        (["race"], "0.1", "1", HUGE_QUAD_SPEC, 20),
    ],
    ids=["fuzz-trials", "fuzz-tmax", "fuzz-seed", "fuzz-grid-nan", "fuzz-tmax-memory",
         "fuzz-tmax-size", "run-seed", "run-eta-inf",
         "spec-mu-nan", "spec-seed", "race-seed", "run-T-memory", "run-T-size",
         "race-T-memory", "race-T-size", "run-quadratic-memory", "run-noisy-memory",
         "run-logistic-memory", "run-logistic-minimizer-memory", "run-quadratic-size", "race-quadratic-memory",
         "race-quadratic-size"],
)
def test_bad_input_exits_1_with_one_line(tmp_path, argv, eta, seed, problem, T):
    if problem is not None:
        (tmp_path / "prob.cfg").write_text(problem)
        # race gd against momentum, the two runners that keep no columns
        for name in ("gd", "momentum") if argv == ["race"] else ("adam",):
            config = BAD_RUN_CONFIG.format(optimizer=name, eta=eta, seed=seed, T=T)
            (tmp_path / f"{name}.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / f"{name}.cfg")]
    env = dict(os.environ, PYTHONPATH=str(Path(adamcheck.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "adamcheck.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("command", ["run", "race", "fuzz"])
def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys, monkeypatch, command):
    import adamcheck.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the optimizers ran before the output directory was made")

    monkeypatch.setattr(cli, "_run_horizon", no_run)
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n")
    if command == "fuzz":
        argv = ["fuzz", "--trials", "5", "--tmax", "4", "--seed", "1", "--out", str(afile)]
    else:
        configs = [write_configs(tmp_path, optimizer=name, name=f"{name}.cfg")
                   for name in ("adam", "gd")]
        argv = [command, "--config", str(configs[0])]
        if command == "race":
            argv += ["--config", str(configs[1])]
        # an existing file as the output directory, or as its parent
        argv += ["--out", str(afile if command == "run" else afile / "x")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cannot write output" in err, err
