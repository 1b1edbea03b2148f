"""Self-tests of the benchmark: span arithmetic, metric names, summaries,
and a tiny-size smoke of each workload with its output checks live.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_times_nested_and_overlapping():
    t = 1.0e5  # realistic monotonic clock offset
    rows = [  # (start, end, parent)
        (0, 10, -1),   # 0: root-level span
        (1, 4, 0),     # 1: child of 0
        (3, 6, 0),     # 2: overlaps its sibling 1 (another thread)
        (2, 3, 1),     # 3: grandchild under 1
        (8, 12, 0),    # 4: runs past its parent; clipped to [8, 10]
        (20, 21, -1),  # 5: second root-level span
        (20, 21, 5),   # 6: covers its parent completely
        (0, 9, 8),     # 7: child of 8; contains sibling 9 entirely
        (0, 10, -1),   # 8
        (2, 3, 8),     # 9: inside sibling 7
    ]
    start = np.array([r[0] + t for r in rows])
    end = np.array([r[1] + t for r in rows])
    parent = np.array([r[2] for r in rows])
    got = spans.self_times(start, end, parent)
    want = [10 - 7, 3 - 1, 3, 1, 4, 0, 1, 9, 10 - 9, 1]
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_tracer_folds_recursion_and_keeps_parent_across_pool():
    tracer = spans.Tracer()

    def leaf(n):
        return leaf(n - 1) if n else time.sleep(0.001)

    leaf_t = tracer.wrap(leaf, "m.leaf", "m.leaf")
    leaf = leaf_t  # recursion goes through the wrapper

    def outer():
        with tracer.pool_class()(max_workers=1) as pool:
            return list(pool.map(lambda n: leaf(n), [2, 0]))

    tracer.wrap(outer, "m.outer", "m.outer")()
    assert tracer.calls["m.leaf"][0] == 4          # 3 calls for n=2, 1 for n=0
    groups = [tracer.groups[g] for g in tracer.group]
    assert groups == ["m.outer", "m.leaf", "m.leaf"]  # recursion folded
    assert list(tracer.parent) == [-1, 0, 0]       # pool thread keeps its parent
    self_s = spans.self_times(np.array(tracer.start), np.array(tracer.end),
                              np.array(tracer.parent))
    total = tracer.end[0] - tracer.start[0]
    assert self_s.sum() == pytest.approx(total, abs=1e-6)
    assert (self_s >= -1e-9).all()


def test_tracer_marks_errors():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "m.boom", "m.boom")()
    assert list(tracer.failed) == [1]


# ---------------------------------------------------------------------------
# names and summaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "core.RandomStream.self_s", "a-b_c.9", "x" * 64])
def test_metric_names_accepted(name):
    assert run.check_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", ".dot_first", "_under", "a/b", "é", "x" * 65])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        run.check_name(name)


def test_benchmark_json_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        run.check_name(name)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_summarize_median_quartiles_and_count():
    s = run.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert (s["q1"], s["q3"]) == (1.5, 4.5)  # statistics.quantiles, exclusive method
    assert run.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    with pytest.raises(ValueError):
        run.summarize([])


# ---------------------------------------------------------------------------
# tiny smokes with live checks
# ---------------------------------------------------------------------------

def _replace_in(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, 1))


def _corrupt_run(out: Path) -> None:
    lines = (out / "trajectory.csv").read_text().splitlines()
    cells = lines[40].split(",")
    cells[7] = repr(float(cells[7]) * (1 + 1e-15) + 1e-300)  # w_after, one ulp off
    lines[40] = ",".join(cells)
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")


def _corrupt_race(out: Path) -> None:
    lines = (out / "race.csv").read_text().splitlines()
    step, name, value = lines[5].split(",")
    lines[5] = f"{step},{name},{float(value) + 1e-12!r}"
    (out / "race.csv").write_text("\n".join(lines) + "\n")


def _corrupt_probe(out: Path) -> None:
    _replace_in(out / "fuzz_summary.txt", "confirmed violations: 0", "confirmed violations: 1")


def _corrupt_escalate(out: Path) -> None:
    path = sorted((out / "counterexamples").iterdir())[0]
    lines = path.read_text().splitlines()
    lines = [ln if not ln.startswith("min_slack = ") else "min_slack = -1.5" for ln in lines]
    path.write_text("\n".join(lines) + "\n")


CORRUPT = {
    "run-noisy": _corrupt_run,
    "race-logistic": _corrupt_race,
    "fuzz-probe": _corrupt_probe,
    "fuzz-escalate": _corrupt_escalate,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_checks_pass_and_catch_corruption(name, tmp_path):
    seed = WORKLOADS[name].default_seed
    bench = run.Bench(name, seed, tmp_path / "bench", size="tiny")
    metrics, stats = run.end_to_end(bench, seconds=0.0)
    assert not bench.failed, [c.error for c in bench.failed]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert stats["setup_s"]["n"] >= run.MIN_SETUP_SAMPLES
    assert all(m["value"] > 0 for m in metrics.values())

    # A second repetition's outputs, kept for corruption.
    child = bench._spawn("kept", bench.workload.child_spec())
    out = child.dir / "out"
    bench.workload.check(out)
    corrupted = tmp_path / "corrupted"
    shutil.copytree(out, corrupted)
    CORRUPT[name](corrupted)
    with pytest.raises(CheckFailed):  # caught by the byte comparison
        bench.workload.check(corrupted)
    fresh = WORKLOADS[name](run.ROOT, tmp_path / "fresh", seed, size="tiny")
    fresh.reference = getattr(bench.workload, "reference", None)
    with pytest.raises(CheckFailed):  # caught by the workload's own check
        fresh.check(corrupted)


def test_failed_repetition_is_counted(tmp_path):
    bench = run.Bench("fuzz-probe", 1, tmp_path / "bench", size="tiny")
    bench.workload.check = lambda out: _raise(CheckFailed("forced"))
    bench.repetition()
    assert [c.error for c in bench.failed] == ["check failed: forced"]


def _raise(err):
    raise err


@pytest.mark.parametrize("name", ["run-noisy", "race-logistic", "fuzz-escalate"])
def test_tiny_traced_run(name, tmp_path):
    bench = run.Bench(name, WORKLOADS[name].default_seed, tmp_path / "bench", size="tiny")
    metrics = run.traced_run(bench)
    assert not bench.failed, [c.error for c in bench.failed]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    value = {k: m["value"] for k, m in metrics.items()}
    layers = sum(value[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + value["trace.startup_s"] + value["trace.uncovered_s"] == pytest.approx(
        value["trace.wall_s"])
    assert value["trace.uncovered_s"] >= 0.0
    assert all(value[f"{layer}.errors"] == 0 for layer in run.LAYERS)
    size = bench.workload.size
    if name == "run-noisy":
        T, horizons = size["schedule"][-1], sum(size["schedule"])
        assert value["optimizers.adam_step.calls"] == T
        # one per step, one per step of error_sum, two summed_gradient loops
        assert value["problems.evaluate.calls"] == T + 3 * horizons
        assert value["core.trajectory_to_csv.bytes"] > 0
        assert value["optimizers.adam_run.bytes_per_step"] > 0
    if name == "race-logistic":
        assert value["optimizers.steps"] == 3 * size["T"]
        assert value["problems.evaluate.calls_per_step"] == 1.0
        assert value["cli.cmd_race.self_s"] > 0
    if name == "fuzz-escalate":
        assert value["analysis.escalation.confirmed_ratio"] == 0.5
        assert 0 < value["analysis.conjecture_fuzz.padding_ratio"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz-probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
