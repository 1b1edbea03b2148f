"""adamcheck benchmark: end-to-end metrics of four workloads, or a traced
run that breaks one repetition down by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: run-noisy, race-logistic, fuzz-probe, fuzz-escalate (see
perfbench/README.md).  Each repetition is a fresh child process, one at a
time, and every repetition's outputs are checked.  With --trace 0 the run
repeats until --seconds of repetitions have elapsed (always at least one)
and reports medians.  With --trace 1 it runs one untraced and one traced
repetition and reports per-layer metrics.  Human-readable lines go first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_runs"

sys.path[:0] = [str(HERE), str(SRC)]  # the checks import adamcheck from the checkout
from workloads import OUT, WORKLOADS, CheckFailed  # noqa: E402

# One BLAS thread everywhere: steadier than two on a shared 2-CPU machine,
# and results are bitwise equal either way.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Unset so race runs with the documented default pool size, and so every
# child imports from cached bytecode as an installed CLI does.
UNSET_VARS = ("ADAMCHECK_THREADS", "PYTHONDONTWRITEBYTECODE")

BUDGET_S = 170.0          # whole invocation, below the 180 s limit
MIN_SETUP_SAMPLES = 5     # setup-only children top up the setup samples
MEMORY_PROBE_STEPS = 10000
LAYERS = ("core", "optimizers", "problems", "analysis", "cli")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Child:
    """One child process: its timing, exit and where its files are."""

    dir: Path
    wall_s: float
    exit_code: int
    rss_mb: float
    timed_out: bool
    result: dict
    setup_s: float | None = None
    error: str | None = None
    files: dict = field(default_factory=dict)  # output path -> bytes
    stderr_lines: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    for var in UNSET_VARS:
        env.pop(var, None)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def spawn(spec: dict, rundir: Path, timeout: float) -> Child:
    """Run child.py on `spec` with `rundir` as its working directory;
    stdout/stderr go to files there."""
    rundir.mkdir(parents=True)
    spec = {
        "src": str(SRC), "out": OUT, "result": str(rundir / "result.json"),
        "spans": str(rundir / "spans.npz"), "trace": False, "setup_only": False, **spec,
    }
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(rundir / "stdout.txt", "wb") as out, open(rundir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), repr(t0)],
            stdout=out, stderr=err, env=child_env(), cwd=rundir,
        )
        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = rundir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    child = Child(dir=rundir, wall_s=wall, exit_code=proc.returncode,
                  rss_mb=usage.ru_maxrss / 1024.0, timed_out=bool(killed), result=result)
    if result.get("setup_done") is not None:
        child.setup_s = result["setup_done"] - t0
    return child


def _verdict(child: Child) -> str | None:
    if child.timed_out:
        return "timed out"
    if child.exit_code != 0:
        return f"exit code {child.exit_code}"
    return None


class Bench:
    """One benchmark invocation: spawns children, checks them, keeps
    every attempt for the failure count."""

    def __init__(self, name: str, seed: int, workdir: Path, size: str = "full"):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.workload = WORKLOADS[name](ROOT, workdir / "inputs", seed, size)
        self.deadline = time.monotonic() + BUDGET_S
        self.attempts: list[Child] = []
        self._n = 0

    def _spawn(self, tag: str, spec: dict, marks_setup: bool = True) -> Child:
        self._n += 1
        rundir = self.workdir / f"{self._n:03d}-{tag}"
        child = spawn(spec, rundir, self.deadline - time.monotonic())
        child.error = _verdict(child)
        if child.error is None and marks_setup and child.setup_s is None:
            child.error = "no setup mark"
        self.attempts.append(child)
        return child

    def setup_probe(self) -> Child:
        return self._spawn("setup", {**self.workload.child_spec(), "setup_only": True})

    def reference(self) -> None:
        spec = self.workload.reference_spec()
        if spec is None:
            return
        child = self._spawn("reference", spec)
        if child.error is None:
            try:
                self.workload.set_reference(child.dir / OUT)
            except (CheckFailed, OSError) as err:
                child.error = f"reference: {err}"
        shutil.rmtree(child.dir / OUT, ignore_errors=True)

    def repetition(self, trace: bool = False) -> Child:
        child = self._spawn("traced" if trace else "rep",
                            {**self.workload.child_spec(), "trace": trace})
        out = child.dir / OUT
        if child.error is None:
            try:
                self.workload.check(out)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as err:
                child.error = f"check failed: {err}"
        if out.is_dir():
            child.files = {str(p.relative_to(out)): p.stat().st_size
                           for p in out.rglob("*") if p.is_file()}
        child.stderr_lines = len((child.dir / "stderr.txt").read_bytes().splitlines())
        shutil.rmtree(out, ignore_errors=True)
        return child

    def memory_probe(self) -> Child | None:
        config = self.workload.memory_config
        if config is None:
            return None
        steps = min(self.workload.units, MEMORY_PROBE_STEPS)
        child = self._spawn("memory", {"memory_probe": True, "config": str(config),
                                       "steps": steps}, marks_setup=False)
        child.result["steps"] = steps
        if child.error is None and "trajectory_bytes" not in child.result:
            child.error = "no memory result"
        return child

    def time_left(self, need: float) -> bool:
        return time.monotonic() + need < self.deadline

    @property
    def failed(self) -> list[Child]:
        return [c for c in self.attempts if c.error is not None]


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Repetitions until `seconds` of them have elapsed; medians."""
    bench.setup_probe()  # warm-up: bytecode cache and page cache; not a sample
    bench.reference()
    reps: list[Child] = []
    while not reps or (sum(r.wall_s for r in reps) < seconds
                       and bench.time_left(2 * reps[-1].wall_s)):
        reps.append(bench.repetition())
    ok = [r for r in reps if r.error is None]
    setups = [r.setup_s for r in ok]
    for _ in range(MIN_SETUP_SAMPLES - len(setups)):
        probe = bench.setup_probe()
        if probe.error is None:
            setups.append(probe.setup_s)
    if not ok:
        return {}, {}
    units = bench.workload.units
    samples = {
        "wall_s": [r.wall_s for r in ok],
        "setup_s": setups,
        "work_per_s": [units / (r.wall_s - r.setup_s) for r in ok],
        "peak_rss_mb": [r.rss_mb for r in ok],
    }
    units_of = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
    stats = {k: {**summarize(v), "unit": units_of[k]} for k, v in samples.items()}
    metrics = {check_name(k): {"value": s["median"], "unit": s["unit"]} for k, s in stats.items()}
    return metrics, stats


def padding(workload) -> tuple[float, int]:
    """Useful over padded cells of the fuzz batches: trial k's horizon T_k
    re-derived from its documented stream (family draw, then 1 +
    floor(u * t_max))."""
    from adamcheck.core import STREAM_FUZZ_BASE, RandomStream

    size = workload.size
    trials, t_max = size["trials"], size["tmax"]
    d = size.get("d", 1)
    useful = 0
    for k in range(trials):
        rng = RandomStream(workload.seed, STREAM_FUZZ_BASE + k)
        rng.integers(4)
        useful += (1 + rng.integers(t_max)) * d
    padded = trials * t_max * d
    return useful / padded, padded


def layer_metrics(bench: Bench, untraced: Child, traced: Child, memory: Child | None) -> dict:
    import numpy as np

    import spans

    data = spans.load(traced.dir / "spans.npz")
    self_s = spans.self_times(data["start"], data["end"], data["parent"])
    groups = data["groups"]
    gid = data["group"]
    self_by = dict(zip(groups, np.bincount(gid, weights=self_s, minlength=len(groups))))
    total_by = dict(zip(groups, np.bincount(gid, weights=data["end"] - data["start"],
                                             minlength=len(groups))))
    errors_by = dict(zip(groups, np.bincount(gid, weights=data["failed"], minlength=len(groups))))
    calls = data["calls"]

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[check_name(name)] = (float(value), unit)

    def layer_sum(table, layer):
        return sum(v for g, v in table.items() if g.startswith(layer + "."))

    put("trace.wall_s", traced.wall_s, "s")
    put("trace.untraced_wall_s", untraced.wall_s, "s")
    put("trace.overhead_ratio", traced.wall_s / untraced.wall_s, "ratio")
    put("trace.startup_s", self_by.get("bench.startup", 0.0), "s")
    put("trace.uncovered_s", traced.wall_s - sum(self_by.values()), "s")
    put("trace.spans", len(self_s), "count")
    put("trace.work_units", bench.workload.units, "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_sum(self_by, layer), "s")
        put(f"{layer}.errors", layer_sum(errors_by, layer), "count")

    for name in ("core.RandomStream", "core.StepRecord", "core.record_step",
                 "core.trajectory_to_csv", "optimizers.adam_step", "optimizers.adam_run",
                 "optimizers.gd_run", "optimizers.gd_step", "optimizers.momentum_run",
                 "optimizers.momentum_step", "problems.evaluate", "problems.minimizer_oracle",
                 "problems.summed_gradient", "analysis.error_sum", "analysis.theorem_bound",
                 "analysis.conjecture_fuzz", "analysis.conjecture_sides_exact",
                 "analysis.write_counterexample", "analysis.replay_counterexample",
                 "cli.main", "cli.cmd_run", "cli.cmd_race", "cli.cmd_fuzz"):
        put(f"{name}.self_s", self_by.get(name, 0.0), "s")
    for name in ("problems.problem_from_spec", "cli.load_run_config"):
        put(f"{name}.total_s", total_by.get(name, 0.0), "s")

    steps = sum(calls.get(f"optimizers.{k}", 0) for k in ("adam_step", "gd_step", "momentum_step"))
    evaluations = calls.get("problems.evaluate", 0)
    put("core.RandomStream.constructions", calls.get("core.RandomStream.__init__", 0), "count")
    put("core.StepRecord.constructions", calls.get("core.StepRecord.__init__", 0), "count")
    put("optimizers.adam_step.calls", calls.get("optimizers.adam_step", 0), "count")
    put("optimizers.steps", steps, "count")
    put("problems.evaluate.calls", evaluations, "count")
    put("problems.evaluate.calls_per_step", evaluations / steps if steps else 0.0, "ratio")
    put("core.trajectory_to_csv.bytes", traced.files.get("trajectory.csv", 0), "B")
    put("cli.artifact_bytes", sum(traced.files.values()), "B")
    put("cli.stderr_lines", traced.stderr_lines, "count")

    if memory is not None and memory.error is None:
        steps_probed = memory.result["steps"]
        put("optimizers.adam_run.bytes_per_step",
            memory.result["trajectory_bytes"] / steps_probed, "B")
        put("optimizers.adam_run.probe_steps", steps_probed, "count")
    else:
        put("optimizers.adam_run.bytes_per_step", 0, "B")
        put("optimizers.adam_run.probe_steps", 0, "count")

    if bench.workload.name.startswith("fuzz"):
        ratio, padded = padding(bench.workload)
    else:
        ratio, padded = 0.0, 0
    put("analysis.conjecture_fuzz.padding_ratio", ratio, "ratio")
    put("analysis.conjecture_fuzz.padded_cells", padded, "count")

    escalated = calls.get("analysis.conjecture_sides_exact", 0)
    confirmed = calls.get("analysis.write_counterexample", 0)
    put("analysis.conjecture_sides_exact.calls", escalated, "count")
    put("analysis.escalation.confirmed", confirmed, "count")
    put("analysis.escalation.confirmed_ratio", confirmed / escalated if escalated else 0.0, "ratio")
    return m


def traced_run(bench: Bench) -> dict:
    bench.setup_probe()
    bench.reference()
    untraced = bench.repetition()
    traced = bench.repetition(trace=True)
    memory = bench.memory_probe()
    if untraced.error is not None or traced.error is not None:
        return {}
    return {k: {"value": v, "unit": u}
            for k, (v, u) in layer_metrics(bench, untraced, traced, memory).items()}


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    env = {
        "commit": _commit(), "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "workload_seed": seed,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        libc = ctypes.CDLL(None)
        # glibc _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE, as cpuid reports them
        env["l2_bytes"], env["l3_bytes"] = libc.sysconf(191), libc.sysconf(194)
    except (OSError, AttributeError):
        env["l2_bytes"] = env["l3_bytes"] = None
    return env


def _commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's documented seed)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    fixtures = ROOT / "tests" / "fixtures"
    if not (SRC / "adamcheck" / "__init__.py").is_file() or not fixtures.is_dir():
        print(f"adamcheck sources or test fixtures not found under {ROOT}", file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    env = environment(seed)
    for key, value in env.items():
        print(f"env {key}: {value}")

    workdir = WORK / f"{args.workload}-seed{seed}-trace{args.trace}"
    bench = Bench(args.workload, seed, workdir)
    if args.trace:
        metrics, stats = traced_run(bench), None
    else:
        metrics, stats = end_to_end(bench, args.seconds)

    for child in bench.failed:
        print(f"FAILED {child.dir.name}: {child.error}")
    attempted, failed = len(bench.attempts), len(bench.failed)
    print(f"fail_ratio: {failed / attempted:.4f} ({failed} of {attempted} children)")
    for name, s in (stats or {}).items():
        print(f"{name}: median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    if stats is None:
        for name, metric in metrics.items():
            print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    (workdir / "summary.json").write_text(json.dumps(
        {"env": env, "stats": stats, "metrics": metrics, "failures": [
            {"child": c.dir.name, "error": c.error} for c in bench.failed]}, indent=1))
    if not metrics:
        print("no repetition succeeded; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
