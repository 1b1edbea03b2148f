"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json T0

SPEC.json is written by run.py.  T0 is the parent's spawn time on the
system-wide monotonic clock.  The spec names the workload's inputs, the output
directory, whether to trace, and whether to stop as soon as set-up is
done.  The child writes `setup_done` (monotonic seconds) to the result file
named in the spec and, when tracing, the spans to the spans file.

Set-up ends when imports, config/spec parsing and problem construction are
done: after the CLI's `problem_from_spec` returns for `run` and `race`,
when the CLI calls `conjecture_fuzz` for `fuzz`, and after the injected
candidates are built for the library fuzz workload.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _write(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data))


def _escalate_inputs(spec: dict, analysis, core):
    """Injected candidates whose rhs coefficient sits 1e-9 relative below
    (even index) or above (odd index) the binding coordinate's boundary."""
    import numpy as np

    grid = analysis.default_fuzz_grid()
    T, d = spec["cand_T"], spec["d"]
    raw = np.random.Philox(key=spec["seed"]).random_raw(spec["candidates"] * T * d)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    g_all = (2.0 * u - 1.0).reshape(spec["candidates"], T, d)
    candidates = []
    for i, g in enumerate(g_all):
        params = grid[i % len(grid)]
        seq = core.GradSequence(d=d, g=g, g_inf_cap=1.0)
        lhs = analysis.conjecture_sides(seq, params).lhs
        tight = float(np.max(lhs / np.sqrt(np.sum(g * g, axis=0))))
        coeff = tight * (1.0 - 1e-9 if i % 2 == 0 else 1.0 + 1e-9)
        candidates.append(analysis.FuzzCandidate(
            label=f"cand{i:02d}", params=params, seq=seq, rhs_coeff=coeff))
    return grid, candidates


def _run_escalate(spec: dict, package, mark_setup) -> int:
    analysis = package.analysis
    grid, candidates = _escalate_inputs(spec, analysis, package.core)
    mark_setup()
    out = Path(spec["out"])
    summary = analysis.conjecture_fuzz(
        spec["trials"], spec["tmax"], spec["d"], grid, spec["seed"],
        out_dir=out, injected=candidates,
    )
    (out / "fuzz_summary.txt").write_text(analysis.fuzz_summary_text(summary))
    for violation in summary.violations:
        analysis.replay_counterexample(violation.path)
    return 0


def _memory_probe(spec: dict, package) -> int:
    """Bytes the trajectory returned by `adam_run` holds: the traced
    allocation that is freed when the trajectory is dropped."""
    import gc
    import tracemalloc

    config = package.cli.load_run_config(spec["config"])
    problem = package.problems.problem_from_spec(config.problem_spec)
    w0 = package.core.seeded_rng(config.seed).standard_normal(problem.d)
    oracle = lambda w, t: package.problems.evaluate(problem, w, t)
    tracemalloc.start()
    traj = package.optimizers.adam_run(w0, oracle, config.params, spec["steps"])
    held = tracemalloc.get_traced_memory()[0]
    del traj
    gc.collect()
    _write(spec["result"], {"trajectory_bytes": held - tracemalloc.get_traced_memory()[0]})
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t0 = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import adamcheck
    import adamcheck.cli as cli

    if "memory_probe" in spec:
        return _memory_probe(spec, adamcheck)
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(adamcheck)
        tracer.add_span("bench.startup", t0, time.monotonic())

    result = {"setup_done": None}

    def mark_setup():
        if result["setup_done"] is not None:
            return
        result["setup_done"] = time.monotonic()
        if spec["setup_only"]:
            _write(spec["result"], result)
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)

    try:
        if "argv" in spec:
            name, when = spec["setup_mark"]
            inner = getattr(cli, name)

            def marked(*args, **kwargs):
                if when == "call":
                    mark_setup()
                out = inner(*args, **kwargs)
                mark_setup()
                return out

            setattr(cli, name, marked)
            code = cli.main(spec["argv"])
        else:
            code = _run_escalate(spec, adamcheck, mark_setup)
    finally:
        _write(spec["result"], result)
        if tracer is not None:
            tracer.dump(Path(spec["spans"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
