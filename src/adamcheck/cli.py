"""Command-line front end: optimizer runs, optimizer races, and the
inequality fuzzer, all emitting deterministic CSV/text artifacts.

Exit codes: 0 success, 1 config error or unwritable output, 2 numeric
failure, 3 unbounded minimizer, 10 confirmed inequality violation found by
the fuzzer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    FUZZ_BATCH,
    average_regret_series,
    bound_report_text,
    bound_reports_csv,
    conjecture_fuzz,
    default_fuzz_grid,
    fuzz_summary_text,
    theorem_bound,
)
from .core import (
    AdamCheckError,
    DivisionHazardError,
    HyperParams,
    NumericInputError,
    fmt17,
    parse_kv_text,
    seeded_rng,
    trajectory_to_csv,
)
from .optimizers import adam_run, gd_run, momentum_run
from .problems import (
    UnboundedMinimizerError,
    minimizer_oracle,
    evaluate,
    parse_problem_spec,
    problem_from_spec,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "cmd_run",
    "cmd_race",
    "cmd_fuzz",
    "main",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_NUMERIC",
    "EXIT_UNBOUNDED",
    "EXIT_VIOLATION",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_UNBOUNDED = 3
EXIT_VIOLATION = 10

OPTIMIZERS = ("gd", "momentum", "adam")


class ConfigError(AdamCheckError):
    """Invalid or inconsistent configuration input."""


@dataclass
class RunConfig:
    problem_spec: dict          # parsed problem spec fields
    optimizer: str
    params: HyperParams
    T: int
    t_schedule: list[int] | None
    seed: int
    output_dir: Path


_RUN_KEYS = {
    "problem_spec", "optimizer", "eta", "beta1", "beta2", "lambda",
    "epsilon", "alpha", "T", "T_schedule", "seed", "output_dir",
}


def load_run_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> RunConfig:
    """Parse a run config file (key = value schema).

    `problem_spec` paths are resolved relative to the config file.  The
    hyperparameter keys default to the library defaults when absent.
    """
    path = Path(path)
    try:
        kv = parse_kv_text(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except ValueError as err:
        raise ConfigError(f"{path}: {err}")

    unknown = set(kv) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("problem_spec", "optimizer", "seed"):
        if key not in kv:
            raise ConfigError(f"{path}: missing required key {key!r}")

    optimizer = kv["optimizer"]
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"{path}: optimizer must be one of {OPTIMIZERS}, got {optimizer!r}")

    try:
        defaults = HyperParams()
        params = HyperParams(
            eta=float(kv.get("eta", defaults.eta)),
            beta1=float(kv.get("beta1", defaults.beta1)),
            beta2=float(kv.get("beta2", defaults.beta2)),
            lam=float(kv.get("lambda", defaults.lam)),
            epsilon=float(kv.get("epsilon", defaults.epsilon)),
            alpha=float(kv.get("alpha", defaults.alpha)),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}")

    schedule = None
    if "T_schedule" in kv:
        try:
            schedule = [int(tok) for tok in kv["T_schedule"].split(",") if tok.strip()]
        except ValueError as err:
            raise ConfigError(f"{path}: bad T_schedule: {err}")
        if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ConfigError(f"{path}: T_schedule must be strictly increasing")
        if schedule[0] < 1:
            raise ConfigError(f"{path}: horizons must be positive")

    if "T" in kv:
        try:
            T = int(kv["T"])
        except ValueError as err:
            raise ConfigError(f"{path}: bad T: {err}")
    elif schedule:
        T = schedule[-1]
    else:
        raise ConfigError(f"{path}: missing required key 'T'")
    if T < 1:
        raise ConfigError(f"{path}: T must be >= 1, got {T}")
    if schedule is not None and schedule[-1] != T:
        raise ConfigError(f"{path}: T={T} must equal the last schedule horizon {schedule[-1]}")

    try:
        seed = int(kv["seed"]) if seed_override is None else int(seed_override)
    except ValueError as err:
        raise ConfigError(f"{path}: bad seed: {err}")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{path}: seed must lie in [0, 2**64), got {seed}")

    spec_path = Path(kv["problem_spec"])
    if not spec_path.is_absolute():
        spec_path = path.parent / spec_path
    try:
        problem_spec = parse_problem_spec(spec_path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read problem spec {spec_path}: {err}")
    except ValueError as err:
        raise ConfigError(f"{spec_path}: {err}")

    out_dir = Path(out_override) if out_override is not None else Path(kv.get("output_dir", "out"))
    return RunConfig(
        problem_spec=problem_spec,
        optimizer=optimizer,
        params=params,
        T=T,
        t_schedule=schedule,
        seed=seed,
        output_dir=out_dir,
    )


def _progress(t: int, T: int) -> None:
    print(f"[adamcheck] step {t}/{T}", file=sys.stderr)


def _initial_weights(seed: int, d: int) -> np.ndarray:
    return seeded_rng(seed).standard_normal(d)


def _config_echo(config: RunConfig) -> list[str]:
    p = config.params
    spec = config.problem_spec
    lines = [
        f"problem kind         : {spec['kind']}",
        f"problem d            : {spec['d']}",
        f"problem seed         : {spec['seed']}",
        f"problem mu           : {fmt17(spec['mu'])}",
    ]
    if spec["kind"] == "logistic":
        lines.append(f"problem n_samples    : {spec['n_samples']}")
    if spec["kind"] == "noisy-quadratic":
        lines.append(f"problem noise_scale  : {fmt17(spec['noise_scale'])}")
    lines += [
        f"optimizer            : {config.optimizer}",
        f"eta                  : {fmt17(p.eta)}",
        f"beta1                : {fmt17(p.beta1)}",
        f"beta2                : {fmt17(p.beta2)}",
        f"lambda               : {fmt17(p.lam)}",
        f"epsilon              : {fmt17(p.epsilon)}",
        f"alpha                : {fmt17(p.alpha)}",
        f"T                    : {config.T}",
        f"seed                 : {config.seed}",
    ]
    return lines


def _allocated(what: str, make):
    """Return make(); arrays of `what` that cannot be allocated are a
    config error."""
    try:
        return make()
    except MemoryError as err:
        raise ConfigError(f"the arrays of {what} cannot be allocated: {err}") from err


def _run_horizon(T: int, d: int, run):
    """Return run(), an optimizer run of T steps in dimension d.  A horizon
    whose (T+1, d) float64 iterates exceed numpy's array size limit, or
    cannot be allocated, is a config error."""
    nbytes = (T + 1) * d * 8
    if nbytes > np.iinfo(np.intp).max:
        raise ConfigError(f"T={T} needs a {nbytes}-byte array, beyond numpy's array size limit")
    return _allocated(f"T={T} steps", run)


def cmd_run(config: RunConfig) -> int:
    """Run the adaptive optimizer, evaluate the regret bound at every
    requested horizon, and write trajectory.csv, bound_report.csv, and
    report.txt."""
    if config.optimizer != "adam":
        raise ConfigError(
            "the run command drives the adaptive optimizer only; "
            "gd and momentum are raced via the race command"
        )
    spec = config.problem_spec
    problem = _allocated(f"the {spec['kind']} problem", lambda: problem_from_spec(spec))
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    # the minimizers do not read the trajectory, so one that is unbounded
    # or cannot be allocated stops the run before the optimizer starts
    horizons = config.t_schedule or [config.T]
    w_stars = _allocated(
        f"the {problem.kind} minimizer", lambda: [minimizer_oracle(problem, h) for h in horizons]
    )
    w0 = _initial_weights(config.seed, problem.d)
    oracle = lambda w, t: evaluate(problem, w, t)
    traj = _run_horizon(
        config.T, problem.d,
        lambda: adam_run(w0, oracle, config.params, config.T, progress=_progress),
    )

    reports = [
        theorem_bound(traj.prefix(h), w_star, problem) for h, w_star in zip(horizons, w_stars)
    ]

    with open(out / "trajectory.csv", "w") as f:
        trajectory_to_csv(traj, f)
    (out / "bound_report.csv").write_text(bound_reports_csv(reports))

    lines = _config_echo(config)
    for report in reports:
        lines.append("")
        lines.append(bound_report_text(report))
    if len(reports) >= 3:
        rows, slope = average_regret_series(reports)
        lines.append("")
        lines.append(f"fitted log-log slope of bound(T)/T over the largest decade: {fmt17(slope)}")
        for T, avg_regret, avg_bound in rows:
            lines.append(
                f"  T={T}: R(T)/T={fmt17(avg_regret)} bound(T)/T={fmt17(avg_bound)}"
            )
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _race_member(config: RunConfig, problem) -> np.ndarray:
    w0 = _initial_weights(config.seed, problem.d)
    oracle = lambda w, t: evaluate(problem, w, t)
    p = config.params
    if config.optimizer == "adam":
        return adam_run(w0, oracle, p, config.T, progress=_progress).e
    if config.optimizer == "gd":
        values, _ = gd_run(w0, oracle, p.eta, config.T)
        return values
    values, _ = momentum_run(w0, oracle, p.eta, p.alpha, config.T)
    return values


def cmd_race(configs: list[RunConfig]) -> int:
    """Race several optimizers on one shared problem and horizon; writes
    race.csv with columns (step, optimizer, objective_value) into the first
    config's output directory."""
    if len(configs) < 2:
        raise ConfigError("race needs at least 2 configs")
    first = configs[0]
    for other in configs[1:]:
        if other.problem_spec != first.problem_spec:
            raise ConfigError("race configs must share one problem spec")
        if other.T != first.T:
            raise ConfigError("race configs must share one horizon T")

    labels = []
    seen: dict[str, int] = {}
    for config in configs:
        n = seen.get(config.optimizer, 0)
        seen[config.optimizer] = n + 1
        labels.append(config.optimizer if n == 0 else f"{config.optimizer}#{n + 1}")

    spec = first.problem_spec
    problem = _allocated(f"the {spec['kind']} problem", lambda: problem_from_spec(spec))
    out = first.output_dir
    out.mkdir(parents=True, exist_ok=True)
    series = _run_horizon(
        first.T, problem.d, lambda: [_race_member(c, problem) for c in configs]
    )

    lines = ["step,optimizer,objective_value"]
    for label, values in zip(labels, series):
        for t, value in enumerate(values, start=1):
            lines.append(f"{t},{label},{fmt17(value)}")

    (out / "race.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def parse_grid_spec(spec: str) -> list[HyperParams]:
    """Parse `beta1,beta2,lambda;...` triples into grid entries."""
    grid = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [tok.strip() for tok in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"grid entry must be beta1,beta2,lambda: {chunk!r}")
        try:
            b1, b2, lam = (float(tok) for tok in parts)
            grid.append(HyperParams(eta=0.001, beta1=b1, beta2=b2, lam=lam, epsilon=1e-8))
        except ValueError as err:
            raise ConfigError(f"invalid grid entry {chunk!r}: {err}")
    if not grid:
        raise ConfigError("grid spec is empty")
    return grid


def cmd_fuzz(
    trials: int,
    tmax: int,
    seed: int,
    out_dir: str | Path,
    d: int = 1,
    grid: list[HyperParams] | None = None,
) -> int:
    """Run the inequality fuzzer; writes fuzz_summary.txt and a
    counterexamples/ directory (possibly empty).  Returns 10 when a
    confirmed violation was found, else 0: violations are findings."""
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    if tmax < 1 or d < 1:
        raise ConfigError(f"tmax and d must be >= 1, got tmax={tmax}, d={d}")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    # a (batch, tmax, d) float64 array must fit numpy's byte-size limit;
    # below it, a batch beyond the memory the system grants fails to allocate
    batch_bytes = min(trials, FUZZ_BATCH) * tmax * d * 8
    if batch_bytes > np.iinfo(np.intp).max:
        raise ConfigError(f"a fuzz batch of {batch_bytes} bytes exceeds numpy's array size limit")
    grid = default_fuzz_grid() if grid is None else grid
    out = Path(out_dir)
    summary = _allocated(
        f"a {batch_bytes}-byte fuzz batch",
        lambda: conjecture_fuzz(trials, tmax, d, grid, seed, out_dir=out),
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / "fuzz_summary.txt").write_text(fuzz_summary_text(summary))
    return EXIT_VIOLATION if summary.violation_found else EXIT_OK


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="adamcheck",
        description="Adaptive-optimizer runs, optimizer races, and numerical "
        "verification of the regret-bound machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the adaptive optimizer and evaluate the bound")
    run.add_argument("--config", required=True, help="run config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the output directory")

    race = sub.add_parser("race", help="race optimizers on one problem")
    race.add_argument(
        "--config", action="append", required=True,
        help="run config file (repeat for each contestant)",
    )
    race.add_argument("--seed", type=int, default=None, help="override every config seed")
    race.add_argument("--out", default=None, help="output directory")

    fuzz = sub.add_parser("fuzz", help="randomized inequality counterexample search")
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--tmax", type=int, required=True)
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--out", required=True, help="output directory")
    fuzz.add_argument("--d", type=int, default=1, help="coordinates per trial")
    fuzz.add_argument(
        "--grid", default=None,
        help="semicolon-separated beta1,beta2,lambda triples (default: built-in grid)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_run_config(args.config, seed_override=args.seed, out_override=args.out)
            return cmd_run(config)
        if args.command == "race":
            configs = [
                load_run_config(path, seed_override=args.seed, out_override=args.out)
                for path in args.config
            ]
            return cmd_race(configs)
        grid = parse_grid_spec(args.grid) if args.grid is not None else None
        return cmd_fuzz(args.trials, args.tmax, args.seed, args.out, d=args.d, grid=grid)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # config and spec reads are ConfigErrors already
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericInputError, DivisionHazardError) as err:
        at = f" at step t={err.t}" if err.t is not None else ""
        print(f"numeric failure{at}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except UnboundedMinimizerError as err:
        print(f"unbounded minimizer: {err}", file=sys.stderr)
        return EXIT_UNBOUNDED


if __name__ == "__main__":
    raise SystemExit(main())
