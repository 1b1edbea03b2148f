"""The four benchmark workloads: inputs generated from the workload seed,
the child spec of one repetition, its work units, and its output checks.

Every check raises CheckFailed with a one-line reason.  Checks that compare
repetitions (byte-identical artifacts) keep the first repetition's digests
on the workload object, so one object serves one benchmark invocation.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

SIZES = {
    "full": {
        "run-noisy": {"schedule": (1000, 10000, 100000)},
        # 3.5 s per repetition: a 15 s run takes 4-5, and their median
        # rejects a slow one; at T = 1e5 a run took 2 and spread 10 %.
        "race-logistic": {"T": 50000},
        "fuzz-probe": {"trials": 100000, "tmax": 64},
        "fuzz-escalate": {"trials": 20000, "tmax": 256, "d": 4, "candidates": 64, "cand_T": 256},
    },
    "tiny": {
        "run-noisy": {"schedule": (30, 100, 300)},
        "race-logistic": {"T": 2500},
        "fuzz-probe": {"trials": 2000, "tmax": 64},
        "fuzz-escalate": {"trials": 500, "tmax": 32, "d": 4, "candidates": 4, "cand_T": 32},
    },
}

# Every child runs in its own directory and writes to this relative path, so
# artifacts that name their own paths are byte-identical across repetitions.
OUT = "out"

# The pinned race prefix and its reference values (tests/fixtures).
RACE_PREFIX = 2000
RACE_EXPECTED_REL = 1e-9


class CheckFailed(Exception):
    """An output check of one repetition failed."""


def _set_keys(text: str, **values) -> str:
    """Replace the values of `key = value` lines; keys must all be present."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in line and key in values:
            line = f"{key} = {values[key]}"
            seen.add(key)
        lines.append(line)
    missing = set(values) - seen
    if missing:
        raise ValueError(f"keys not found: {sorted(missing)}")
    return "\n".join(lines) + "\n"


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workload:
    name = ""
    default_seed = 0
    artifacts: tuple[str, ...] = ()
    memory_config: Path | None = None  # run config of the adam_run memory probe

    def __init__(self, root: Path, workdir: Path, seed: int, size: str = "full"):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.size = SIZES[size][self.name]
        self._digests: dict[str, str] | None = None
        workdir.mkdir(parents=True, exist_ok=True)

    def child_spec(self) -> dict:
        raise NotImplementedError

    def reference_spec(self) -> dict | None:
        """Child spec of an untimed reference run the checks compare against."""
        return None

    def check(self, out: Path) -> None:
        raise NotImplementedError

    def _same_bytes(self, out: Path) -> None:
        digests = {name: _digest(out / name) for name in self.artifacts}
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            changed = sorted(k for k in digests if digests[k] != self._digests[k])
            raise CheckFailed(f"artifacts differ from the first repetition: {changed}")


class RunNoisy(Workload):
    """`adamcheck run` on noisy-quadratic d=5 with a horizon schedule."""

    name = "run-noisy"
    default_seed = 1
    artifacts = ("trajectory.csv", "bound_report.csv", "report.txt")
    params = {"eta": 0.1, "beta1": 0.9, "beta2": 0.999, "lambda": 0.999, "epsilon": 1e-8}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule = self.size["schedule"]
        self.T = self.schedule[-1]
        self.units = self.T
        (self.workdir / "problem.cfg").write_text(
            f"kind = noisy-quadratic\nd = 5\nseed = {self.seed}\nmu = 0.1\nnoise_scale = 1.0\n"
        )
        self.config = self.workdir / "run.cfg"
        lines = ["problem_spec = problem.cfg", "optimizer = adam"]
        lines += [f"{k} = {v!r}" for k, v in self.params.items()]
        lines += [f"T_schedule = {','.join(map(str, self.schedule))}", f"seed = {self.seed}"]
        self.config.write_text("\n".join(lines) + "\n")
        self.memory_config = self.config
        self.replayed = False

    def child_spec(self) -> dict:
        return {
            "argv": ["run", "--config", str(self.config), "--out", OUT],
            "setup_mark": ["problem_from_spec", "return"],
        }

    def check(self, out: Path) -> None:
        rows = (out / "bound_report.csv").read_text().splitlines()
        header = rows[0].split(",")
        if len(rows) != 1 + len(self.schedule):
            raise CheckFailed(f"bound_report.csv has {len(rows) - 1} rows, want {len(self.schedule)}")
        for row, horizon in zip(rows[1:], self.schedule):
            cells = dict(zip(header, row.split(",")))
            if int(cells["T"]) != horizon:
                raise CheckFailed(f"bound row T={cells['T']}, want {horizon}")
            for key, text in cells.items():
                if not math.isfinite(float(text)):
                    raise CheckFailed(f"T={horizon}: {key} = {text} is not finite")
            if float(cells["slack"]) < 0.0:
                raise CheckFailed(f"T={horizon}: negative slack {cells['slack']}")
        self._same_bytes(out)
        if not self.replayed:
            self._replay(out / "trajectory.csv")
            self.replayed = True

    def _replay(self, path: Path) -> None:
        from adamcheck import HyperParams, trajectory_from_csv, verify_replay

        p = self.params
        params = HyperParams(eta=p["eta"], beta1=p["beta1"], beta2=p["beta2"],
                             lam=p["lambda"], epsilon=p["epsilon"])
        try:
            traj = trajectory_from_csv(path.read_text(), params)
            if traj.T != self.T:
                raise CheckFailed(f"trajectory.csv has T={traj.T}, want {self.T}")
            verify_replay(traj)
        except (AssertionError, ValueError) as err:
            raise CheckFailed(f"trajectory replay failed: {err}") from None


class RaceLogistic(Workload):
    """`adamcheck race` gd/momentum/adam on the pinned logistic problem."""

    name = "race-logistic"
    default_seed = 1
    artifacts = ("race.csv",)
    contestants = ("gd", "momentum", "adam")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        fixtures = self.root / "tests" / "fixtures"
        self.T = self.size["T"]
        self.units = len(self.contestants) * self.T
        (self.workdir / "problem.cfg").write_text(
            _set_keys((fixtures / "benchmark_problem.cfg").read_text(), seed=self.seed))
        self.configs, self.ref_configs = [], []
        for name in self.contestants:
            text = (fixtures / f"race_{name}.cfg").read_text()
            for T, prefix, into in ((self.T, "", self.configs),
                                    (RACE_PREFIX, "ref_", self.ref_configs)):
                path = self.workdir / f"{prefix}{name}.cfg"
                path.write_text(_set_keys(text, problem_spec="problem.cfg", T=T, seed=self.seed))
                into.append(path)
        self.memory_config = self.configs[self.contestants.index("adam")]
        # The generated inputs equal the pinned fixture at the fixture's seed.
        self.expected = fixtures / "race_expected.csv" if self.seed == 1 else None
        self.reference: dict[str, list[str]] | None = None

    def _argv(self, configs) -> list[str]:
        argv = ["race"]
        for path in configs:
            argv += ["--config", str(path)]
        return argv + ["--out", OUT]

    def child_spec(self) -> dict:
        return {"argv": self._argv(self.configs),
                "setup_mark": ["problem_from_spec", "return"]}

    def reference_spec(self) -> dict:
        return {"argv": self._argv(self.ref_configs),
                "setup_mark": ["problem_from_spec", "return"]}

    def _series(self, path: Path, T: int) -> dict[str, list[str]]:
        lines = path.read_text().splitlines()
        if lines[0] != "step,optimizer,objective_value" or len(lines) != 1 + len(self.contestants) * T:
            raise CheckFailed(f"{path.name}: bad header or {len(lines) - 1} rows")
        series = {name: [] for name in self.contestants}
        for line in lines[1:]:
            step, name, value = line.split(",")
            if name not in series or int(step) != len(series[name]) + 1:
                raise CheckFailed(f"{path.name}: unexpected row {line!r}")
            series[name].append(value)
        return series

    def set_reference(self, out: Path) -> None:
        self.reference = self._series(out / "race.csv", RACE_PREFIX)

    def check(self, out: Path) -> None:
        if self.reference is None:
            raise CheckFailed(f"no T={RACE_PREFIX} reference race to compare against")
        series = self._series(out / "race.csv", self.T)
        for name, values in series.items():
            if not all(math.isfinite(float(v)) for v in values):
                raise CheckFailed(f"{name}: nonfinite objective value")
            if values[:RACE_PREFIX] != self.reference[name]:
                raise CheckFailed(f"{name}: first {RACE_PREFIX} steps differ from a T={RACE_PREFIX} race")
        if self.expected is not None:
            for line in self.expected.read_text().splitlines()[1:]:
                step, name, value = line.split(",")
                got = float(series[name][int(step) - 1])
                if abs(got - float(value)) > RACE_EXPECTED_REL * abs(float(value)):
                    raise CheckFailed(f"{name} step {step}: {got!r} != race_expected {value}")
        self._same_bytes(out)


class FuzzProbe(Workload):
    """`adamcheck fuzz` with the README's documented probe settings."""

    name = "fuzz-probe"
    default_seed = 20260811
    artifacts = ("fuzz_summary.txt",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.units = self.size["trials"]

    def child_spec(self) -> dict:
        argv = ["fuzz", "--trials", str(self.size["trials"]), "--tmax", str(self.size["tmax"]),
                "--d", "1", "--seed", str(self.seed), "--out", OUT]
        return {"argv": argv, "setup_mark": ["conjecture_fuzz", "call"]}

    def check(self, out: Path) -> None:
        summary = (out / "fuzz_summary.txt").read_text().splitlines()
        if f"trials            : {self.size['trials']}" not in summary:
            raise CheckFailed("fuzz_summary.txt does not report the trial count")
        if "confirmed violations: 0" not in summary or any((out / "counterexamples").iterdir()):
            raise CheckFailed("confirmed violations found")
        self._same_bytes(out)


class FuzzEscalate(Workload):
    """Library `conjecture_fuzz` with injected candidates on both sides of
    the boundary, then replay of every written counterexample."""

    name = "fuzz-escalate"
    default_seed = 20260811
    artifacts = ("fuzz_summary.txt",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.units = self.size["trials"] + self.size["candidates"]
        # Even-indexed candidates sit just below the boundary.
        self.below = {f"ce_cand{i:02d}.txt" for i in range(0, self.size["candidates"], 2)}

    def child_spec(self) -> dict:
        return {"seed": self.seed, **self.size}

    def check(self, out: Path) -> None:
        from adamcheck import replay_counterexample

        found = {p.name for p in (out / "counterexamples").iterdir()}
        if found != self.below:
            raise CheckFailed(
                f"confirmed {sorted(found - self.below)[:3]} unexpectedly, "
                f"missed {sorted(self.below - found)[:3]}")
        summary = (out / "fuzz_summary.txt").read_text().splitlines()
        if f"confirmed violations: {len(self.below)}" not in summary:
            raise CheckFailed("fuzz_summary.txt disagrees with the counterexample files")
        for name in sorted(found):
            try:
                rec, slack = replay_counterexample(out / "counterexamples" / name)
            except (KeyError, ValueError) as err:
                raise CheckFailed(f"{name}: unreadable: {err}") from None
            if slack != rec.min_slack or not rec.exact_min_slack < 0.0:
                raise CheckFailed(f"{name}: replayed slack {slack!r} != recorded {rec.min_slack!r}")
        self._same_bytes(out)


WORKLOADS = {w.name: w for w in (RunNoisy, RaceLogistic, FuzzProbe, FuzzEscalate)}
