"""Acceptance suite.

Every criterion below runs at its stated tolerance and prints one PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see the lines live).
The run corpus behind criteria 2 and 4 is the session fixture from
corpus.py: 54 runs covering three problem kinds, six hyperparameter combos,
and horizons {100, 1000, 10000}.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from adamcheck.core import (
    GradSequence,
    HyperParams,
    StepRecord,
    seeded_rng,
)
from adamcheck.optimizers import adam_run, adam_step
from adamcheck.problems import (
    evaluate,
    minimizer_oracle,
    random_noisy_quadratic,
    summed_gradient,
)
from adamcheck.analysis import (
    FuzzCandidate,
    average_regret_series,
    conjecture_fuzz,
    conjecture_sides,
    default_fuzz_grid,
    geometric_sum_bound_check,
    geometric_sum_closed_form,
    replay_counterexample,
    theorem_bound,
    vhat_bound_check,
)
from adamcheck.cli import main as cli_main

from corpus import HORIZONS
from test_problems import ALL_KINDS, finite_difference_gradient, make_problem

from adamcheck.problems import convexity_gap


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


# ---------------------------------------------------------------------------
# 1. algorithm fidelity
# ---------------------------------------------------------------------------

def _independent_two_step(g_values, beta1, beta2, lam, eta):
    """Spreadsheet-style re-derivation with plain Python scalars."""
    m, v, w = 0.0, 0.0, 0.0
    out = []
    for t, g in enumerate(g_values, start=1):
        b1t = beta1 * lam ** (t - 1)
        m = b1t * m + (1 - b1t) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - (eta / math.sqrt(t)) * m_hat / math.sqrt(v_hat)
        out.append((m, v, m_hat, v_hat, w))
    return out


def test_criterion_1_algorithm_fidelity():
    with criterion(1, "algorithm fidelity"):
        # two-step constant-gradient example with decaying first-moment rate
        p = HyperParams(eta=1.0, beta1=0.9, beta2=0.999, lam=0.5, epsilon=0.0)
        st = StepRecord.initial([0.0])
        expected = _independent_two_step([1.0, 1.0], 0.9, 0.999, 0.5, 1.0)
        for (m, v, m_hat, v_hat, w) in expected:
            st = adam_step(st, [1.0], p)
            assert st.m[0] == pytest.approx(m, rel=1e-12)
            assert st.v[0] == pytest.approx(v, rel=1e-12)
            assert st.m_hat[0] == pytest.approx(m_hat, rel=1e-12)
            assert st.v_hat[0] == pytest.approx(v_hat, rel=1e-12)
            assert st.w[0] == pytest.approx(w, rel=1e-12)

        # first-step magnitude on 10**3 random gradients
        p = HyperParams(eta=0.07, beta1=0.9, beta2=0.999, lam=0.95, epsilon=1e-8)
        g_samples = seeded_rng(2024).uniform(-50.0, 50.0, size=1000)
        correction = (1 - p.beta1 * p.lam ** 0) / (1 - p.beta1)
        for g in g_samples:
            if g == 0.0:
                continue
            st = adam_step(StepRecord.initial([0.0]), [g], p)
            expected_step = p.eta * correction * abs(g) / (abs(g) + p.epsilon)
            assert abs(st.w[0]) == pytest.approx(expected_step, rel=1e-12)


# ---------------------------------------------------------------------------
# 2. bound validation on the corpus
# ---------------------------------------------------------------------------

def test_criterion_2_bound_holds_on_corpus(corpus):
    with criterion(2, "bound - R(T) >= 0 on the full run corpus"):
        assert len(corpus) >= 50
        assert {run.kind for run in corpus} == set(ALL_KINDS)
        assert {run.T for run in corpus} == set(HORIZONS)
        for run in corpus:
            # the reference point is a checked stationary point of the sum
            scale = max(
                1.0,
                float(np.linalg.norm(summed_gradient(run.problem, np.zeros(run.problem.d), run.T))),
            )
            resid = float(np.linalg.norm(summed_gradient(run.problem, run.w_star, run.T)))
            assert resid <= 1e-10 * scale
            assert run.report.slack >= 0.0, (
                f"bound violated: kind={run.kind} T={run.T} "
                f"beta1={run.params.beta1} lam={run.params.lam}"
            )
            # measured regret stays nonnegative up to oracle tolerance
            max_e = float(np.max(np.abs(run.traj.e)))
            assert run.report.regret >= -1e-9 * run.T * max(1.0, max_e)


# ---------------------------------------------------------------------------
# 3. averaged-regret decay rate
# ---------------------------------------------------------------------------

RATE_SCHEDULE = (100, 316, 1000, 3162, 10000)


def test_criterion_3_average_regret_rate():
    with criterion(3, "bound(T)/T decays with slope <= -0.4; R(T)/T nonincreasing"):
        problem = random_noisy_quadratic(21, 5, mu=0.1, noise_scale=1.0)
        params = HyperParams(eta=0.05, beta1=0.9, beta2=0.999, lam=0.999, epsilon=1e-8)
        w0 = 3.0 * seeded_rng(2).standard_normal(5)
        traj = adam_run(w0, lambda w, t: evaluate(problem, w, t), params, RATE_SCHEDULE[-1])
        reports = []
        for T in RATE_SCHEDULE:
            reports.append(theorem_bound(traj.prefix(T), minimizer_oracle(problem, T), problem))
        rows, slope = average_regret_series(reports)
        assert slope <= -0.4
        avg_regret = [r for _, r, _ in rows]
        for prev, cur in zip(avg_regret, avg_regret[1:]):
            assert cur <= 1.05 * prev, f"R(T)/T increased beyond 5%: {prev} -> {cur}"


# ---------------------------------------------------------------------------
# 4. gradient-history and v_hat sum estimates
# ---------------------------------------------------------------------------

def test_criterion_4_sum_estimates(corpus):
    with criterion(4, "gradient-history and v_hat sums under d * G_inf * sqrt(T)"):
        for run in corpus:
            grads = run.traj.g
            g_inf = float(np.max(np.abs(grads)))
            d = run.traj.d
            T = run.T
            majorant = d * g_inf * math.sqrt(T) * (1 + 1e-12)
            assert float(np.sum(np.linalg.norm(grads, axis=0))) <= majorant
            v_hat_final = run.traj.v_hat[-1]
            assert float(np.sum(np.sqrt(T * v_hat_final))) <= majorant


# ---------------------------------------------------------------------------
# 5. proof-machinery oracles
# ---------------------------------------------------------------------------

def test_criterion_5_proof_machinery():
    with criterion(5, "geometric sums and the v_hat ceiling"):
        # closed form vs brute force on 10**3 random (lam, T)
        rng = seeded_rng(314)
        for _ in range(1000):
            lam = rng.uniform(0.005, 0.995)
            T = 1 + int(rng.uniform() * 1000)
            direct = float(sum(lam ** t * t for t in range(T)))
            assert geometric_sum_closed_form(lam, T) == pytest.approx(
                direct, rel=1e-10, abs=1e-12
            )

        # weighted-sum majorant on the full grid
        for beta1 in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                p = HyperParams(beta1=beta1, beta2=0.9999, lam=lam)
                t = np.arange(1, 1001, dtype=np.float64)
                terms = p.beta1 * p.lam ** (t - 1) / (1 - p.beta1 * p.lam ** (t - 1)) * np.sqrt(t)
                partial = np.cumsum(terms)
                rhs = 1.0 / ((1 - beta1) * (1 - lam) ** 2)
                assert float(partial.max()) <= rhs
                lhs_full, rhs_full = geometric_sum_bound_check(p, 1000)
                assert lhs_full == pytest.approx(float(partial[-1]), rel=1e-12)
                assert rhs_full == pytest.approx(rhs, rel=1e-15)

        # sqrt(v_hat) <= G_inf along 10**3 fuzzed trajectories
        rng = seeded_rng(217)
        p = HyperParams(beta1=0.9, beta2=0.99, lam=0.98)
        for _ in range(1000):
            T = 1 + int(rng.uniform() * 64)
            g_all = rng.uniform(-4.0, 4.0, size=T * 2).reshape(T, 2)
            gs = iter(g_all)
            traj = adam_run(np.zeros(2), lambda w, t: (0.0, next(gs)), p, T)
            assert vhat_bound_check(traj, float(np.max(np.abs(g_all))))


# ---------------------------------------------------------------------------
# 6. inequality probe
# ---------------------------------------------------------------------------

def test_criterion_6_conjecture_probe(tmp_path):
    with criterion(6, "inequality fuzzer: scale, determinism, escalation, replay"):
        grid = default_fuzz_grid()
        assert len(grid) >= 8 and all(p.gamma < 1 for p in grid)

        start = time.time()
        summary = conjecture_fuzz(
            100_000, 64, 1, grid, seed=20260811, out_dir=tmp_path / "fuzz"
        )
        elapsed = time.time() - start
        assert elapsed < 300.0, f"probe took {elapsed:.0f}s, budget is 5 minutes"
        assert sum(summary.family_counts.values()) == 100_000

        # every near-miss was escalated and its outcome logged
        for nm in summary.near_misses:
            assert nm.outcome in ("cleared", "confirmed")
            assert math.isfinite(nm.exact_min_slack)

        # seed determinism of the full probe
        repeat = conjecture_fuzz(100_000, 64, 1, grid, seed=20260811)
        assert repeat.min_slack == summary.min_slack
        assert repeat.min_rel_slack == summary.min_rel_slack
        assert repeat.argmin_label == summary.argmin_label
        assert repeat.family_counts == summary.family_counts
        assert [(n.label, n.outcome) for n in repeat.near_misses] == [
            (n.label, n.outcome) for n in summary.near_misses
        ]

        # the observed outcome is documented, not presumed
        print(
            f"    probe outcome: min slack={summary.min_slack:.6g}, "
            f"min relative slack={summary.min_rel_slack:.6g}, "
            f"near misses={len(summary.near_misses)}, "
            f"confirmed violations={len(summary.violations)}"
        )

        # detection machinery check: a synthetic known-violating record
        # (shrunken right-side coefficient, honestly recomputable) must be
        # screened, escalated, confirmed, serialized, and replayable
        g = seeded_rng(87).uniform(-1.0, 1.0, size=32).reshape(32, 1)
        p = grid[0]
        seq = GradSequence(d=1, g=g, g_inf_cap=1.0)
        lhs = conjecture_sides(seq, p).lhs
        bad_coeff = float(lhs[0]) / float(np.linalg.norm(g)) * 0.25
        injected = conjecture_fuzz(
            0, 32, 1, grid, seed=1,
            out_dir=tmp_path / "inject",
            injected=[FuzzCandidate(label="synthetic", params=p, seq=seq, rhs_coeff=bad_coeff)],
        )
        assert injected.violation_found
        assert injected.near_misses[0].outcome == "confirmed"
        path = injected.violations[0].path
        loaded, recomputed = replay_counterexample(path)
        assert loaded.min_slack < 0
        assert recomputed == pytest.approx(loaded.min_slack, rel=1e-12)


# ---------------------------------------------------------------------------
# 7. convexity and gradients
# ---------------------------------------------------------------------------

def test_criterion_7_convexity_and_gradients():
    with criterion(7, "convexity certificate and finite-difference gradients"):
        for kind in ALL_KINDS:
            problem = make_problem(kind)
            rng = seeded_rng(555)
            for _ in range(10_000):
                x = rng.uniform(-3.0, 3.0, size=problem.d)
                y = rng.uniform(-3.0, 3.0, size=problem.d)
                t = 1 + rng.integers(25)
                assert convexity_gap(problem, x, y, t) >= -1e-12
            for _ in range(100):
                w = rng.uniform(-2.0, 2.0, size=problem.d)
                t = 1 + rng.integers(25)
                _, grad = evaluate(problem, w, t)
                approx = finite_difference_gradient(problem, w, t, h=1e-6)
                denom = max(1.0, float(np.linalg.norm(grad)))
                assert float(np.linalg.norm(grad - approx)) / denom < 1e-5


# ---------------------------------------------------------------------------
# 8. optimizer race regression
# ---------------------------------------------------------------------------

def _read_race(path):
    rows = [ln.split(",") for ln in Path(path).read_text().splitlines()[1:]]
    return [(int(step), opt, float(val)) for step, opt, val in rows]


def test_criterion_8_race_analogue(tmp_path, fixtures_dir):
    with criterion(8, "pinned logistic race: adaptive beats plain descent"):
        out = tmp_path / "race"
        argv = ["race"]
        for name in ("race_gd.cfg", "race_momentum.cfg", "race_adam.cfg"):
            argv += ["--config", str(fixtures_dir / name)]
        argv += ["--out", str(out)]
        assert cli_main(argv) == 0

        got = _read_race(out / "race.csv")
        finals = {}
        for step, opt, val in got:
            finals[opt] = val
        assert finals["adam"] <= finals["gd"]

        expected = _read_race(fixtures_dir / "race_expected.csv")
        assert len(got) == len(expected) == 3 * 2000
        for (s1, o1, v1), (s2, o2, v2) in zip(got, expected):
            assert (s1, o1) == (s2, o2)
            assert v1 == pytest.approx(v2, rel=1e-9)


# ---------------------------------------------------------------------------
# 9. byte determinism of every command
# ---------------------------------------------------------------------------

def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_command_determinism(tmp_path, fixtures_dir):
    with criterion(9, "repeated commands produce byte-identical outputs"):
        prob = tmp_path / "prob.cfg"
        prob.write_text("kind = noisy-quadratic\nd = 3\nseed = 5\nmu = 0.1\nnoise_scale = 1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem_spec = prob.cfg\noptimizer = adam\neta = 0.05\nT = 300\nseed = 9\n"
        )
        for command in (
            ["run", "--config", str(cfg)],
            ["race", "--config", str(fixtures_dir / "race_gd.cfg"),
             "--config", str(fixtures_dir / "race_adam.cfg")],
            ["fuzz", "--trials", "500", "--tmax", "32", "--seed", "4"],
        ):
            out1 = tmp_path / f"{command[0]}_1"
            out2 = tmp_path / f"{command[0]}_2"
            assert cli_main(command + ["--out", str(out1)]) == 0
            assert cli_main(command + ["--out", str(out2)]) == 0
            assert _tree_bytes(out1) == _tree_bytes(out2), f"{command[0]} not deterministic"
