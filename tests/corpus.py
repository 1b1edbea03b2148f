"""Shared run corpus for the bound-validation experiments.

One run per (problem kind, hyperparameter combo, horizon): 3 kinds x 6
combos x 3 horizons = 54 runs.  A single full-length trajectory per
(problem, combo) is cut into prefixes, which equal separate runs because
the optimizer is deterministic and horizon-oblivious.
"""

from dataclasses import dataclass

import numpy as np

from adamcheck.core import HyperParams, Trajectory, seeded_rng
from adamcheck.optimizers import adam_run
from adamcheck.problems import (
    ConvexProblem,
    evaluate,
    minimizer_oracle,
    random_noisy_quadratic,
    random_quadratic,
    synthetic_logistic,
)
from adamcheck.analysis import BoundReport, default_param_grid, theorem_bound

HORIZONS = (100, 1000, 10000)
CORPUS_D = 5


@dataclass
class CorpusRun:
    kind: str
    problem: ConvexProblem
    params: HyperParams
    T: int
    traj: Trajectory
    w_star: np.ndarray
    report: BoundReport


def corpus_problems():
    return [
        ("quadratic", random_quadratic(11, CORPUS_D, mu=0.1), 1001),
        ("noisy-quadratic", random_noisy_quadratic(12, CORPUS_D, mu=0.1, noise_scale=1.0), 1002),
        ("logistic", synthetic_logistic(13, 100, CORPUS_D, mu=1e-4), 1003),
    ]


def build_corpus() -> list[CorpusRun]:
    runs = []
    t_max = max(HORIZONS)
    for kind, problem, w0_seed in corpus_problems():
        w0 = seeded_rng(w0_seed).standard_normal(CORPUS_D)
        w_stars = {T: minimizer_oracle(problem, T) for T in HORIZONS}

        def oracle(w, t, problem=problem):
            return evaluate(problem, w, t)

        for params in default_param_grid():
            traj = adam_run(w0, oracle, params, t_max)
            for T in HORIZONS:
                prefix = traj.prefix(T)
                report = theorem_bound(prefix, w_stars[T], problem)
                runs.append(
                    CorpusRun(
                        kind=kind, problem=problem, params=params, T=T,
                        traj=prefix, w_star=w_stars[T], report=report,
                    )
                )
    return runs
