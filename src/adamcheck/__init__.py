"""Adaptive-moment optimizer, its precursors, and numerical verification of
the associated regret-bound machinery."""

from .core import (
    AdamCheckError,
    DivisionHazardError,
    GradSequence,
    HyperParams,
    NumericInputError,
    RandomStream,
    StepRecord,
    Trajectory,
    seeded_rng,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .optimizers import (
    adam_run,
    adam_step,
    gd_run,
    gd_step,
    momentum_run,
    momentum_step,
    verify_replay,
)
from .problems import (
    ConvexProblem,
    UnboundedMinimizerError,
    convexity_gap,
    evaluate,
    logistic_problem,
    minimizer_oracle,
    noisy_quadratic_problem,
    parse_problem_spec,
    problem_from_spec,
    quadratic_problem,
    random_noisy_quadratic,
    random_quadratic,
    summed_gradient,
    synthetic_logistic,
)
from .analysis import (
    BoundReport,
    ConjectureReport,
    CounterexampleRecord,
    FuzzCandidate,
    FuzzSummary,
    InsufficientDataError,
    average_regret_series,
    conjecture_fuzz,
    conjecture_sides,
    conjecture_sides_exact,
    default_fuzz_grid,
    default_param_grid,
    error_sum,
    geometric_sum_bound_check,
    geometric_sum_closed_form,
    load_counterexample,
    replay_counterexample,
    theorem_bound,
    vhat_bound_check,
    write_counterexample,
)

__version__ = "0.1.0"
