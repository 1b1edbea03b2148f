import math

import numpy as np
import pytest

from adamcheck.core import NumericInputError, seeded_rng
from adamcheck.problems import (
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

ALL_KINDS = ["quadratic", "logistic", "noisy-quadratic"]


def make_problem(kind, d=4):
    if kind == "quadratic":
        return random_quadratic(11, d, mu=0.1)
    if kind == "logistic":
        return synthetic_logistic(13, 50, d, mu=1e-4)
    return random_noisy_quadratic(12, d, mu=0.1, noise_scale=1.0)


# ---------------------------------------------------------------------------
# hand-checked values
# ---------------------------------------------------------------------------

def test_quadratic_identity_values():
    p = quadratic_problem(np.eye(2), np.zeros(2))
    value, grad = evaluate(p, [3.0, 4.0])
    assert value == pytest.approx(12.5, rel=1e-15)
    assert grad == pytest.approx([3.0, 4.0], rel=1e-15)


def test_logistic_single_sample_values():
    p = logistic_problem([[1.0]], [1.0])
    value, grad = evaluate(p, [0.0])
    assert value == pytest.approx(math.log(2.0), rel=1e-15)
    assert grad == pytest.approx([-0.5], rel=1e-15)


def test_convexity_gap_hand_values():
    p = quadratic_problem(np.eye(1), np.zeros(1))
    assert convexity_gap(p, [0.7], [0.7]) == 0.0
    assert convexity_gap(p, [0.0], [1.0]) == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# gradient consistency via central finite differences
# ---------------------------------------------------------------------------

def finite_difference_gradient(problem, w, t, h=1e-6):
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    for i in range(len(w)):
        up = w.copy()
        dn = w.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (evaluate(problem, up, t)[0] - evaluate(problem, dn, t)[0]) / (2 * h)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    problem = make_problem(kind)
    rng = seeded_rng(5)
    for _ in range(20):
        w = rng.uniform(-2.0, 2.0, size=problem.d)
        t = 1 + rng.integers(50)
        _, grad = evaluate(problem, w, t)
        approx = finite_difference_gradient(problem, w, t)
        denom = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - approx) / denom < 1e-5


# ---------------------------------------------------------------------------
# convexity certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_convexity_gap_nonnegative(kind):
    problem = make_problem(kind)
    rng = seeded_rng(6)
    for _ in range(500):
        x = rng.uniform(-3.0, 3.0, size=problem.d)
        y = rng.uniform(-3.0, 3.0, size=problem.d)
        t = 1 + rng.integers(20)
        assert convexity_gap(problem, x, y, t) >= -1e-12


# ---------------------------------------------------------------------------
# minimizer oracle
# ---------------------------------------------------------------------------

def test_quadratic_minimizer_closed_form():
    p = quadratic_problem(np.eye(2), np.array([1.0, 2.0]))
    for T in (1, 7):
        assert minimizer_oracle(p, T) == pytest.approx([1.0, 2.0], rel=1e-12)


def test_noisy_quadratic_minimizer_is_center_mean():
    # first-order condition: sum_t A (w - c_t) = 0.  The center sum is
    # recovered independently through the public gradient surface:
    # grad at 0 summed over t equals -A * sum(c_t).
    p = random_noisy_quadratic(31, 3, mu=0.2, noise_scale=2.0)
    T = 25
    w_star = minimizer_oracle(p, T)
    a = np.vstack([evaluate(p, e, 1)[1] - evaluate(p, np.zeros(3), 1)[1]
                   for e in np.eye(3)]).T
    sum_c = -np.linalg.solve(a, summed_gradient(p, np.zeros(3), T))
    assert w_star == pytest.approx(sum_c / T, rel=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_minimizer_stationarity(kind):
    problem = make_problem(kind)
    T = 40
    w_star = minimizer_oracle(problem, T)
    scale = max(1.0, float(np.linalg.norm(summed_gradient(problem, np.zeros(problem.d), T))))
    assert float(np.linalg.norm(summed_gradient(problem, w_star, T))) <= 1e-10 * scale


def test_separable_logistic_is_unbounded():
    # 3 points in 5 dimensions are separable almost surely; with mu = 0 the
    # loss has no finite minimizer
    problem = synthetic_logistic(2, 3, 5, mu=0.0)
    with pytest.raises(UnboundedMinimizerError):
        minimizer_oracle(problem, 1)


def test_regularizer_restores_attained_minimum():
    problem = synthetic_logistic(2, 3, 5, mu=1e-4)
    w_star = minimizer_oracle(problem, 1)
    assert np.all(np.isfinite(w_star))


# ---------------------------------------------------------------------------
# construction and evaluation errors
# ---------------------------------------------------------------------------

def test_quadratic_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_problem([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])


@pytest.mark.parametrize("build", [
    lambda a: quadratic_problem(a, np.ones(len(a))),
    lambda a: noisy_quadratic_problem(a, noise_seed=9, noise_scale=1.0),
], ids=["quadratic", "noisy-quadratic"])
def test_quadratic_kinds_require_convexity(build):
    # diag(1, -1) has a saddle, not a minimizer; diag(1, 0) is convex
    with pytest.raises(ValueError, match="positive semidefinite"):
        build(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        build(np.diag([1e6, -1e-3]))
    assert build(np.diag([1.0, 0.0])).d == 2
    assert build(np.diag([1.0, -1e-13])).d == 2  # rounding-level negativity


def test_random_psd_without_ridge_is_accepted():
    for d in (1, 2, 7, 30, 60):
        for seed in range(5):
            assert random_quadratic(seed, d, mu=0.0).d == d
            assert random_noisy_quadratic(seed, d, mu=0.0).d == d


def test_singular_quadratic_minimizer():
    # A = diag(1, 0): b in the range of A has the minimizer (1, 0) of least
    # norm; b outside it leaves the objective unbounded below
    p = quadratic_problem(np.diag([1.0, 0.0]), [1.0, 0.0])
    assert minimizer_oracle(p, 3) == pytest.approx([1.0, 0.0], abs=1e-15)
    p = quadratic_problem(np.diag([1.0, 0.0]), [1.0, 1.0])
    with pytest.raises(UnboundedMinimizerError):
        minimizer_oracle(p, 3)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        logistic_problem([[1.0]], [0.5])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    (lambda: quadratic_problem(np.eye(2), [NAN, 1.0]), "b"),
    (lambda: quadratic_problem([[1.0, 0.0], [0.0, INF]], np.zeros(2)), "matrix A"),
    (lambda: noisy_quadratic_problem([[NAN]], noise_seed=1, noise_scale=1.0), "matrix A"),
    (lambda: noisy_quadratic_problem(np.eye(2), noise_seed=1, noise_scale=INF), "noise_scale"),
    (lambda: logistic_problem([[1.0], [NAN]], [1.0, -1.0]), "feature matrix"),
    (lambda: logistic_problem([[1.0], [-1.0]], [1.0, -1.0], mu=INF), "mu"),
    (lambda: logistic_problem([[1.0], [-1.0]], [1.0, -1.0], mu=NAN), "mu"),
], ids=["quadratic-b", "quadratic-A", "noisy-A", "noisy-scale", "logistic-x",
        "logistic-mu-inf", "logistic-mu-nan"])
def test_problems_reject_nonfinite_data(build, field):
    # one line naming the field, before any check that a NaN would mislead
    # (symmetry, the eigenvalue sign) or a run that would blame the weights
    with pytest.raises(ValueError, match=f"^{field} ") as err:
        build()
    assert "\n" not in str(err.value)


def test_evaluate_rejects_nonfinite_weights():
    p = quadratic_problem(np.eye(1), np.zeros(1))
    with pytest.raises(NumericInputError):
        evaluate(p, [float("nan")])


def test_evaluate_rejects_wrong_length():
    p = quadratic_problem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="length"):
        evaluate(p, [1.0])


def test_noisy_quadratic_centers_deterministic():
    p = noisy_quadratic_problem(np.eye(2), noise_seed=9, noise_scale=1.0)
    v1, g1 = evaluate(p, [0.5, 0.5], 4)
    v2, g2 = evaluate(p, [0.5, 0.5], 4)
    v3, _ = evaluate(p, [0.5, 0.5], 5)
    assert v1 == v2 and np.array_equal(g1, g2)
    assert v1 != v3


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_parse_problem_spec_defaults():
    spec = parse_problem_spec("kind = logistic\nd = 3\nseed = 7\n")
    assert spec == {
        "kind": "logistic", "d": 3, "seed": 7,
        "n_samples": 100, "mu": 1e-4, "noise_scale": 1.0,
    }
    quad = parse_problem_spec("kind = quadratic\nd = 2\nseed = 1")
    assert quad["mu"] == 0.1


def test_parse_problem_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="missing required"):
        parse_problem_spec("kind = quadratic\nd = 2")
    with pytest.raises(ValueError, match="unknown"):
        parse_problem_spec("kind = quadratic\nd = 2\nseed = 1\nfoo = 1")
    with pytest.raises(ValueError, match="kind"):
        parse_problem_spec("kind = cubic\nd = 2\nseed = 1")
    with pytest.raises(ValueError, match="mu must be finite"):
        parse_problem_spec("kind = quadratic\nd = 2\nseed = 1\nmu = nan")
    with pytest.raises(ValueError, match="noise_scale must be finite"):
        parse_problem_spec("kind = noisy-quadratic\nd = 2\nseed = 1\nnoise_scale = inf")
    with pytest.raises(ValueError, match="seed must lie"):
        parse_problem_spec("kind = quadratic\nd = 2\nseed = -3")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_problem_from_spec_round_trip(kind):
    text = f"kind = {kind}\nd = 3\nseed = 5\nn_samples = 20\n"
    spec = parse_problem_spec(text)
    p = problem_from_spec(spec)
    assert p.kind == kind and p.d == 3
    q = problem_from_spec(parse_problem_spec(text))
    assert q.kind == p.kind
    w = np.full(3, 0.25)
    value_q, grad_q = evaluate(q, w, 2)
    value_p, grad_p = evaluate(p, w, 2)
    assert value_q == value_p and np.array_equal(grad_q, grad_p)


def test_synthetic_logistic_reproducible():
    a = synthetic_logistic(4, 30, 3)
    b = synthetic_logistic(4, 30, 3)
    assert np.array_equal(a.data.x, b.data.x)
    assert np.array_equal(a.data.y, b.data.y)
    assert set(np.unique(a.data.y)) <= {-1.0, 1.0}
