"""Each vectorized path is bitwise equal to the reference path it replaces."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adamcheck import analysis, problems
from adamcheck.analysis import (
    FUZZ_FAMILIES,
    _batch_sides,
    _l2_diameter,
    _rhs_coefficient,
    _sides,
    _trial_batch,
    default_fuzz_grid,
    error_sum,
)
from adamcheck.cli import _initial_weights, load_run_config
from adamcheck.core import (
    _CSV_STEPS,
    _PHILOX_CHUNK,
    _PHILOX_M,
    _mulhilo,
    STREAM_FUZZ_BASE,
    STREAM_NOISE_BASE,
    TRAJECTORY_HEADER,
    HyperParams,
    NumericInputError,
    RandomStream,
    Trajectory,
    box_muller,
    philox_blocks,
    philox_raw,
    seeded_rng,
    trajectory_to_csv,
)
from adamcheck.optimizers import adam_run, moment_step
from adamcheck.problems import (
    _CENTER_BLOCK,
    _center_sum,
    _centers,
    evaluate,
    minimizer_oracle,
    noisy_quadratic_problem,
    objective_values,
    problem_from_spec,
    quadratic_problem,
    random_noisy_quadratic,
    random_quadratic,
    summed_gradient,
    synthetic_logistic,
)

U64 = st.integers(min_value=0, max_value=2 ** 64 - 1)
EDGE_U64 = st.one_of(st.sampled_from([0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]), U64)


# ---------------------------------------------------------------------------
# Philox4x64-10 words and the Box-Muller conversion
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seed=EDGE_U64, streams=st.lists(EDGE_U64, min_size=1, max_size=4),
       n=st.integers(min_value=0, max_value=23))
def test_philox_raw_matches_stream_words(seed, streams, n):
    words = philox_raw(seed, streams, n)
    assert words.shape == (len(streams), n)
    for row, stream in zip(words, streams):
        assert np.array_equal(row, RandomStream(seed, stream).raw(n))


@settings(max_examples=200, deadline=None)
@given(seed=EDGE_U64, pairs=st.lists(st.tuples(EDGE_U64, st.integers(1, 40)), min_size=1, max_size=6))
def test_philox_blocks_match_stream_words_at_any_counter(seed, pairs):
    streams, counters = zip(*pairs)
    blocks = philox_blocks(seed, np.array(streams, dtype=np.uint64), counters)
    assert blocks.shape == (len(pairs), 4)
    for row, (stream, c) in zip(blocks, pairs):
        assert np.array_equal(row, RandomStream(seed, stream).raw(4 * c)[4 * c - 4:])


def test_philox_raw_crosses_kernel_chunks():
    # more blocks than one pass of the round loop holds
    n = 4 * (3 * _PHILOX_CHUNK + 5) - 3
    for seed, stream in ((0, 0), (2 ** 64 - 1, STREAM_FUZZ_BASE + 7)):
        assert np.array_equal(philox_raw(seed, [stream], n)[0], RandomStream(seed, stream).raw(n))


def test_philox_raw_rejects_out_of_range_seed():
    with pytest.raises(ValueError, match="64 bits"):
        philox_raw(-1, [0], 4)
    with pytest.raises(ValueError, match="64 bits"):
        philox_raw(2 ** 64, [0], 4)


@pytest.mark.parametrize("m", _PHILOX_M, ids=hex)
def test_mulhilo_matches_integer_product(m):
    # the words whose halves are extreme, then random ones
    edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    words = edges + RandomStream(5).raw(2000).tolist()
    hi, lo = _mulhilo(m, np.array(words, dtype=np.uint64))
    assert hi.tolist() == [(x * m) >> 64 for x in words]
    assert lo.tolist() == [(x * m) & (2 ** 64 - 1) for x in words]


@settings(max_examples=100, deadline=None)
@given(seed=EDGE_U64, stream=EDGE_U64, n=st.integers(min_value=1, max_value=25))
def test_batched_box_muller_matches_standard_normal(seed, stream, n):
    words = philox_raw(seed, [stream, stream ^ 1], 2 * ((n + 1) // 2))
    z = box_muller(words)[:, :n]
    assert np.array_equal(z[0], RandomStream(seed, stream).standard_normal(n))
    assert np.array_equal(z[1], RandomStream(seed, stream ^ 1).standard_normal(n))


# ---------------------------------------------------------------------------
# noise centers
# ---------------------------------------------------------------------------

def _center_loop(noise_seed, noise_scale, d, t):
    return noise_scale * seeded_rng(noise_seed, STREAM_NOISE_BASE + t).standard_normal(d)


@pytest.mark.parametrize("d", range(1, 13))
def test_centers_match_per_step_streams(d):
    seed, scale = 1000 + d, 0.5 * d
    # [1, 40) starts at the first block; the second range crosses a block edge
    for lo, hi in ((1, 40), (_CENTER_BLOCK - 20, _CENTER_BLOCK + 20)):
        table = _centers(seed, scale, d, lo, hi)
        assert table.shape == (hi - lo, d)
        for t in range(lo, hi):
            assert np.array_equal(table[t - lo], _center_loop(seed, scale, d, t))


def test_memoized_centers_match_per_step_streams():
    p = noisy_quadratic_problem(np.eye(3), noise_seed=5, noise_scale=2.0)
    steps = [1, 2, _CENTER_BLOCK, _CENTER_BLOCK + 1, 7 * _CENTER_BLOCK + 3, 2, 1]
    for t in steps:
        _, grad = evaluate(p, np.zeros(3), t)
        assert np.array_equal(grad, p.data.a @ -_center_loop(5, 2.0, 3, t))


@pytest.mark.parametrize("d,T", [(1, 1), (1, 300), (5, _CENTER_BLOCK + 7), (12, 50)])
def test_center_sum_matches_running_sum(d, T):
    p = random_noisy_quadratic(seed=3, d=d, noise_scale=1.5)
    acc = np.zeros(d)
    for t in range(1, T + 1):
        acc += _center_loop(3, 1.5, d, t)
    assert np.array_equal(_center_sum(p.data, d, T), acc)


def test_noisy_summed_gradient_closed_form():
    p = random_noisy_quadratic(seed=4, d=3)
    w = np.array([0.3, -1.0, 2.0])
    loop = sum(evaluate(p, w, t)[1] for t in range(1, 201))
    assert np.allclose(summed_gradient(p, w, 200), loop, rtol=1e-12, atol=1e-12)


def _minimizer_reference(p, T):
    """Reference: the center sum drawn for w* and again in each residual."""
    w = _center_sum(p.data, p.d, T) / T
    scale = max(1.0, float(np.linalg.norm(summed_gradient(p, np.zeros(p.d), T))))
    assert float(np.linalg.norm(summed_gradient(p, w, T))) <= 1e-10 * scale
    return w


@pytest.mark.parametrize("d,T", [(1, 1), (4, _CENTER_BLOCK + 1), (7, 3000)])
def test_noisy_minimizer_draws_the_center_sum_once(d, T):
    p = random_noisy_quadratic(seed=9 + d, d=d, noise_scale=2.0)
    with mock.patch.object(problems, "_center_sum", wraps=_center_sum) as draws, \
         mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
        w = minimizer_oracle(p, T)
    assert draws.call_count == 1
    assert w.tobytes() == _minimizer_reference(p, T).tobytes()
    # the stationarity check sees summed_gradient's bits at 0 and at w*
    checked = [c.args[0].tobytes() for c in norm.call_args_list]
    assert checked == [summed_gradient(p, np.zeros(d), T).tobytes(),
                       summed_gradient(p, w, T).tobytes()]


# ---------------------------------------------------------------------------
# objective values over t and the regret sum: one array pass against the
# per-step evaluate loop
# ---------------------------------------------------------------------------

OBJECTIVE_T = (1, _CENTER_BLOCK - 1, _CENTER_BLOCK, _CENTER_BLOCK + 1, 9000)


def _objective_problem(kind, d):
    if kind == "quadratic":
        return random_quadratic(seed=30 + d, d=d)
    if kind == "logistic":
        return synthetic_logistic(seed=30 + d, n=40, d=d)
    return random_noisy_quadratic(seed=30 + d, d=d, noise_scale=0.5)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "noisy-quadratic"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17])
def test_objective_values_match_evaluate_loop(kind, d):
    p = _objective_problem(kind, d)
    w = 40.0 * seeded_rng(d).standard_normal(d)  # far from every center
    loop = np.array([evaluate(p, w, t)[0] for t in range(1, max(OBJECTIVE_T) + 1)])
    for T in OBJECTIVE_T:
        assert objective_values(p, w, T).tobytes() == loop[:T].tobytes()


def test_objective_values_check_the_weights():
    p = random_noisy_quadratic(seed=1, d=2)
    with pytest.raises(ValueError, match="length"):
        objective_values(p, np.zeros(3), 5)
    with pytest.raises(NumericInputError):
        objective_values(p, [0.0, math.inf], 5)


def _error_sum_loop(traj, problem, w_star):
    """Reference: a running total over one evaluate call per step."""
    total = 0.0
    for t, e in enumerate(traj.e.tolist(), start=1):
        if math.isnan(e):
            raise ValueError(f"step t={t} carries no objective value")
        total += e - evaluate(problem, w_star, t)[0]
    return total


def _float_bits(x):
    return np.float64(x).tobytes()


def test_error_sum_matches_running_total_on_golden_run(fixtures_dir):
    config = load_run_config(fixtures_dir / "golden_noisy_run.cfg")
    problem = problem_from_spec(config.problem_spec)
    w0 = _initial_weights(config.seed, problem.d)
    traj = adam_run(w0, lambda w, t: evaluate(problem, w, t), config.params, config.T)
    for h in config.t_schedule:
        w_star = minimizer_oracle(problem, h)
        prefix = traj.prefix(h)
        assert _float_bits(error_sum(prefix, problem, w_star)) == _float_bits(
            _error_sum_loop(prefix, problem, w_star))


def test_error_sum_of_negative_zero_excesses_is_positive_zero():
    # e(w*) = +0.0 and e_t = -0.0, so every excess is -0.0; the running
    # total starts at +0.0 and stays there
    p = quadratic_problem(np.eye(1), np.zeros(1))
    z = np.zeros((3, 1))
    traj = Trajectory(HyperParams(), np.zeros((4, 1)), z, z, z, np.full(3, -0.0))
    assert _float_bits(error_sum(traj, p, [0.0])) == _float_bits(_error_sum_loop(traj, p, [0.0]))
    assert _float_bits(error_sum(traj, p, [0.0])) == _float_bits(0.0)


def test_error_sum_names_the_first_missing_step():
    p = quadratic_problem(np.eye(1), np.zeros(1))
    z = np.zeros((5, 1))
    e = np.array([1.0, 2.0, math.nan, 4.0, math.nan])
    traj = Trajectory(HyperParams(), np.zeros((6, 1)), z, z, z, e)
    with pytest.raises(ValueError) as ref:
        _error_sum_loop(traj, p, np.zeros(1))
    with pytest.raises(ValueError, match="step t=3 carries no objective value") as new:
        error_sum(traj, p, [0.0])
    assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# trajectory.csv: each distinct value formatted once, against the row writer
# ---------------------------------------------------------------------------

_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"


def _csv_row_writer(traj, f):
    """Reference: one 8-tuple per (t, i) row, every field formatted."""
    f.write(TRAJECTORY_HEADER + "\n")
    d = traj.d
    for lo in range(0, traj.T, _CSV_STEPS):
        hi = min(lo + _CSV_STEPS, traj.T)
        columns = (
            np.repeat(np.arange(lo + 1, hi + 1), d),
            np.tile(np.arange(1, d + 1), hi - lo),
            traj.w[lo:hi].ravel(),
            traj.g[lo:hi].ravel(),
            np.repeat(traj.e[lo:hi], d),
            traj.m_hat[lo:hi].ravel(),
            traj.v_hat[lo:hi].ravel(),
            traj.w[lo + 1:hi + 1].ravel(),
        )
        rows = zip(*(c.tolist() for c in columns))
        f.write("".join([_ROW % row + "\n" for row in rows]))


SPECIAL_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 1e308, 0.1]


def _special_trajectory(T, d, seed):
    """Random columns with NaN, signed zeros, infinities and subnormals."""
    rng = np.random.default_rng(seed)

    def column(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        every_third = x.reshape(-1)[::3]  # a view: the specials cycle through it
        every_third[:] = np.resize(SPECIAL_FLOATS, every_third.size)
        return x

    return Trajectory(HyperParams(), column(T + 1, d), column(T, d), column(T, d),
                      column(T, d), column(T))


@pytest.mark.parametrize("d", [1, 5, 7])
@pytest.mark.parametrize("T", [1, _CSV_STEPS, _CSV_STEPS + 1])
def test_trajectory_csv_matches_row_writer(T, d):
    traj = _special_trajectory(T, d, seed=T * 10 + d)
    new, ref = io.StringIO(), io.StringIO()
    trajectory_to_csv(traj, new)
    _csv_row_writer(traj, ref)
    assert new.getvalue() == ref.getvalue()
    if T > 1:
        for token in ("nan", ",inf", "-inf", ",-0,", "e-310", "e-324"):
            assert token in new.getvalue()


# ---------------------------------------------------------------------------
# D_2: pruned scan against the full O(n**2) scan
# ---------------------------------------------------------------------------

def _full_scan_l2_diameter(pts, chunk=256):
    """Reference: every pair, sum_k (p_ik - p_jk)**2 added in index order."""
    cols = pts.T.copy()
    best = 0.0
    for lo in range(0, len(pts), chunk):
        # pairs (i, j) with j >= lo: the value is symmetric in i and j
        rows = cols[:, lo:lo + chunk, None]
        sq = np.zeros((rows.shape[1], len(pts) - lo))
        diff = np.empty_like(sq)
        for k in range(len(cols)):
            np.subtract(rows[k], cols[k, None, lo:], out=diff)
            np.multiply(diff, diff, out=diff)
            sq += diff
        best = max(best, float(sq.max()))
    return math.sqrt(best)


def _assert_same_diameter(pts):
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    assert _l2_diameter(pts) == _full_scan_l2_diameter(pts)


KINDS = ["gauss", "sphere", "duplicates", "offset", "outlier", "walk"]


def _cloud(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if kind == "sphere":  # every row can reach the maximum: nothing pruned
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    if kind == "duplicates":
        return x[rng.integers(0, max(1, n // 4), size=n)]
    if kind == "offset":  # far from the origin compared with the spread
        return 1e-3 * x + 10.0 ** rng.uniform(0, 7) * rng.uniform(-1, 1, size=d)
    if kind == "outlier":  # the last row, alone in its group, holds the maximum
        x[-1] = 50.0 * x[-1] / max(np.linalg.norm(x[-1]), 1e-300)
        return x
    if kind == "walk":  # a trajectory: shrinking steps from a far start
        steps = x / np.sqrt(np.arange(1, n + 1))[:, None]
        return np.cumsum(steps, axis=0)
    return x * 10.0 ** rng.uniform(-3, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 600), d=st.integers(1, 12),
       kind=st.sampled_from(KINDS))
def test_pruned_diameter_matches_full_scan(seed, n, d, kind):
    _assert_same_diameter(_cloud(seed, n, d, kind))


@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (2, 1), (257, 1), (257, 5), (257, 12), (513, 3)])
@pytest.mark.parametrize("kind", KINDS)
def test_pruned_diameter_edge_shapes(n, d, kind):
    _assert_same_diameter(_cloud(n * 100 + d, n, d, kind))


@pytest.mark.parametrize("seed,n,d,kind", [
    (1085, 394, 11, "offset"), (2040, 436, 9, "offset"), (2910, 221, 11, "offset"),
    (2482, 479, 11, "walk"),
])
def test_pruned_diameter_pinned_hard_cases(seed, n, d, kind):
    # Clouds that defeat a pruned scan with inexact bounds: the offsets
    # through the Gram formula's rounding, the walk through pairs credited
    # to one of their rows only.
    _assert_same_diameter(_cloud(seed, n, d, kind))


def test_pruned_diameter_identical_points():
    _assert_same_diameter(np.tile([[3.0, -1e8, 0.25]], (300, 1)))


def test_pruned_diameter_long_walk():
    # 20 000 points: the pair pruning, not the full scan, does the work here
    _assert_same_diameter(_cloud(11, 20000, 5, "walk"))


def test_diameter_of_points_far_from_the_origin():
    # |p|^2 + |q|^2 - 2 p.q cancels to 0 here; the differences do not
    assert _l2_diameter(np.array([[1e8, 0.0], [1e8 + 0.5, 0.0]])) == 0.5


def test_pruning_keeps_a_pair_one_rounding_step_above_the_first_bound():
    # the first row's distances reach 1; the pair (-2^-52, 1) is one
    # rounding step above, and its box bound equals it
    pts = np.array([[0.0], [-2.0 ** -52], [1.0]])
    assert _l2_diameter(pts) == math.sqrt(1.0 + 2.0 ** -51) > 1.0
    _assert_same_diameter(pts)


def test_diameter_memory_does_not_grow_with_the_point_count():
    pts = _cloud(11, 100000, 5, "walk")
    tracemalloc.start()
    try:
        _l2_diameter(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


# ---------------------------------------------------------------------------
# fuzz trials: the batched generator against one RandomStream per trial
# ---------------------------------------------------------------------------

def _trial_sequence(seed, k, t_max, d, spikes=None):
    """Reference: trial k drawn from its own stream, one conversion at a
    time, every entry bounded by 1.  Appends the (row, coordinate, value)
    of each spike to `spikes`."""
    rng = seeded_rng(seed, STREAM_FUZZ_BASE + k)
    fam = rng.integers(len(FUZZ_FAMILIES))
    T = 1 + rng.integers(t_max)
    n = T * d
    if fam == 0:
        g = rng.uniform(-1.0, 1.0, size=n).reshape(T, d)
    elif fam == 1:
        g = np.clip(0.5 * rng.standard_normal(n), -1.0, 1.0).reshape(T, d)
    elif fam == 2:
        keep = rng.uniform(0.05, 0.5)
        values = rng.uniform(-1.0, 1.0, size=n)
        mask = rng.uniform(size=n) < keep
        g = (values * mask).reshape(T, d)
    else:
        mag = 10.0 ** rng.uniform(-8.0, -2.0)
        g = rng.uniform(-mag, mag, size=n).reshape(T, d)
        n_spikes = 1 + rng.integers(3)
        for _ in range(n_spikes):
            pos = T // 2 + rng.integers(max(1, T - T // 2))
            coord = rng.integers(d)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            g[min(pos, T - 1), coord] = sign
            if spikes is not None:
                spikes.append((min(pos, T - 1), coord, sign))
    return fam, T, g


def _assert_batch_matches_reference(seed, start, stop, t_max, d):
    order, fam, T, g = _trial_batch(seed, start, stop, t_max, d)
    assert g.shape == (stop - start, t_max, d)
    # rows run longest horizon first, ties in trial order
    assert sorted(order.tolist()) == list(range(stop - start))
    assert [(-Tr, k) for Tr, k in zip(T.tolist(), order.tolist())] == sorted(
        (-Tr, k) for Tr, k in zip(T.tolist(), order.tolist()))
    for r, k in enumerate(order.tolist()):
        f, Tk, gk = _trial_sequence(seed, start + k, t_max, d)
        assert (fam[r], T[r]) == (f, Tk)
        # byte comparison: -0.0 entries of sparse trials must survive
        assert g[r, :Tk].tobytes() == gk.tobytes()
        assert not np.any(g[r, Tk:])


@settings(max_examples=80, deadline=None)
@given(seed=EDGE_U64, start=st.one_of(st.just(0), st.integers(0, 2 ** 40)),
       count=st.integers(1, 24), t_max=st.integers(1, 300), d=st.integers(1, 6),
       words_per_pass=st.sampled_from([4, 37, 1 << 16]))
def test_trial_batch_matches_per_trial_streams(seed, start, count, t_max, d, words_per_pass):
    # small passes split the batch between trials, so every pass boundary
    # and trial order is exercised
    with mock.patch.object(analysis, "_TRIAL_WORDS", words_per_pass):
        _assert_batch_matches_reference(seed, start, start + count, t_max, d)


def test_trial_batch_sweep_covers_families_and_spike_collisions():
    seed, trials, t_max, d = 20260812, 600, 12, 2
    _assert_batch_matches_reference(seed, 0, trials, t_max, d)
    families, three, clash = set(), 0, 0
    for k in range(trials):
        spikes = []
        fam, _, _ = _trial_sequence(seed, k, t_max, d, spikes)
        families.add(fam)
        three += len(spikes) == 3
        cells = {}
        for row, coord, value in spikes:
            clash += cells.get((row, coord), value) != value  # later spike overwrites
            cells[row, coord] = value
    assert families == set(range(len(FUZZ_FAMILIES)))
    assert three > 0 and clash > 0


# ---------------------------------------------------------------------------
# inequality sides: the batch kernel at B = 1 against the single recursion
# ---------------------------------------------------------------------------

def _sides_f64(g, p, rhs_coeff=None):
    """Reference: the moment recursions of one T x d matrix, step by step."""
    T, d = g.shape
    m = np.zeros(d)
    v = np.zeros(d)
    b1_pow = b2_pow = lam_pow = 1.0
    lhs = np.zeros(d)
    sumsq = np.zeros(d)
    for t in range(1, T + 1):
        gt = g[t - 1]
        b1t = p.beta1 * lam_pow
        m = b1t * m + (1.0 - b1t) * gt
        v = p.beta2 * v + (1.0 - p.beta2) * gt * gt
        b1_pow *= p.beta1
        b2_pow *= p.beta2
        m_hat = m / (1.0 - b1_pow)
        v_hat = v / (1.0 - b2_pow)
        denom = np.sqrt(t * v_hat)
        lhs += np.where(v_hat > 0.0, m_hat * m_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
        sumsq += gt * gt
        lam_pow *= p.lam
    coeff = _rhs_coefficient(p) if rhs_coeff is None else rhs_coeff
    return lhs, coeff * np.sqrt(sumsq)


def _edge_gradients(rng, shape):
    """Uniform entries with a scale per column (the last axis): 10**[-8, 0],
    1e-170 (g * g underflows, so v_hat = 0 while g != 0) or subnormal
    (multiples of 5e-324); a fifth of the entries are zeros of either sign."""
    cols = shape[:-2] + (1, shape[-1])
    scale = np.choose(rng.integers(0, 3, size=cols),
                      (10.0 ** rng.uniform(-8, 0, size=cols), 1e-170, 2e-322))
    g = rng.uniform(-1.0, 1.0, size=shape) * scale
    zero = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    return np.where(rng.random(shape) < 0.2, zero, g)


# widths on both sides of the scalar loop's 16 cells, for one sequence (d)
# and for a pair (2 d)
SIDES_WIDTHS = st.one_of(st.integers(1, 5), st.sampled_from([8, 9, 15, 16, 17]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(0, 300), d=SIDES_WIDTHS,
       grid_index=st.integers(0, len(default_fuzz_grid()) - 1),
       rhs_coeff=st.one_of(st.none(), st.floats(1e-3, 1e3)))
def test_single_sides_match_step_recursion(seed, T, d, grid_index, rhs_coeff):
    rng = np.random.default_rng(seed)
    g = _edge_gradients(rng, (T, d))
    g[:, rng.random(d) < 0.3] = 0.0  # zero columns: the 0/0 -> 0 convention
    grid = default_fuzz_grid()
    p = grid[grid_index]
    lhs_ref, rhs_ref = _sides_f64(g, p, rhs_coeff)
    lhs, rhs = _sides(g, p, rhs_coeff)
    assert lhs.tobytes() == lhs_ref.tobytes()
    assert rhs.tobytes() == rhs_ref.tobytes()
    # in a batch with another parameter set and a shorter, zero-padded
    # trial, the coefficients are columns and the short trial stops at T2
    other = grid[(grid_index + 1) % len(grid)]
    T2 = seed % (T + 1)
    short = np.zeros_like(g)
    short[:T2] = g[:T2]
    lhs2, rhs2 = _batch_sides(np.stack([g, short]), np.array([T, T2]), [p, other], rhs_coeff)
    assert lhs2[0].tobytes() == lhs_ref.tobytes()
    assert rhs2[0].tobytes() == rhs_ref.tobytes()
    lhs_short, rhs_short = _sides_f64(g[:T2], other, rhs_coeff)
    assert lhs2[1].tobytes() == lhs_short.tobytes()
    # squares are summed in t order, so the zero padding adds exact zeros
    assert rhs2[1].tobytes() == rhs_short.tobytes()


def test_single_sides_of_empty_sequence():
    lhs, rhs = _sides(np.zeros((0, 3)), HyperParams())
    assert lhs.tolist() == rhs.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# inequality sides: the batch kernel's live prefix against the masked loop
# ---------------------------------------------------------------------------

def _masked_batch_sides(g, t_arr, params, coeffs):
    """Reference: every row of a zero-padded (B, t_max, d) batch stepped to
    t_max, with the ratio sum masked to t <= T; coeffs[b] is row b's rhs
    coefficient, None for the canonical one."""
    b, t_max, d = g.shape
    beta1, beta2, lam = (np.array([getattr(p, k) for p in params])[:, None]
                         for k in ("beta1", "beta2", "lam"))
    coeff = np.array([_rhs_coefficient(p) if c is None else c for p, c in zip(params, coeffs)])
    m, v, lhs, sumsq = (np.zeros((b, d)) for _ in range(4))
    pows = (1.0, 1.0, 1.0)
    for t in range(1, t_max + 1):
        gt = g[:, t - 1, :]
        m, v, m_hat, v_hat, pows = moment_step(m, v, gt, pows, beta1, beta2, lam)
        sumsq += gt * gt
        denom = np.sqrt(t * v_hat)
        live = denom > 0.0
        term = np.where(live, m_hat * m_hat / np.where(live, denom, 1.0), 0.0)
        lhs += np.where((t_arr >= t)[:, None], term, 0.0)
    return lhs, coeff[:, None] * np.sqrt(sumsq)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.one_of(st.tuples(st.integers(1, 7), st.integers(1, 3)),
                       st.sampled_from([(15, 1), (5, 3), (16, 1), (8, 2), (4, 4), (17, 1),
                                        (1, 17)])),
       t_max=st.integers(1, 40), rows=st.sampled_from(["one", "repeated", "distinct"]),
       per_row_coeff=st.booleans())
def test_batch_sides_live_prefix_matches_masked_loop(seed, shape, t_max, rows, per_row_coeff):
    b, d = shape  # b * d cells: 15, 16 and 17 lie on both sides of the scalar loop's rule
    rng = np.random.default_rng(seed)
    grid = default_fuzz_grid()
    # horizons 0, 1 and t_max, mixed with any others
    T = np.where(rng.random(b) < 0.5, rng.choice([0, 1, t_max], b), rng.integers(0, t_max + 1, b))
    g = _edge_gradients(rng, (b, t_max, d))
    g[rng.random(b) < 0.25] = 0.0  # all-zero rows
    g[np.arange(t_max) >= T[:, None]] = 0.0
    index = {"one": np.full(b, 4), "repeated": rng.integers(0, 2, b),
             "distinct": np.arange(b) % len(grid)}[rows]
    coeffs = [None] * b
    if per_row_coeff:
        coeffs = [None if rng.random() < 0.3 else float(rng.uniform(1e-3, 1e3)) for _ in range(b)]
    params = [grid[i] for i in index]
    # the layout of _trial_batch, longest horizon first, then any order
    order = np.argsort(-T, kind="stable")
    for perm in (order, np.arange(b)):
        lhs_ref, rhs_ref = _masked_batch_sides(g[perm], T[perm], [params[k] for k in perm],
                                               [coeffs[k] for k in perm])
        lhs, rhs = _batch_sides(g[perm], T[perm], grid, [coeffs[k] for k in perm],
                                grid_index=index[perm])
        assert lhs.tobytes() == lhs_ref.tobytes()
        assert rhs.tobytes() == rhs_ref.tobytes()


@pytest.mark.parametrize("p", default_fuzz_grid(), ids=lambda p: f"{p.beta1},{p.beta2},{p.lam}")
def test_recorded_run_moments_give_fuzzer_lhs(p):
    # adam_step and the fuzzer run one moment recursion, so the ratio sum
    # over a run's recorded m_hat and v_hat columns is the fuzzer's lhs
    T, d = 300, 3
    g = RandomStream(7).uniform(-1.0, 1.0, size=T * d).reshape(T, d)
    g[:20, 1] = 0.0  # leading zeros: the 0/0 -> 0 convention
    g[::3, 2] = 0.0
    traj = adam_run(np.zeros(d), lambda w, t: (0.0, g[t - 1]), p, T)
    assert np.array_equal(traj.g, g)
    lhs = np.zeros(d)
    for t in range(1, T + 1):
        m_hat, v_hat = traj.m_hat[t - 1], traj.v_hat[t - 1]
        denom = np.sqrt(t * v_hat)
        lhs += np.where(denom > 0.0, m_hat * m_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
    assert lhs.tobytes() == _sides(g, p)[0].tobytes()
