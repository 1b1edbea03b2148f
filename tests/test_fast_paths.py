"""Each vectorized path is bitwise equal to the reference path it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adamcheck.analysis import _l2_diameter
from adamcheck.core import STREAM_NOISE_BASE, RandomStream, box_muller, philox_raw, seeded_rng
from adamcheck.problems import (
    _CENTER_BLOCK,
    _center_sum,
    _centers,
    evaluate,
    noisy_quadratic_problem,
    random_noisy_quadratic,
    summed_gradient,
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


def test_philox_raw_rejects_out_of_range_seed():
    with pytest.raises(ValueError, match="64 bits"):
        philox_raw(-1, [0], 4)
    with pytest.raises(ValueError, match="64 bits"):
        philox_raw(2 ** 64, [0], 4)


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


# ---------------------------------------------------------------------------
# D_2: pruned scan against the full O(n**2) scan
# ---------------------------------------------------------------------------

def _full_scan_l2_diameter(pts, chunk=256):
    sq = np.einsum("ij,ij->i", pts, pts)
    best = 0.0
    for lo in range(0, len(pts), chunk):
        hi = min(lo + chunk, len(pts))
        block = sq[lo:hi, None] + sq[None, :] - 2.0 * (pts[lo:hi] @ pts.T)
        best = max(best, float(block.max()))
    return math.sqrt(max(best, 0.0))


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
    if kind == "offset":  # the Gram formula cancels to a few bits, or to none
        return 1e-3 * x + 10.0 ** rng.uniform(0, 7) * rng.uniform(-1, 1, size=d)
    if kind == "outlier":  # the last row, alone in its chunk, holds the maximum
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
    # Clouds on which the scan goes wrong without its rounding margins (the
    # offsets) or without crediting a pair to both of its rows (the walk).
    _assert_same_diameter(_cloud(seed, n, d, kind))


def test_pruned_diameter_identical_points():
    _assert_same_diameter(np.tile([[3.0, -1e8, 0.25]], (300, 1)))


def test_pruned_diameter_long_walk():
    # 20 000 points: the pair pruning, not the full scan, does the work here
    _assert_same_diameter(_cloud(11, 20000, 5, "walk"))
