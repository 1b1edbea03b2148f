import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from adamcheck import analysis

from adamcheck.core import (
    GradSequence,
    HyperParams,
    Trajectory,
    seeded_rng,
)
from adamcheck.optimizers import adam_run, moment_step
from adamcheck.problems import quadratic_problem, evaluate
from adamcheck.analysis import (
    BoundReport,
    FuzzCandidate,
    InsufficientDataError,
    _batch_sides,
    _rhs_coefficient,
    _sides,
    _slack_enclosure,
    _trial_batch,
    average_regret_series,
    conjecture_fuzz,
    conjecture_sides,
    conjecture_sides_exact,
    default_fuzz_grid,
    default_param_grid,
    error_sum,
    fuzz_summary_text,
    geometric_sum_bound_check,
    geometric_sum_closed_form,
    load_counterexample,
    replay_counterexample,
    theorem_bound,
    vhat_bound_check,
    write_counterexample,
    CounterexampleRecord,
)


def constant_w_trajectory(w_value, e_value, T, params=None):
    z = np.zeros((T, 1))
    return Trajectory(
        params=params or HyperParams(), w=np.full((T + 1, 1), w_value),
        g=z, m_hat=z, v_hat=z, e=np.full(T, e_value),
    )


# ---------------------------------------------------------------------------
# error sum
# ---------------------------------------------------------------------------

def test_error_sum_zero_when_at_minimizer():
    p = quadratic_problem(np.eye(1), np.zeros(1))
    traj = constant_w_trajectory(0.0, 0.0, 5)
    assert error_sum(traj, p, [0.0]) == 0.0


def test_error_sum_hand_value():
    # constant w_t = 1 on e(w) = 0.5 w^2, w* = 0: R = 3 * 0.5
    p = quadratic_problem(np.eye(1), np.zeros(1))
    traj = constant_w_trajectory(1.0, 0.5, 3)
    assert error_sum(traj, p, [0.0]) == pytest.approx(1.5, rel=1e-15)


def test_error_sum_requires_objective_values():
    p = quadratic_problem(np.eye(1), np.zeros(1))
    traj = constant_w_trajectory(1.0, math.nan, 2)
    with pytest.raises(ValueError, match="objective"):
        error_sum(traj, p, [0.0])


# ---------------------------------------------------------------------------
# bound evaluation
# ---------------------------------------------------------------------------

def test_theorem_bound_pinned_single_step():
    # quadratic e(w) = 0.5 w^2, w0 = 1, so g1 = 1 and w1 = 0 under eta = 1,
    # eps = 0; every field below frozen from a 250-bit re-computation
    problem = quadratic_problem(np.eye(1), np.zeros(1))
    p = HyperParams(eta=1.0, beta1=0.9, beta2=0.999, lam=0.999, epsilon=0.0)
    traj = adam_run([1.0], lambda w, t: evaluate(problem, w, t), p, 1)
    assert traj.w[1, 0] == pytest.approx(0.0, abs=1e-15)
    report = theorem_bound(traj, [0.0], problem)
    assert report.regret == pytest.approx(0.5, rel=1e-12)
    assert report.D_inf == pytest.approx(1.0, rel=1e-12)
    assert report.D_2 == pytest.approx(1.0, rel=1e-12)
    assert report.G_inf == pytest.approx(1.0, rel=1e-12)
    assert report.G_2 == pytest.approx(1.0, rel=1e-12)
    assert report.term1 == pytest.approx(5.0, rel=1e-12)
    assert report.term2 == pytest.approx(5000000.0, rel=1e-12)
    assert report.term3 == pytest.approx(3169.0377849103852, rel=1e-12)
    assert report.bound == pytest.approx(5003174.0377849108, rel=1e-12)
    assert report.slack == pytest.approx(5003173.5377849108, rel=1e-12)
    assert report.bound == report.term1 + report.term2 + report.term3


def test_theorem_bound_zero_gradient_run():
    problem = quadratic_problem(np.eye(2), np.zeros(2))
    p = HyperParams(eta=0.5)
    traj = adam_run(np.zeros(2), lambda w, t: evaluate(problem, w, t), p, 10)
    report = theorem_bound(traj, np.zeros(2), problem)
    assert report.regret == 0.0
    assert report.term1 == 0.0
    assert report.G_inf == 0.0
    assert report.slack == report.term2 == 0.0
    assert report.slack >= 0.0


def test_theorem_bound_rejects_empty_trajectory():
    problem = quadratic_problem(np.eye(1), np.zeros(1))
    with pytest.raises(ValueError, match="empty"):
        theorem_bound(constant_w_trajectory(0.0, 0.0, 0), [0.0], problem)


# ---------------------------------------------------------------------------
# moment-ratio inequality sides
# ---------------------------------------------------------------------------

def test_sides_single_step():
    # T=1: m_hat = g and v_hat = g**2 exactly regardless of lam, so the
    # left side is |g| and the slack exceeds |g| (the coefficient is > 2)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    for c in (3.7, -0.2):
        report = conjecture_sides(GradSequence(d=1, g=[[c]], g_inf_cap=4.0), p)
        assert report.lhs[0] == pytest.approx(abs(c), rel=1e-12)
        assert report.rhs[0] == pytest.approx(_rhs_coefficient(p) * abs(c), rel=1e-12)
        assert report.rhs[0] > 2 * abs(c)
        assert report.min_slack > abs(c)
        assert not report.violated


def test_sides_all_zero_sequence():
    p = HyperParams()
    report = conjecture_sides(GradSequence(d=2, g=np.zeros((6, 2)), g_inf_cap=1.0), p)
    assert np.array_equal(report.lhs, [0.0, 0.0])
    assert np.array_equal(report.rhs, [0.0, 0.0])
    assert report.min_slack == 0.0
    assert not report.violated


def test_sides_alternating_pinned():
    # g = +1, -1, +1, ... for T = 64; frozen from the 250-bit evaluation
    g = np.array([1.0 if t % 2 == 0 else -1.0 for t in range(64)]).reshape(-1, 1)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    report = conjecture_sides(GradSequence(d=1, g=g, g_inf_cap=1.0), p)
    assert report.lhs[0] == pytest.approx(1.1634361992862992, rel=1e-12)
    assert report.rhs[0] == pytest.approx(2668.6633978192717, rel=1e-12)
    assert report.min_slack == pytest.approx(2667.4999616199852, rel=1e-12)


def test_sides_scale_homogeneity():
    rng = seeded_rng(17)
    g = rng.uniform(-1.0, 1.0, size=40).reshape(20, 2)
    p = HyperParams(beta1=0.8, beta2=0.99, lam=0.95)
    base = conjecture_sides(GradSequence(d=2, g=g, g_inf_cap=1.0), p)
    c = 3.25
    scaled = conjecture_sides(GradSequence(d=2, g=c * g, g_inf_cap=c), p)
    assert scaled.lhs == pytest.approx(c * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(c * base.rhs, rel=1e-12)


def test_exact_sides_agree_with_double():
    rng = seeded_rng(23)
    g = rng.uniform(-1.0, 1.0, size=30).reshape(30, 1)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.9)
    seq = GradSequence(d=1, g=g, g_inf_cap=1.0)
    report = conjecture_sides(seq, p)
    _, _, exact_slack = conjecture_sides_exact(seq, p)
    assert exact_slack == pytest.approx(report.min_slack, rel=1e-9)


def test_batch_engine_matches_reference_sides():
    rng = seeded_rng(31)
    grid = default_fuzz_grid()
    t_max, d, count = 48, 2, 16
    g = np.zeros((count, t_max, d))
    t_arr = np.empty(count, dtype=np.int64)
    params = []
    for j in range(count):
        T = 1 + int(rng.uniform() * t_max)
        t_arr[j] = T
        g[j, :T, :] = rng.uniform(-1.0, 1.0, size=T * d).reshape(T, d)
        params.append(grid[j % len(grid)])
    lhs_batch, rhs_batch = _batch_sides(g, t_arr, params)
    for j in range(count):
        seq = GradSequence(d=d, g=g[j, : t_arr[j], :], g_inf_cap=1.0)
        lhs_x, rhs_x, _ = conjecture_sides_exact(seq, params[j])
        assert lhs_batch[j] == pytest.approx([float(v) for v in lhs_x], rel=1e-12, abs=1e-300)
        assert rhs_batch[j] == pytest.approx([float(v) for v in rhs_x], rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# interval enclosure of the min slack
# ---------------------------------------------------------------------------

def _iv_min_slack(g, p, rhs_coeff):
    """Independent enclosure: `moment_step` on mpmath.iv intervals."""
    T, d = g.shape
    b1, b2, lam = iv.mpf(p.beta1), iv.mpf(p.beta2), iv.mpf(p.lam)
    if rhs_coeff is None:
        coeff = 2 / ((1 - b1 * b1 / iv.sqrt(b2)) * iv.sqrt(1 - b2))
    else:
        coeff = iv.mpf(rhs_coeff)
    slacks = []
    for i in range(d):
        m = v = lhs = sumsq = iv.mpf(0)
        pows = (iv.mpf(1), iv.mpf(1), iv.mpf(1))
        seen = False
        for t in range(1, T + 1):
            gt = iv.mpf(float(g[t - 1, i]))
            m, v, m_hat, v_hat, pows = moment_step(m, v, gt, pows, b1, b2, lam)
            sumsq += gt * gt
            seen = seen or g[t - 1, i] != 0.0
            if seen:
                lhs += m_hat * m_hat / iv.sqrt(t * v_hat)
        slacks.append(coeff * iv.sqrt(sumsq) - lhs)
    return min(s.a for s in slacks), min(s.b for s in slacks)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 64), d=st.integers(1, 3),
       grid_index=st.integers(0, len(default_fuzz_grid()) - 1),
       shift=st.one_of(st.none(), st.floats(-1e-6, 1e-6), st.floats(-0.5, 0.0)))
def test_enclosure_contains_exact_and_interval_reference(seed, T, d, grid_index, shift):
    # shift None: the canonical coefficient; else the tightest coefficient
    # of the sequence, shrunken or grown by the relative shift
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, size=(T, d)) * 10.0 ** rng.uniform(-8, 0, size=d)
    g[:, rng.random(d) < 0.3] = 0.0
    g[rng.random((T, d)) < 0.2] = 0.0
    p = default_fuzz_grid()[grid_index]
    coeff = None
    if shift is not None:
        lhs, _ = _sides(g, p, rhs_coeff=1.0)
        norms = np.sqrt(np.sum(g * g, axis=0))
        tight = np.max(np.where(norms > 0, lhs / np.where(norms > 0, norms, 1.0), 0.0))
        coeff = float(tight) * (1.0 + shift) if tight > 0 else 1.0
    lo, hi = _slack_enclosure(g[None], np.array([T]), [p], [coeff])
    lo, hi = float(lo[0]), float(hi[0])
    exact = conjecture_sides_exact(GradSequence(d=d, g=g, g_inf_cap=1.0), p, rhs_coeff=coeff)[2]
    assert lo <= exact <= hi
    iv_lo, iv_hi = _iv_min_slack(g, p, coeff)
    assert max(iv_lo, lo) <= min(iv_hi, hi)
    # the batched array path gives the scalar path's bits, next to a
    # shorter trial with other parameters
    other = default_fuzz_grid()[(grid_index + 1) % len(default_fuzz_grid())]
    T2 = 1 + seed % T
    short = np.zeros_like(g)
    short[:T2] = g[:T2]
    lo2, hi2 = _slack_enclosure(np.stack([g, short]), np.array([T, T2]), [p, other], [coeff, None])
    assert (lo2[0], hi2[0]) == (lo, hi)
    assert (lo2[1], hi2[1]) == tuple(
        float(x[0]) for x in _slack_enclosure(g[None, :T2], np.array([T2]), [other], [None]))


def boundary_candidate(label, seed, T, factor, d=1):
    """Uniform candidate whose coefficient is factor * lhs/||g|| of the
    coordinate where that ratio is largest."""
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    g = seeded_rng(seed).uniform(-1.0, 1.0, size=T * d).reshape(T, d)
    seq = GradSequence(d=d, g=g, g_inf_cap=1.0)
    lhs = conjecture_sides(seq, p).lhs
    coeff = max(float(l) / float(np.linalg.norm(col)) for l, col in zip(lhs, g.T)) * factor
    return FuzzCandidate(label=label, params=p, seq=seq, rhs_coeff=coeff)


def test_straddling_enclosure_defers_to_exact_pass(tmp_path):
    # a coefficient of lhs/||g|| in float64 puts the real slack within
    # rounding of 0: only that row may call the 200-bit pass, and it takes
    # that call's verdict; the proven rows call it zero times
    cands = [boundary_candidate("confirmed", 71, 24, 0.5),
             boundary_candidate("cleared", 79, 16, 1.0 + 5e-7),
             boundary_candidate("straddle", 83, 40, 1.0)]
    straddle = cands[2]
    p = straddle.params
    lo, hi = _slack_enclosure(straddle.seq.g[None], np.array([40]), [p], [straddle.rhs_coeff])
    assert lo[0] < 0.0 <= hi[0]

    exact = conjecture_sides_exact(straddle.seq, p, rhs_coeff=straddle.rhs_coeff)[2]
    with mock.patch.object(analysis, "conjecture_sides_exact",
                           wraps=conjecture_sides_exact) as spy:
        summary = conjecture_fuzz(0, 40, 1, default_fuzz_grid(), seed=3, out_dir=tmp_path,
                                  injected=cands)
    assert [call.args[0] for call in spy.call_args_list] == [straddle.seq]
    by_label = {nm.label: nm for nm in summary.near_misses}
    assert list(by_label) == ["confirmed", "cleared", "straddle"]
    assert by_label["confirmed"].outcome == "confirmed"
    assert by_label["confirmed"].exact_min_slack == by_label["confirmed"].enclosure[1] < 0
    assert by_label["cleared"].outcome == "cleared"
    assert by_label["cleared"].exact_min_slack == by_label["cleared"].enclosure[0] >= 0
    nm = by_label["straddle"]
    assert nm.exact_min_slack == exact
    assert nm.outcome == ("confirmed" if exact < 0 else "cleared")
    assert nm.enclosure == (lo[0], hi[0])


def test_undecided_enclosure_defers_to_exact_pass():
    # 1e-170 squared underflows to 0, so the enclosure of t * v_hat holds
    # 0 and the division decides nothing (NaN); the 200-bit pass decides
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    g = np.array([[0.5, 1e-170]] * 4)
    seq = GradSequence(d=2, g=g, g_inf_cap=1.0)
    lo, hi = _slack_enclosure(np.stack([g, g]), np.array([4, 4]), [p, p], [None, None])
    assert np.isnan(lo).all() and np.isnan(hi).all()
    lo, hi = _slack_enclosure(g[None], np.array([4]), [p], [None])
    assert np.isnan(lo[0]) and np.isnan(hi[0])
    exact = conjecture_sides_exact(seq, p)[2]
    with mock.patch.object(analysis, "conjecture_sides_exact",
                           wraps=conjecture_sides_exact) as spy:
        assert analysis._decided_slack(lo[0], hi[0], seq, p, None) == exact > 0
    assert spy.call_count == 1


def test_library_proves_first_power_law_violation():
    # g_t = t**-0.5 first violates the inequality at T = 25 896 on
    # (0.3, 0.5, 0.9); the enclosure proves it without the 200-bit pass
    p = HyperParams(eta=0.001, beta1=0.3, beta2=0.5, lam=0.9, epsilon=1e-8)
    T = 25_896
    g = (np.arange(1, T + 1, dtype=np.float64) ** -0.5).reshape(T, 1)
    seq = GradSequence(d=1, g=g, g_inf_cap=1.0)
    with mock.patch.object(analysis, "conjecture_sides_exact", side_effect=AssertionError):
        assert conjecture_sides(seq, p).violated
        assert not conjecture_sides(GradSequence(d=1, g=g[:-1], g_inf_cap=1.0), p).violated
    lo, hi = _slack_enclosure(g[None], np.array([T]), [p], [None])
    assert hi[0] < 0
    assert lo[0] <= conjecture_sides_exact(seq, p)[2] <= hi[0]


def test_sides_take_the_fuzzer_verdict_on_a_near_tie():
    # the double slack is exactly 0 and the enclosure straddles 0, so only
    # the 200-bit pass decides (slack -1.65e-14); conjecture_sides screens
    # and decides as conjecture_fuzz does, and the two agree
    p = HyperParams(eta=0.001, beta1=0.3, beta2=0.5, lam=0.9, epsilon=1e-8)
    T = 25_896
    g = 0.75 / np.sqrt(np.arange(1, T + 1, dtype=np.float64))
    g[-1] = float.fromhex("0x1.1d758998f508cp-8")
    seq = GradSequence(d=1, g=g, g_inf_cap=1.0)
    report = conjecture_sides(seq, p)
    assert report.min_slack == 0.0
    summary = conjecture_fuzz(0, 1, 1, [p], 0, injected=[FuzzCandidate("tie", p, seq)])
    [record] = summary.near_misses
    assert record.enclosure[0] < 0.0 < record.enclosure[1]
    assert record.exact_min_slack == pytest.approx(-1.6460953164754094e-14, rel=1e-9)
    assert report.violated is True
    assert report.violated == (record.outcome == "confirmed")


# ---------------------------------------------------------------------------
# auxiliary chains
# ---------------------------------------------------------------------------

def test_geometric_sum_closed_form_hand_case():
    # 0 + 0.5*1 + 0.25*2 = 1.0
    assert geometric_sum_closed_form(0.5, 3) == pytest.approx(1.0, rel=1e-14)
    assert geometric_sum_closed_form(0.3, 1) == pytest.approx(0.0, abs=1e-15)


def test_geometric_sum_closed_form_vs_brute_force():
    rng = seeded_rng(41)
    for _ in range(200):
        lam = rng.uniform(0.01, 0.99)
        T = 1 + int(rng.uniform() * 500)
        direct = float(sum(lam ** t * t for t in range(T)))
        closed = geometric_sum_closed_form(lam, T)
        assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_geometric_sum_bound_hand_case():
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.5)
    lhs, rhs = geometric_sum_bound_check(p, 3)
    assert lhs == pytest.approx(10.659937284021737, rel=1e-12)
    assert rhs == pytest.approx(40.0, rel=1e-15)
    assert lhs <= rhs


def test_geometric_sum_bound_single_term():
    p = HyperParams(beta1=0.7, beta2=0.9, lam=0.5)
    lhs, rhs = geometric_sum_bound_check(p, 1)
    assert lhs == pytest.approx(0.7 / 0.3, rel=1e-14)
    assert lhs <= rhs


def test_vhat_bound_equality_at_constant_gradient():
    g_inf = 2.5

    def oracle(w, t):
        return 0.0, np.full(1, g_inf)

    p = HyperParams(beta1=0.9, beta2=0.99, lam=0.9)
    traj = adam_run([0.0], oracle, p, 30)
    # constant gradient telescopes: v_hat = g**2 at every t
    for v_hat in traj.v_hat[:, 0]:
        assert math.sqrt(v_hat) == pytest.approx(g_inf, rel=1e-12)
    assert vhat_bound_check(traj, g_inf)


def test_vhat_bound_zero_gradients():
    traj = adam_run([1.0], lambda w, t: (0.0, np.zeros(1)), HyperParams(), 5)
    assert vhat_bound_check(traj, 2.0)


def test_vhat_bound_precondition_violation_names_offender():
    def oracle(w, t):
        return 0.0, np.array([1.0, 5.0 if t == 3 else 1.0])

    traj = adam_run([0.0, 0.0], oracle, HyperParams(), 5)
    with pytest.raises(ValueError, match=r"t=3, i=2"):
        vhat_bound_check(traj, 2.0)


def test_vhat_bound_on_random_trajectories():
    rng = seeded_rng(53)
    for trial in range(50):
        T = 1 + int(rng.uniform() * 40)
        g_all = rng.uniform(-3.0, 3.0, size=T * 2).reshape(T, 2)
        gs = iter(g_all)
        p = HyperParams(beta1=0.8, beta2=0.95, lam=0.99)
        traj = adam_run(np.zeros(2), lambda w, t: (0.0, next(gs)), p, T)
        assert vhat_bound_check(traj, float(np.max(np.abs(g_all))))


# ---------------------------------------------------------------------------
# average regret series
# ---------------------------------------------------------------------------

def synthetic_report(T, bound, regret=1.0):
    return BoundReport(
        T=T, d=1, regret=regret, D_inf=1, D_2=1, G_inf=1, G_2=1,
        term1=bound, term2=0.0, term3=0.0, bound=bound, slack=bound - regret,
    )


def test_average_regret_series_recovers_sqrt_slope():
    reports = [synthetic_report(T, math.sqrt(T)) for T in (100, 316, 1000, 3162, 10000)]
    rows, slope = average_regret_series(reports)
    assert len(rows) == 5
    assert slope == pytest.approx(-0.5, abs=1e-6)


def test_average_regret_series_fits_largest_decade_only():
    # junk growth below T = 1000 must not disturb the decade fit
    reports = [
        synthetic_report(100, 100.0 ** 2),
        synthetic_report(316, 316.0 ** 2),
        synthetic_report(1000, math.sqrt(1000)),
        synthetic_report(3162, math.sqrt(3162)),
        synthetic_report(10000, math.sqrt(10000)),
    ]
    _, slope = average_regret_series(reports)
    assert slope == pytest.approx(-0.5, abs=1e-6)


def test_average_regret_series_requires_three_reports():
    reports = [synthetic_report(10, 1.0)]
    with pytest.raises(InsufficientDataError):
        average_regret_series(reports)


def test_average_regret_series_requires_increasing_T():
    reports = [synthetic_report(T, 1.0) for T in (10, 10, 20)]
    with pytest.raises(ValueError, match="increasing"):
        average_regret_series(reports)


# ---------------------------------------------------------------------------
# counterexample records
# ---------------------------------------------------------------------------

def make_record(label="unit", rhs_coeff=None):
    rng = seeded_rng(61)
    g = rng.uniform(-1.0, 1.0, size=12).reshape(6, 2)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.99)
    coeff = _rhs_coefficient(p) if rhs_coeff is None else rhs_coeff
    lhs, rhs = _sides(g, p, rhs_coeff=coeff)
    lo, hi = _slack_enclosure(g[None], np.array([6]), [p], [coeff])
    return CounterexampleRecord(
        label=label, params=p, T=6, d=2, g=g, g_inf_cap=1.0, rhs_coeff=coeff,
        lhs=lhs, rhs=rhs, min_slack=float(np.min(rhs - lhs)),
        exact_min_slack=float(lo[0]), enclosure=(float(lo[0]), float(hi[0])),
    )


def test_counterexample_round_trip(tmp_path):
    rec = make_record()
    path = tmp_path / "ce.txt"
    write_counterexample(path, rec)
    back = load_counterexample(path)
    assert (back.outcome, back.path) == ("confirmed", str(path))
    assert back.label == rec.label
    assert back.params == rec.params
    assert np.array_equal(back.g, rec.g)
    assert np.array_equal(back.lhs, rec.lhs)
    assert back.min_slack == rec.min_slack
    assert back.enclosure == rec.enclosure


def test_load_counterexample_names_missing_key(tmp_path):
    path = tmp_path / "ce.txt"
    write_counterexample(path, make_record())
    text = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in text if not ln.startswith("rhs_coeff")) + "\n")
    with pytest.raises(ValueError, match="missing key 'rhs_coeff'"):
        load_counterexample(path)


@pytest.mark.parametrize("key,value,match", [
    ("g1", "nan,0.5", "finite"),
    ("g3", "0.25,7.5", "exceeds declared cap"),
    ("g2", "0.25", "g2 has 1 entries, d = 2"),
    ("lhs", "0.5,0.25,1.0", "lhs has 3 entries, d = 2"),
    ("rhs", "2.0", "rhs has 1 entries, d = 2"),
    ("rhs_coeff", "0", "rhs_coeff must be finite and positive"),
    ("rhs_coeff", "nan", "rhs_coeff must be finite and positive"),
])
def test_load_counterexample_rejects_corrupted_records(tmp_path, key, value, match):
    # each corruption used to replay silently, to a slack that proves nothing
    path = tmp_path / "ce.txt"
    write_counterexample(path, make_record())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(f"{key} = {value}" if ln.split(" = ")[0] == key else ln
                              for ln in lines) + "\n")
    with pytest.raises(ValueError, match=match) as err:
        replay_counterexample(path)
    assert str(err.value).startswith(str(path)) and "\n" not in str(err.value)


def test_replay_counterexample_reproduces_slack(tmp_path):
    rec = make_record()
    path = tmp_path / "ce.txt"
    write_counterexample(path, rec)
    loaded, recomputed = replay_counterexample(path)
    assert recomputed == pytest.approx(loaded.min_slack, rel=1e-12)


# ---------------------------------------------------------------------------
# fuzz engine
# ---------------------------------------------------------------------------

def test_fuzz_zero_trials_sentinel():
    summary = conjecture_fuzz(0, 16, 1, default_fuzz_grid(), seed=1)
    assert summary.min_slack == math.inf
    assert summary.argmin_label is None
    assert not summary.violation_found


def test_fuzz_seed_determinism():
    a = conjecture_fuzz(500, 32, 1, default_fuzz_grid(), seed=99)
    b = conjecture_fuzz(500, 32, 1, default_fuzz_grid(), seed=99)
    assert a.min_slack == b.min_slack
    assert a.min_rel_slack == b.min_rel_slack
    assert a.argmin_label == b.argmin_label
    assert a.family_counts == b.family_counts
    assert [(n.label, n.outcome) for n in a.near_misses] == [
        (n.label, n.outcome) for n in b.near_misses
    ]
    c = conjecture_fuzz(500, 32, 1, default_fuzz_grid(), seed=100)
    assert c.min_slack != a.min_slack or c.argmin_label != a.argmin_label


def test_fuzz_argmin_sequence_replays():
    summary = conjecture_fuzz(300, 32, 1, default_fuzz_grid(), seed=5)
    assert summary.argmin_seq is not None
    report = conjecture_sides(summary.argmin_seq, summary.argmin_params)
    assert report.min_slack == pytest.approx(summary.min_slack, rel=1e-12, abs=1e-15)


def test_fuzz_rejects_empty_grid():
    with pytest.raises(ValueError):
        conjecture_fuzz(1, 8, 1, [], seed=1)


def test_fuzz_injected_synthetic_violation_is_detected(tmp_path):
    # shrinking the right-side coefficient makes a genuinely recomputable
    # "violation": the machinery must screen, escalate, confirm, serialize
    rng = seeded_rng(71)
    g = rng.uniform(-1.0, 1.0, size=24).reshape(24, 1)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    seq = GradSequence(d=1, g=g, g_inf_cap=1.0)
    lhs = conjecture_sides(seq, p).lhs
    tiny_coeff = float(lhs[0]) / float(np.linalg.norm(g)) * 0.5
    cand = FuzzCandidate(label="synthetic", params=p, seq=seq, rhs_coeff=tiny_coeff)

    summary = conjecture_fuzz(
        0, 24, 1, default_fuzz_grid(), seed=3, out_dir=tmp_path, injected=[cand]
    )
    assert summary.violation_found
    assert summary.near_misses[0].outcome == "confirmed"
    assert summary.near_misses[0].exact_min_slack < 0

    violation = summary.violations[0]
    assert violation.path is not None
    loaded, recomputed = replay_counterexample(violation.path)
    assert loaded.min_slack < 0
    assert recomputed == pytest.approx(loaded.min_slack, rel=1e-12)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_fuzz_candidate_rejects_nonpositive_or_nonfinite_coeff(coeff):
    # it stands in for 2/((1-gamma) sqrt(1-beta2)) > 0: NaN or inf dropped
    # the candidate from near_misses, 0 or -1 "confirmed" it
    seq = GradSequence(d=1, g=seeded_rng(73).uniform(-1.0, 1.0, size=24), g_inf_cap=1.0)
    with pytest.raises(ValueError, match="rhs_coeff must be finite and positive") as err:
        FuzzCandidate(label="bad", params=HyperParams(), seq=seq, rhs_coeff=coeff)
    assert "\n" not in str(err.value)


def test_fuzz_injected_honest_candidate_is_not_flagged(tmp_path):
    rng = seeded_rng(73)
    g = rng.uniform(-1.0, 1.0, size=24).reshape(24, 1)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    cand = FuzzCandidate(
        label="honest", params=p, seq=GradSequence(d=1, g=g, g_inf_cap=1.0)
    )
    summary = conjecture_fuzz(
        0, 24, 1, default_fuzz_grid(), seed=3, out_dir=tmp_path, injected=[cand]
    )
    assert not summary.violation_found
    assert summary.near_misses == []


def test_fuzz_near_miss_is_escalated_and_cleared(tmp_path):
    # choose the coefficient so the slack is positive but under the screen
    # threshold: the escalation must run and clear it
    rng = seeded_rng(79)
    g = rng.uniform(-1.0, 1.0, size=16).reshape(16, 1)
    p = HyperParams(beta1=0.9, beta2=0.999, lam=0.999)
    seq = GradSequence(d=1, g=g, g_inf_cap=1.0)
    lhs = conjecture_sides(seq, p).lhs
    norm = float(np.linalg.norm(g))
    coeff = float(lhs[0]) / norm * (1.0 + 5e-7)  # slack ~ 5e-7 * rhs
    cand = FuzzCandidate(label="near", params=p, seq=seq, rhs_coeff=coeff)
    summary = conjecture_fuzz(
        0, 16, 1, default_fuzz_grid(), seed=3, out_dir=tmp_path, injected=[cand]
    )
    assert len(summary.near_misses) == 1
    assert summary.near_misses[0].outcome == "cleared"
    assert not summary.violation_found


def six_boundary_candidates():
    """T = 32 candidates at factors 1 - 1e-9 and 1 + 1e-9 in turn: three
    confirmed, three cleared."""
    return [boundary_candidate(f"c{k}", 100 + k, 32, 1.0 - 1e-9 if k % 2 == 0 else 1.0 + 1e-9)
            for k in range(6)]


def test_fuzz_screens_injected_candidates_in_one_batch_per_width(tmp_path):
    # one _batch_sides call per gradient width covers every injected
    # candidate, and a confirmed record reuses the sides that screened it
    cands = [boundary_candidate("confirmed", 71, 24, 0.5),
             boundary_candidate("cleared", 79, 16, 1.0 + 5e-7),
             boundary_candidate("far", 73, 24, 2.0),
             boundary_candidate("wide", 75, 12, 0.5, d=2)]
    batches = []

    def spy(*args, **kwargs):
        batches.append((args[0].shape, _batch_sides(*args, **kwargs)))
        return batches[-1][1]

    with mock.patch.object(analysis, "_batch_sides", spy), \
         mock.patch.object(analysis, "_sides", side_effect=AssertionError("one at a time")):
        summary = conjecture_fuzz(0, 24, 1, default_fuzz_grid(), seed=3, out_dir=tmp_path,
                                  injected=cands)
    assert [shape for shape, _ in batches] == [(3, 24, 1), (1, 12, 2)]
    assert [(nm.label, nm.outcome) for nm in summary.near_misses] == [
        ("confirmed", "confirmed"), ("cleared", "cleared"), ("wide", "confirmed")]
    confirmed = summary.near_misses[0]
    lhs, rhs = batches[0][1]
    assert np.shares_memory(confirmed.lhs, lhs) and np.shares_memory(confirmed.rhs, rhs)


def test_fuzz_batched_candidates_match_one_at_a_time_screening(tmp_path):
    # two widths, horizons out of order, and ties: the records are those
    # of screening each candidate alone with _sides
    grid = default_fuzz_grid()
    specs = [("a", 5, 0.5, 1), ("b", 40, 1.0 + 1e-9, 1), ("c", 17, 1.0 - 1e-9, 2),
             ("d", 40, 2.0, 1), ("e", 1, 0.5, 2), ("f", 23, 1.0 + 5e-7, 2),
             ("g", 40, 1.0 - 1e-9, 1), ("h", 17, 0.9, 2)]
    cands = []
    for k, (label, T, factor, d) in enumerate(specs):
        cand = boundary_candidate(label, 200 + k, T, factor, d=d)
        # a grid triple per candidate, the canonical coefficient on some
        params = grid[k % len(grid)]
        seq = cand.seq
        coeff = max(float(l) / float(np.linalg.norm(col))
                    for l, col in zip(_sides(seq.g, params)[0], seq.g.T)) * factor
        cands.append(FuzzCandidate(label=label, params=params, seq=seq,
                                   rhs_coeff=None if label == "d" else coeff))
    alone = []
    for cand in cands:
        lhs, rhs = _sides(cand.seq.g, cand.params, rhs_coeff=cand.rhs_coeff)
        if analysis._near(lhs, rhs):
            alone.append((cand, lhs, rhs))
    expected = analysis._decide(alone, None)
    summary = conjecture_fuzz(0, 8, 1, grid, seed=3, out_dir=tmp_path, injected=cands)
    assert {nm.outcome for nm in expected} == {"confirmed", "cleared"}
    assert len(summary.near_misses) == len(expected)
    for got, want in zip(summary.near_misses, expected):
        assert (got.label, got.outcome, got.enclosure) == (want.label, want.outcome, want.enclosure)
        assert got.lhs.tobytes() == want.lhs.tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()
        assert got.exact_min_slack == want.exact_min_slack


def text_tree(root):
    """Bytes of every .txt file under `root`, keyed by relative path."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*.txt")}


def test_fuzz_tree_does_not_depend_on_out_dir(tmp_path):
    cands = six_boundary_candidates()
    trees = []
    for out in (tmp_path / "a", tmp_path / "b" / "deeper"):
        summary = conjecture_fuzz(200, 32, 1, default_fuzz_grid(), seed=3, out_dir=out,
                                  injected=cands)
        (out / "fuzz_summary.txt").write_text(fuzz_summary_text(summary))
        trees.append(text_tree(out))
    assert {nm.outcome for nm in summary.near_misses} == {"confirmed", "cleared"}
    assert len(trees[0]) == 1 + len(summary.violations)
    assert trees[0] == trees[1]
    assert all(str(v.path).startswith(str(tmp_path / "b" / "deeper")) for v in summary.violations)


GOLDEN_FUZZ_TREE = Path(__file__).parent / "fixtures" / "golden_fuzz_violations"


def golden_fuzz_tree(out):
    """Write under `out` the tree that `GOLDEN_FUZZ_TREE` holds and read it
    back: 200 random trials plus the six boundary candidates with a d = 2
    one among them, so that grouping near misses by width and the injected
    order both show in the bytes."""
    cands = six_boundary_candidates()
    cands.insert(3, boundary_candidate("wide", 106, 20, 1.0 - 1e-9, d=2))
    summary = conjecture_fuzz(200, 32, 1, default_fuzz_grid(), seed=3, out_dir=out,
                              injected=cands)
    (out / "fuzz_summary.txt").write_text(fuzz_summary_text(summary))
    return text_tree(out)


def test_fuzz_tree_matches_golden(tmp_path):
    golden = text_tree(GOLDEN_FUZZ_TREE)
    tree = golden_fuzz_tree(tmp_path)
    assert sorted(tree) == sorted(golden)
    for name, data in golden.items():
        assert tree[name] == data, name


def test_report_serializers():
    from adamcheck.analysis import bound_report_text, bound_reports_csv

    report = synthetic_report(10, 4.0)
    csv = bound_reports_csv([report, report])
    lines = csv.splitlines()
    assert lines[0].startswith("T,d,regret")
    assert len(lines) == 3
    assert "slack" in bound_report_text(report)


def test_fuzz_trial_sequences_respect_cap_and_families():
    order, fam, T, g = _trial_batch(seed=11, start=0, stop=200, t_max=32, d=2)
    assert set(fam.tolist()) == {0, 1, 2, 3}
    assert g.shape == (200, 32, 2)
    assert sorted(order.tolist()) == list(range(200))
    assert np.all((1 <= T) & (T <= 32)) and np.all(np.diff(T) <= 0)
    assert np.max(np.abs(g)) <= 1.0
    for gk, Tk in zip(g, T):
        assert not np.any(gk[Tk:])


def test_default_grids_satisfy_gamma_hypothesis():
    for p in default_param_grid() + default_fuzz_grid():
        assert p.gamma < 1
    assert len(default_fuzz_grid()) >= 8
