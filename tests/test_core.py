import numpy as np
import pytest

from adamcheck.core import (
    GradSequence,
    HyperParams,
    SequencingError,
    StepRecord,
    Trajectory,
    parse_kv_text,
    record_step,
    seeded_rng,
    trajectory_from_csv,
    trajectory_to_csv,
)
from adamcheck.optimizers import adam_run, verify_replay


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

def test_same_seed_same_stream():
    a = seeded_rng(42).uniform(size=2)
    b = seeded_rng(42).uniform(size=2)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = seeded_rng(42).uniform(size=8)
    b = seeded_rng(43).uniform(size=8)
    assert not np.array_equal(a, b)


def test_streams_on_one_seed_differ():
    a = seeded_rng(42, 0).uniform(size=8)
    b = seeded_rng(42, 1).uniform(size=8)
    assert not np.array_equal(a, b)


def test_uniform_law_of_large_numbers():
    u = seeded_rng(7).uniform(-1.0, 1.0, size=10_000)
    assert abs(float(np.mean(u))) < 0.05
    assert float(np.min(u)) >= -1.0 and float(np.max(u)) < 1.0


def test_normal_moments_smoke():
    z = seeded_rng(7).standard_normal(size=20_000)
    assert abs(float(np.mean(z))) < 0.05
    assert abs(float(np.std(z)) - 1.0) < 0.05


def test_raw_stream_regression_pin():
    # Philox streams are stable across platforms; freezing the first words
    # guards the key construction and the generator choice.
    raw = seeded_rng(42).raw(2)
    assert list(raw) == [15129985323320379406, 3490965594592278910]


def test_integers_range():
    k = seeded_rng(3).integers(7, size=1000)
    assert k.min() >= 0 and k.max() <= 6
    assert len(np.unique(k)) == 7


# ---------------------------------------------------------------------------
# hyperparameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": 0.0},
        {"beta1": 0.0},
        {"beta1": 1.0},
        {"beta2": 1.0},
        {"lam": 0.0},
        {"lam": 1.0},
        {"epsilon": -1e-9},
        {"alpha": 1.0},
        {"eta": float("inf")},
        {"epsilon": float("inf")},
        {"beta1": float("nan")},
    ],
)
def test_hyperparams_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        HyperParams(**kwargs)


def test_hyperparams_rejects_gamma_at_least_one():
    # 0.99**2 / sqrt(0.5) = 1.386...
    with pytest.raises(ValueError, match="must be < 1"):
        HyperParams(beta1=0.99, beta2=0.5)


def test_gamma_value():
    p = HyperParams(beta1=0.9, beta2=0.999)
    assert p.gamma == pytest.approx(0.81 / np.sqrt(0.999), rel=1e-15)


# ---------------------------------------------------------------------------
# trajectory recording
# ---------------------------------------------------------------------------

def _record(t, d=1):
    z = np.zeros(d)
    return StepRecord(t=t, w_before=z, g=z, e=0.0, m_hat=z, v_hat=z, w_after=z)


def test_record_step_appends():
    traj = Trajectory(d=1, params=HyperParams())
    record_step(traj, _record(1))
    assert traj.T == 1


def test_record_step_rejects_gap():
    traj = Trajectory(d=1, params=HyperParams())
    record_step(traj, _record(1))
    with pytest.raises(SequencingError):
        record_step(traj, _record(3))


def test_record_step_rejects_duplicate():
    traj = Trajectory(d=1, params=HyperParams())
    record_step(traj, _record(1))
    with pytest.raises(SequencingError):
        record_step(traj, _record(1))


def test_records_are_read_only():
    rec = _record(1)
    with pytest.raises(ValueError):
        rec.g[0] = 1.0


def _quadratic_oracle(w, t):
    return float(0.5 * w @ w), w.copy()


def test_replay_is_bit_identical():
    p = HyperParams(eta=0.1)
    traj = adam_run(np.array([1.0, -2.0]), _quadratic_oracle, p, 50)
    assert verify_replay(traj)


def test_run_determinism_byte_for_byte():
    p = HyperParams(eta=0.1)
    a = adam_run(np.array([1.0, -2.0]), _quadratic_oracle, p, 30)
    b = adam_run(np.array([1.0, -2.0]), _quadratic_oracle, p, 30)
    assert trajectory_to_csv(a) == trajectory_to_csv(b)


def test_trajectory_csv_round_trip():
    p = HyperParams(eta=0.1)
    traj = adam_run(np.array([0.3, -1.1]), _quadratic_oracle, p, 7)
    text = trajectory_to_csv(traj)
    back = trajectory_from_csv(text, p)
    assert back.T == traj.T and back.d == traj.d
    for a, b in zip(traj.records, back.records):
        for name in ("w_before", "g", "m_hat", "v_hat", "w_after"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.e == b.e
    assert verify_replay(back)


def test_trajectory_csv_shape():
    p = HyperParams()
    traj = adam_run(np.zeros(3), _quadratic_oracle, p, 5)
    lines = trajectory_to_csv(traj).splitlines()
    assert lines[0] == "t,i,w_before,g,e,m_hat,v_hat,w_after"
    assert len(lines) == 1 + 5 * 3


# ---------------------------------------------------------------------------
# convex-combination moment bounds
# ---------------------------------------------------------------------------

def test_moment_convex_combination_bounds():
    # |m[t,i]| <= max_{j<=t} |g[j,i]| and v[t,i] <= max_{j<=t} g[j,i]**2:
    # every moment is a convex-type combination with weights in (0,1).
    rng = seeded_rng(99)
    for trial in range(20):
        d = 3
        T = 40
        g_all = rng.uniform(-5.0, 5.0, size=T * d).reshape(T, d)
        gs = iter(g_all)

        def oracle(w, t):
            return 0.0, next(gs)

        p = HyperParams(beta1=0.7, beta2=0.95, lam=0.9)
        traj = adam_run(np.zeros(d), oracle, p, T)
        m = np.zeros(d)
        v = np.zeros(d)
        running_abs = np.zeros(d)
        for rec in traj.records:
            t = rec.t
            b1t = p.beta1_t(t)
            m = b1t * m + (1 - b1t) * rec.g
            v = p.beta2 * v + (1 - p.beta2) * rec.g ** 2
            running_abs = np.maximum(running_abs, np.abs(rec.g))
            assert np.all(np.abs(m) <= running_abs * (1 + 1e-12))
            assert np.all(v <= running_abs ** 2 * (1 + 1e-12))
            assert np.all(rec.v_hat >= 0)


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_adam_state_validation():
    from adamcheck.core import AdamState

    with pytest.raises(ValueError, match="zero at t = 0"):
        AdamState(t=0, m=np.ones(1), v=np.zeros(1), w=np.zeros(1))
    with pytest.raises(ValueError, match="nonnegative"):
        AdamState(t=1, m=np.zeros(1), v=np.array([-1.0]), w=np.zeros(1))
    st = AdamState.initial([1.0, 2.0])
    assert st.t == 0 and np.array_equal(st.m, [0.0, 0.0])


def test_grad_sequence_validates_cap():
    with pytest.raises(ValueError, match="exceeds declared cap"):
        GradSequence(d=1, g=np.array([[2.0]]), g_inf_cap=1.0)


def test_grad_sequence_accepts_1d():
    seq = GradSequence(d=1, g=np.array([1.0, -1.0]), g_inf_cap=1.0)
    assert seq.g.shape == (2, 1) and seq.T == 2


def test_parse_kv_text():
    kv = parse_kv_text("a = 1\n# comment\nb = two words  # trailing\n\n")
    assert kv == {"a": "1", "b": "two words"}
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv_text("a = 1\na = 2")
    with pytest.raises(ValueError, match="key = value"):
        parse_kv_text("nonsense line")
