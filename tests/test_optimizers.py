import math

import numpy as np
import pytest

from adamcheck.core import (
    DivisionHazardError,
    HyperParams,
    NumericInputError,
    StepRecord,
)
from adamcheck.optimizers import (
    adam_run,
    adam_step,
    gd_run,
    gd_step,
    momentum_run,
    momentum_step,
)

LAM_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # largest representable lam < 1


# ---------------------------------------------------------------------------
# plain descent
# ---------------------------------------------------------------------------

def test_gd_zero_gradient():
    assert np.array_equal(gd_step([0.0], [0.0], 0.1), [0.0])


def test_gd_hand_values():
    # w - (eta/2) g, with the historical one-half factor kept verbatim
    assert gd_step([1.0], [2.0], 0.1) == pytest.approx([0.9], abs=0)
    assert gd_step([1.0, -1.0], [2.0, 2.0], 1.0) == pytest.approx([0.0, -2.0], abs=0)


def test_gd_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        gd_step([1.0, 2.0], [1.0], 0.1)


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

def test_momentum_reduces_to_gd_for_vanishing_alpha():
    w = np.array([0.4, -2.0, 3.0])
    g = np.array([1.0, 2.0, -0.5])
    w1, delta = momentum_step(w, np.zeros(3), g, eta=0.2, alpha=1e-15)
    # second step so that delta_prev is nonzero
    w2, _ = momentum_step(w1, delta, g, eta=0.2, alpha=1e-15)
    plain = gd_step(gd_step(w, g, 0.2), g, 0.2)
    assert np.allclose(w2, plain, rtol=1e-12, atol=0)


def test_momentum_hand_steps():
    w, delta = momentum_step([0.0], np.zeros(1), [2.0], eta=0.1, alpha=0.5)
    assert w == pytest.approx([-0.1], abs=1e-15)
    assert delta == pytest.approx([-0.1], abs=1e-15)
    w, delta = momentum_step(w, delta, [2.0], eta=0.1, alpha=0.5)
    # delta = -0.1 + 0.5 * (-0.1) = -0.15
    assert delta == pytest.approx([-0.15], abs=1e-15)
    assert w == pytest.approx([-0.25], abs=1e-15)


def test_momentum_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        momentum_step([1.0, 2.0], np.zeros(2), [1.0], 0.1, 0.5)


# ---------------------------------------------------------------------------
# adam single step
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_fixed_point():
    p = HyperParams(eta=0.1)
    st = adam_step(StepRecord.initial([1.5, -2.0]), [0.0, 0.0], p)
    assert np.array_equal(st.m, [0.0, 0.0])
    assert np.array_equal(st.v, [0.0, 0.0])
    assert np.array_equal(st.m_hat, [0.0, 0.0])
    assert np.array_equal(st.v_hat, [0.0, 0.0])
    assert np.array_equal(st.w, [1.5, -2.0])  # 0 / epsilon = 0


def test_adam_first_step_hand_example():
    # d=1, w0=0, g=2, eta=0.1, beta1=0.9, beta2=0.999, lam=1-1e-8
    p = HyperParams(eta=0.1, beta1=0.9, beta2=0.999, lam=1 - 1e-8, epsilon=1e-8)
    st = adam_step(StepRecord.initial([0.0]), [2.0], p)
    assert st.t == 1
    assert st.m[0] == pytest.approx((1 - 0.9) * 2.0, rel=1e-15)
    assert st.v[0] == pytest.approx(0.004, rel=1e-15)
    assert st.m_hat[0] == pytest.approx(2.0, abs=1e-7)
    assert st.v_hat[0] == pytest.approx(4.0, rel=1e-12)
    assert st.w[0] == pytest.approx(-0.1 * 2.0 / (2.0 + 1e-8), rel=1e-12)


def test_adam_first_step_magnitude_property():
    # |w1 - w0| = eta * (1-beta1_1)/(1-beta1) * |g| / (|g| + eps), for any
    # nonzero gradient: the first-step size is scale-free up to epsilon.
    p = HyperParams(eta=0.05, beta1=0.9, beta2=0.999, lam=0.97, epsilon=1e-8)
    rng = np.random.Generator(np.random.Philox(key=5))
    for g in rng.uniform(-100.0, 100.0, size=200):
        if abs(g) < 1e-6:
            continue
        st = adam_step(StepRecord.initial([3.0]), [g], p)
        correction = (1 - p.beta1 * p.lam ** 0) / (1 - p.beta1)
        expected = p.eta * correction * abs(g) / (abs(g) + p.epsilon)
        assert abs(st.w[0] - 3.0) == pytest.approx(expected, rel=1e-12)


def test_adam_two_steps_constant_gradient_lam_half():
    # constant g=1, lam=0.5, beta1=0.9, beta2=0.999, eta=1, eps=0; expected
    # values frozen from a 250-bit re-derivation of the recursion
    p = HyperParams(eta=1.0, beta1=0.9, beta2=0.999, lam=0.5, epsilon=0.0)
    st = adam_step(StepRecord.initial([0.0]), [1.0], p)
    assert st.m_hat[0] == pytest.approx(1.0, rel=1e-12)
    assert st.v_hat[0] == pytest.approx(1.0, rel=1e-12)
    assert st.w[0] == pytest.approx(-1.0, rel=1e-12)
    st = adam_step(st, [1.0], p)
    assert st.m[0] == pytest.approx(0.59499999999999997, rel=1e-12)
    assert st.v[0] == pytest.approx(0.0019989999999999999, rel=1e-12)
    assert st.m_hat[0] == pytest.approx(3.1315789473684212, rel=1e-12)
    assert st.v_hat[0] == pytest.approx(1.0, rel=1e-12)
    assert st.w[0] == pytest.approx(-3.2143607095052409, rel=1e-12)


def test_adam_bias_correction_exactness_constant_gradient():
    # With lam -> 1 and constant gradient the zero-initialization bias
    # cancels: m_hat = g and v_hat = g**2 for every t.
    p = HyperParams(eta=1.0, beta1=0.9, beta2=0.999, lam=LAM_BELOW_ONE, epsilon=0.0)
    st = StepRecord.initial([0.0])
    for _ in range(40):
        st = adam_step(st, [0.7], p)
        assert st.m_hat[0] == pytest.approx(0.7, rel=1e-12)
        assert st.v_hat[0] == pytest.approx(0.49, rel=1e-12)


def test_adam_first_step_size_is_eta_exactly():
    # t=1, eps=0: the update magnitude is eta / sqrt(1) for any g != 0
    p = HyperParams(eta=0.37, beta1=0.9, beta2=0.999, lam=LAM_BELOW_ONE, epsilon=0.0)
    for g in (1e-8, -3.5, 1234.0):
        st = adam_step(StepRecord.initial([0.0]), [g], p)
        assert abs(st.w[0]) == pytest.approx(0.37, rel=1e-12)


def test_adam_rejects_nonfinite_gradient():
    p = HyperParams()
    with pytest.raises(NumericInputError):
        adam_step(StepRecord.initial([0.0]), [float("nan")], p)
    with pytest.raises(NumericInputError):
        adam_step(StepRecord.initial([0.0]), [float("inf")], p)


def test_adam_division_hazard():
    # a hand-built state with m != 0 but v = 0 cannot arise from the
    # recursion; with eps = 0 the update is genuinely 0/0-adjacent
    p = HyperParams(epsilon=0.0)
    st = StepRecord.initial([0.0])._replace(t=1, m=np.array([1.0]), pows=(0.9, 0.999, 0.999))
    with pytest.raises(DivisionHazardError):
        adam_step(st, [0.0], p)


def test_adam_zero_over_zero_is_zero_when_eps_zero():
    p = HyperParams(epsilon=0.0)
    st = adam_step(StepRecord.initial([2.0]), [0.0], p)
    assert st.w[0] == 2.0


def test_adam_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(StepRecord.initial([0.0, 0.0]), [1.0], HyperParams())


# ---------------------------------------------------------------------------
# adam run
# ---------------------------------------------------------------------------

def _quadratic_oracle(w, t):
    return float(0.5 * w @ w), w.copy()


def test_adam_run_single_step_equals_adam_step():
    p = HyperParams(eta=0.1)
    traj = adam_run([1.0, 2.0], _quadratic_oracle, p, 1)
    st = adam_step(StepRecord.initial([1.0, 2.0]), [1.0, 2.0], p)
    assert np.array_equal(traj.w[1], st.w)
    assert traj.e[0] == 2.5


def test_adam_run_accepts_column_gradient():
    # the oracle's gradient is stored as adam_step checked it, 1-D float64,
    # so an oracle that returns a (d, 1) column still fills (T, d) columns
    p = HyperParams(eta=0.1)
    col = adam_run([1.0, 2.0], lambda w, t: (0.5 * float(w @ w), w.reshape(-1, 1)), p, 3)
    flat = adam_run([1.0, 2.0], _quadratic_oracle, p, 3)
    assert col.g.shape == (3, 2)
    for name in ("w", "g", "m_hat", "v_hat", "e"):
        assert np.array_equal(getattr(col, name), getattr(flat, name))


def test_adam_run_descends_on_quadratic():
    # reference run gave final ||w|| = 1.3531477932656737; the pinned
    # threshold leaves a little slack while still demanding real progress
    # from ||w0|| = sqrt(2)
    traj = adam_run([1.0, 1.0], _quadratic_oracle, HyperParams(), 500)
    final = float(np.linalg.norm(traj.w[-1]))
    assert final < 1.3532
    assert final < float(np.linalg.norm([1.0, 1.0]))


@pytest.mark.parametrize("g_before, g3, epsilon, error", [
    (1.0, float("nan"), 1e-8, NumericInputError),
    # g3**2 underflows to 0, so v_hat = 0 while m_hat != 0
    (0.0, 1e-170, 0.0, DivisionHazardError),
], ids=["nonfinite-gradient", "division-hazard"])
def test_adam_run_error_carries_step_index(g_before, g3, epsilon, error):
    def oracle(w, t):
        return 0.0, np.array([g3 if t == 3 else g_before])

    with pytest.raises(error) as err:
        adam_run([0.0], oracle, HyperParams(epsilon=epsilon), 10)
    assert err.value.t == 3


def test_adam_run_requires_positive_horizon():
    with pytest.raises(ValueError):
        adam_run([0.0], _quadratic_oracle, HyperParams(), 0)


# ---------------------------------------------------------------------------
# simple runners used by the race command
# ---------------------------------------------------------------------------

def test_gd_run_matches_repeated_steps():
    values, w = gd_run([2.0], _quadratic_oracle, 0.5, 3)
    expect = np.array([2.0])
    for _ in range(3):
        expect = gd_step(expect, expect, 0.5)
    assert np.array_equal(w, expect)
    assert values[0] == pytest.approx(2.0)  # e(w0) = 0.5 * 4


def test_momentum_run_matches_repeated_steps():
    values, w = momentum_run([2.0, -1.0], _quadratic_oracle, 0.5, 0.5, 3)
    expect, delta = np.array([2.0, -1.0]), np.zeros(2)
    for t in range(1, 4):
        assert values[t - 1] == _quadratic_oracle(expect, t)[0]
        expect, delta = momentum_step(expect, delta, expect, 0.5, 0.5)
    assert w.tobytes() == expect.tobytes()
    # the run starts from a zero weight change: its first step is plain descent
    _, w1 = momentum_run([2.0, -1.0], _quadratic_oracle, 0.5, 0.5, 1)
    assert w1.tobytes() == gd_step([2.0, -1.0], [2.0, -1.0], 0.5).tobytes()


def test_momentum_run_shape():
    values, w = momentum_run([1.0, 1.0], _quadratic_oracle, 0.1, 0.5, 25)
    assert len(values) == 25
    assert w.shape == (2,)
    assert values[-1] < values[0]
