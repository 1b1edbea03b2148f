"""The three update rules: plain gradient descent, momentum, and ADAM.

All three are implemented verbatim, including the historical eta/2 factor of
the plain descent rule.  The ADAM step uses the time-decayed first-moment
rate beta1_t = beta1 * lam**(t-1) in the moment update but the constant
beta1**t in the bias correction.  Its moment recursion is `moment_step`,
which the inequality evaluators in `analysis` run as well.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import DivisionHazardError, HyperParams, NumericInputError, StepRecord, Trajectory

__all__ = [
    "gd_step",
    "momentum_step",
    "adam_step",
    "adam_run",
    "gd_run",
    "momentum_run",
    "verify_replay",
]

# oracle(w, t) -> (objective value, gradient), pure in (w, t)
GradOracle = Callable[[np.ndarray, int], tuple[float, np.ndarray]]


def _check_lengths(w: np.ndarray, g: np.ndarray) -> None:
    if w.shape != g.shape:
        raise ValueError(f"weight/gradient length mismatch: {w.shape} vs {g.shape}")


def gd_step(w, g, eta: float) -> np.ndarray:
    """One plain descent step: w - (eta/2) * g."""
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    _check_lengths(w, g)
    if not eta > 0:
        raise ValueError("eta must be positive")
    return w - 0.5 * eta * g


def momentum_step(w, delta_prev, g, eta: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One momentum step: delta = -(eta/2) g + alpha * delta_prev, where
    delta_prev is the previous weight change (zero before the first step);
    returns (w + delta, delta)."""
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    _check_lengths(w, g)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    delta = -0.5 * eta * g + alpha * delta_prev
    return w + delta, delta


def moment_step(m, v, g, pows, beta1, beta2, lam):
    """ADAM's moment recursion at step t, the library's one copy of it.

    `pows` = (beta1**(t-1), beta2**(t-1), lam**(t-1)) as running products;
    returns (m, v, m_hat, v_hat, pows advanced to t).  Only operators and
    the int 1 appear, so floats, arrays and mpmath values all pass through
    (mpmath converts an int faster than a float).
    """
    b1_pow, b2_pow, lam_pow = pows
    b1t = beta1 * lam_pow
    m = b1t * m + (1 - b1t) * g
    v = beta2 * v + (1 - beta2) * g * g
    b1_pow = b1_pow * beta1
    b2_pow = b2_pow * beta2
    m_hat = m / (1 - b1_pow)
    v_hat = v / (1 - b2_pow)
    return m, v, m_hat, v_hat, (b1_pow, b2_pow, lam_pow * lam)


def adam_step(st: StepRecord, g, p: HyperParams) -> StepRecord:
    """One ADAM step from state `st` with gradient `g`; returns the state
    after the step (start from `StepRecord.initial(w0)`).

    With t = st.t + 1, `moment_step` gives m_hat and v_hat, and

        w     <- w - (eta / sqrt(t)) * m_hat / (sqrt(v_hat) + epsilon)

    When epsilon is 0 a coordinate with v_hat = 0 contributes a 0 update if
    its m_hat is also 0 (the continuous extension); a nonzero m_hat over a
    zero denominator raises :class:`DivisionHazardError`.
    """
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    _check_lengths(st.w, g)
    if not np.isfinite(g).all():
        raise NumericInputError("gradient contains a nonfinite component", t=st.t + 1)

    t = st.t + 1
    m, v, m_hat, v_hat, pows = moment_step(st.m, st.v, g, st.pows, p.beta1, p.beta2, p.lam)
    root_v = np.sqrt(v_hat)

    if p.epsilon == 0.0:
        zero = v_hat == 0.0
        if np.any(zero & (m_hat != 0.0)):
            i = int(np.argmax(zero & (m_hat != 0.0)))
            raise DivisionHazardError(
                f"epsilon = 0 with v_hat = 0 but m_hat != 0 at coordinate {i}", t=t
            )
        ratio = np.where(zero, 0.0, m_hat / np.where(zero, 1.0, root_v))
    else:
        ratio = m_hat / (root_v + p.epsilon)

    return StepRecord(t, st.w - (p.eta / math.sqrt(t)) * ratio, m, v, pows, g, m_hat, v_hat)


def adam_run(
    w0,
    grad_oracle: GradOracle,
    p: HyperParams,
    T: int,
    progress: Callable[[int, int], None] | None = None,
) -> Trajectory:
    """Run ADAM for exactly T steps (a fixed horizon replaces a convergence
    test) and return the full trajectory.

    Row t of the trajectory's preallocated columns is filled from the
    record of step t and the oracle's objective value.  `progress(t, T)` is
    invoked every 1000 steps.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    st = StepRecord.initial(w0)
    d = len(st.w)
    traj = Trajectory(
        p, w=np.empty((T + 1, d)), g=np.empty((T, d)), m_hat=np.empty((T, d)),
        v_hat=np.empty((T, d)), e=np.empty(T),
    )
    traj.w[0] = st.w
    for t in range(1, T + 1):
        traj.e[t - 1], g = grad_oracle(st.w, t)
        st = adam_step(st, g, p)
        traj.w[t] = st.w
        traj.g[t - 1] = st.g
        traj.m_hat[t - 1] = st.m_hat
        traj.v_hat[t - 1] = st.v_hat
        if progress is not None and t % 1000 == 0:
            progress(t, T)
    return traj


def gd_run(w0, grad_oracle: GradOracle, eta: float, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Run plain descent for T steps; returns (per-step objectives, final w).

    Objective t is evaluated at the pre-update iterate, matching the
    trajectory convention of the adaptive run.
    """
    w = np.asarray(w0, dtype=np.float64).reshape(-1).copy()
    values = np.empty(T)
    for t in range(1, T + 1):
        e, g = grad_oracle(w, t)
        values[t - 1] = e
        w = gd_step(w, g, eta)
    return values, w


def momentum_run(
    w0, grad_oracle: GradOracle, eta: float, alpha: float, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run the momentum method for T steps; returns (objectives, final w)."""
    w = np.asarray(w0, dtype=np.float64).reshape(-1).copy()
    delta = np.zeros_like(w)
    values = np.empty(T)
    for t in range(1, T + 1):
        e, g = grad_oracle(w, t)
        values[t - 1] = e
        w, delta = momentum_step(w, delta, g, eta, alpha)
    return values, w


def verify_replay(traj: Trajectory) -> bool:
    """Re-run `adam_run` on the stored gradients and objective values and
    demand that every stored iterate is reproduced bit-for-bit.  Raises on
    the earliest mismatching step, naming its first differing column.
    """
    if traj.T == 0:
        return True
    replay = adam_run(traj.w[0], lambda w, t: (traj.e[t - 1], traj.g[t - 1]), traj.params, traj.T)
    columns = (
        ("w_after", replay.w[1:], traj.w[1:]),
        ("m_hat", replay.m_hat, traj.m_hat),
        ("v_hat", replay.v_hat, traj.v_hat),
    )
    # == as in np.array_equal: NaN never matches, -0.0 matches 0.0
    bad = np.array([~(a == stored).all(axis=1) for _, a, stored in columns])
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        name, a, stored = columns[int(np.argmax(bad[:, row]))]
        raise AssertionError(
            f"replay mismatch at t={row + 1} in {name}: {a[row]} != {stored[row]}"
        )
    return True
