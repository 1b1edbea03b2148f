"""Convex differentiable test objectives with analytic gradients and
high-accuracy minimizer oracles.

Three families are provided:

* ``quadratic``        e(w) = 0.5 w'Aw - b'w, the same for every t
* ``logistic``         regularized logistic loss on a fixed synthetic sample
* ``noisy-quadratic``  e_t(w) = 0.5 (w - c_t)'A(w - c_t) with per-step
                       centers c_t drawn deterministically from a seed,
                       giving a genuinely time-varying objective sequence
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    AdamCheckError,
    NumericInputError,
    STREAM_NOISE_BASE,
    box_muller,
    parse_kv_text,
    philox_raw,
    seeded_rng,
)

__all__ = [
    "UnboundedMinimizerError",
    "ConvexProblem",
    "QuadraticData",
    "LogisticData",
    "NoisyQuadraticData",
    "quadratic_problem",
    "random_quadratic",
    "logistic_problem",
    "synthetic_logistic",
    "noisy_quadratic_problem",
    "random_noisy_quadratic",
    "evaluate",
    "objective_values",
    "summed_gradient",
    "minimizer_oracle",
    "convexity_gap",
    "parse_problem_spec",
    "problem_from_spec",
]

KINDS = ("quadratic", "logistic", "noisy-quadratic")

# Sub-stream ids on a problem seed (see core stream allocation).
_STREAM_MATRIX = 1
_STREAM_OFFSET = 2
_STREAM_TRUE_W = 1
_STREAM_FEATURES = 2
_STREAM_LABELS = 3


class UnboundedMinimizerError(AdamCheckError):
    """The summed objective has no finite minimizer (e.g. separable data)."""


@dataclass(frozen=True)
class QuadraticData:
    a: np.ndarray  # d x d, symmetric PSD by construction
    b: np.ndarray  # d


@dataclass(frozen=True)
class LogisticData:
    x: np.ndarray  # n x d features
    y: np.ndarray  # n labels in {-1, +1}
    mu: float      # ridge weight, keeps the minimizer attained


@dataclass(frozen=True)
class NoisyQuadraticData:
    a: np.ndarray
    noise_seed: int
    noise_scale: float


@dataclass(frozen=True)
class ConvexProblem:
    d: int
    kind: str
    data: QuadraticData | LogisticData | NoisyQuadraticData


def _finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has a nonfinite entry")
    return x


def _symmetric(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _finite("matrix A", a)
    if not np.allclose(a, a.T, rtol=0, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    # a quadratic objective is convex exactly when A is PSD
    eig = np.linalg.eigvalsh(a)
    if not np.all(eig >= -1e-12 * max(1.0, float(np.abs(eig).max(initial=0.0)))):
        raise ValueError(f"matrix must be positive semidefinite, smallest eigenvalue {eig.min()}")
    a.setflags(write=False)
    return a


def quadratic_problem(a, b) -> ConvexProblem:
    a = _symmetric(a)
    b = _finite("b", np.array(b, dtype=np.float64, copy=True).reshape(-1))
    if len(b) != a.shape[0]:
        raise ValueError("b length must match matrix dimension")
    b.setflags(write=False)
    return ConvexProblem(d=len(b), kind="quadratic", data=QuadraticData(a=a, b=b))


def _random_psd(seed: int, d: int, mu: float) -> np.ndarray:
    """A = B'B + mu*I with B standard normal: symmetric PSD by construction."""
    rng = seeded_rng(seed, _STREAM_MATRIX)
    b = rng.standard_normal(d * d).reshape(d, d)
    return b.T @ b + mu * np.eye(d)


def random_quadratic(seed: int, d: int, mu: float = 0.1) -> ConvexProblem:
    a = _random_psd(seed, d, mu)
    b = seeded_rng(seed, _STREAM_OFFSET).standard_normal(d)
    return quadratic_problem(a, b)


def logistic_problem(x, y, mu: float = 1e-4) -> ConvexProblem:
    x = np.array(x, dtype=np.float64, copy=True)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    _finite("feature matrix", x)
    y = np.array(y, dtype=np.float64, copy=True).reshape(-1)
    if len(y) != x.shape[0]:
        raise ValueError("label length must match sample count")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be nonnegative and finite, got {mu}")
    x.setflags(write=False)
    y.setflags(write=False)
    return ConvexProblem(d=x.shape[1], kind="logistic", data=LogisticData(x=x, y=y, mu=mu))


def synthetic_logistic(seed: int, n: int, d: int, mu: float = 1e-4) -> ConvexProblem:
    """Reproducible logistic sample: w_true and features standard normal,
    labels drawn from the logistic model.  Fully determined by (seed, n, d).
    """
    w_true = seeded_rng(seed, _STREAM_TRUE_W).standard_normal(d)
    x = seeded_rng(seed, _STREAM_FEATURES).standard_normal(n * d).reshape(n, d)
    u = seeded_rng(seed, _STREAM_LABELS).uniform(size=n)
    y = np.where(u < _sigmoid(x @ w_true), 1.0, -1.0)
    return logistic_problem(x, y, mu=mu)


def noisy_quadratic_problem(a, noise_seed: int, noise_scale: float) -> ConvexProblem:
    a = _symmetric(a)
    if not 0 < noise_scale < math.inf:
        raise ValueError(f"noise_scale must be positive and finite, got {noise_scale}")
    return ConvexProblem(
        d=a.shape[0],
        kind="noisy-quadratic",
        data=NoisyQuadraticData(a=a, noise_seed=int(noise_seed), noise_scale=float(noise_scale)),
    )


def random_noisy_quadratic(seed: int, d: int, mu: float = 0.1, noise_scale: float = 1.0) -> ConvexProblem:
    return noisy_quadratic_problem(_random_psd(seed, d, mu), seed, noise_scale)


# Centers are drawn in blocks of this many steps; per-step evaluation keeps
# the last few blocks, so sequential sweeps over t draw every center once.
_CENTER_BLOCK = 4096
_CENTER_MEMO_BLOCKS = 4


def _centers(noise_seed: int, noise_scale: float, d: int, t_lo: int, t_hi: int) -> np.ndarray:
    """(t_hi - t_lo, d) array whose row t - t_lo is the center c_t, equal to
    noise_scale * seeded_rng(noise_seed, STREAM_NOISE_BASE + t).standard_normal(d)."""
    streams = STREAM_NOISE_BASE + np.arange(t_lo, t_hi, dtype=np.uint64)
    words = philox_raw(noise_seed, streams, 2 * ((d + 1) // 2))
    return noise_scale * box_muller(words)[:, :d]


@lru_cache(maxsize=_CENTER_MEMO_BLOCKS)
def _center_block(noise_seed: int, noise_scale: float, d: int, k: int) -> np.ndarray:
    lo = 1 + k * _CENTER_BLOCK
    block = _centers(noise_seed, noise_scale, d, lo, lo + _CENTER_BLOCK)
    block.setflags(write=False)
    return block


def _center_sum(data: NoisyQuadraticData, d: int, T: int) -> np.ndarray:
    """c_1 + ... + c_T, added in t order as a running sum would."""
    acc = np.zeros((1, d))
    for lo in range(1, T + 1, _CENTER_BLOCK):
        table = _centers(data.noise_seed, data.noise_scale, d, lo, min(lo + _CENTER_BLOCK, T + 1))
        acc = np.add.accumulate(np.vstack([acc, table]), axis=0)[-1:]
    return acc[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), stable on both tails."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _weights(p: ConvexProblem, w, t: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if len(w) != p.d:
        raise ValueError(f"w has length {len(w)}, problem dimension is {p.d}")
    if not np.isfinite(w).all():
        raise NumericInputError("weight vector contains a nonfinite component", t=t)
    return w


def evaluate(p: ConvexProblem, w, t: int = 1) -> tuple[float, np.ndarray]:
    """Objective value e_t(w) and gradient at w.

    The quadratic and logistic families are batch objectives (the same for
    every t); the noisy-quadratic family re-centers at every t.
    """
    w = _weights(p, w, t)
    if t < 1:
        raise ValueError("t starts at 1")

    if p.kind == "quadratic":
        aw = p.data.a @ w
        return float(0.5 * w @ aw - p.data.b @ w), aw - p.data.b

    if p.kind == "logistic":
        x, y, mu = p.data.x, p.data.y, p.data.mu
        n = x.shape[0]
        margins = y * (x @ w)
        value = float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * mu * (w @ w))
        grad = -(x.T @ (y * _sigmoid(-margins))) / n + mu * w
        return value, grad

    if p.kind == "noisy-quadratic":
        k, i = divmod(t - 1, _CENTER_BLOCK)
        c = _center_block(p.data.noise_seed, p.data.noise_scale, p.d, k)[i]
        diff = w - c
        adiff = p.data.a @ diff
        return float(0.5 * diff @ adiff), adiff

    raise ValueError(f"unknown problem kind {p.kind!r}")


def objective_values(p: ConvexProblem, w, T: int) -> np.ndarray:
    """e_t(w) for t = 1..T, entry t - 1 with the bits of evaluate(p, w, t)[0]:
    numpy runs each item of a stacked product through evaluate's BLAS call."""
    w = _weights(p, w, 1)
    if p.kind != "noisy-quadratic":
        return np.full(T, evaluate(p, w, 1)[0])
    out = np.empty(T)
    for lo in range(1, T + 1, _CENTER_BLOCK):
        hi = min(lo + _CENTER_BLOCK, T + 1)
        diff = w - _centers(p.data.noise_seed, p.data.noise_scale, p.d, lo, hi)
        adiff = np.matmul(p.data.a, diff[:, :, None])
        out[lo - 1:hi - 1] = np.matmul((0.5 * diff)[:, None, :], adiff).ravel()
    return out


def summed_gradient(p: ConvexProblem, w, T: int) -> np.ndarray:
    """Gradient of sum_{t=1..T} e_t at w."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if p.kind in ("quadratic", "logistic"):
        return T * evaluate(p, w, 1)[1]
    if p.kind == "noisy-quadratic":
        # sum_t A (w - c_t) = A (T w - sum_t c_t)
        return p.data.a @ (T * w - _center_sum(p.data, p.d, T))
    raise ValueError(f"unknown problem kind {p.kind!r}")


_ORACLE_TOL = 1e-10
_NEWTON_MAX_ITER = 200
_NEWTON_DIVERGENCE_NORM = 1e8


def minimizer_oracle(p: ConvexProblem, T: int) -> np.ndarray:
    """Minimizer of sum_{t=1..T} e_t over all of R^d.

    Stationarity contract: the summed gradient at the returned point has
    2-norm at most 1e-10 * max(1, ||summed gradient at 0||).  Quadratic
    families are solved in closed form; the logistic family by damped
    Newton iterations.  Raises :class:`UnboundedMinimizerError` when no
    finite minimizer exists.
    """
    if T < 1:
        raise ValueError("T must be at least 1")

    if p.kind == "quadratic":
        w = _solve_quadratic(p.data.a, p.data.b)
    elif p.kind == "noisy-quadratic":
        # First-order condition A * sum(w - c_t) = 0: the center mean is a
        # minimizer for any PSD A.
        csum = _center_sum(p.data, p.d, T)
        w = csum / T
    elif p.kind == "logistic":
        w = _newton_logistic(p, T)
    else:
        raise ValueError(f"unknown problem kind {p.kind!r}")

    def gradient(x):  # summed_gradient, with the noisy centers drawn once
        return p.data.a @ (T * x - csum) if p.kind == "noisy-quadratic" else summed_gradient(p, x, T)

    scale = max(1.0, float(np.linalg.norm(gradient(np.zeros(p.d)))))
    resid = float(np.linalg.norm(gradient(w)))
    if resid > _ORACLE_TOL * scale:
        raise UnboundedMinimizerError(
            f"stationarity residual {resid:.3e} exceeds tolerance {_ORACLE_TOL * scale:.3e}"
        )
    return w


def _solve_quadratic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        w = np.linalg.solve(a, b)
        if np.all(np.isfinite(w)):
            return w
    except np.linalg.LinAlgError:
        pass
    # Singular A: a finite minimizer exists iff b lies in the range of A.
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ w - b) > 1e-8 * max(1.0, np.linalg.norm(b)):
        raise UnboundedMinimizerError("quadratic objective is unbounded below")
    return w


def _newton_logistic(p: ConvexProblem, T: int) -> np.ndarray:
    x, y, mu = p.data.x, p.data.y, p.data.mu
    n = x.shape[0]
    w = np.zeros(p.d)
    scale = max(1.0, float(np.linalg.norm(summed_gradient(p, w, T))))
    value, grad = evaluate(p, w, 1)
    for _ in range(_NEWTON_MAX_ITER):
        if T * np.linalg.norm(grad) <= _ORACLE_TOL * scale:
            return w
        margins = y * (x @ w)
        s = _sigmoid(margins)
        weights = s * (1.0 - s)
        hess = (x.T * weights) @ x / n + mu * np.eye(p.d)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise UnboundedMinimizerError("singular Hessian in Newton solve")
        # Backtracking keeps the damped iteration monotone.
        alpha = 1.0
        for _ in range(60):
            w_new = w - alpha * step
            value_new, grad_new = evaluate(p, w_new, 1)
            if value_new <= value:
                break
            alpha *= 0.5
        else:
            raise UnboundedMinimizerError("Newton line search failed to descend")
        w, value, grad = w_new, value_new, grad_new
        if np.linalg.norm(w) > _NEWTON_DIVERGENCE_NORM:
            raise UnboundedMinimizerError(
                "iterates diverge; data is likely separable with mu = 0"
            )
    if T * np.linalg.norm(grad) <= _ORACLE_TOL * scale:
        return w
    raise UnboundedMinimizerError(
        "Newton failed to reach the stationarity tolerance; "
        "the minimum may not be attained"
    )


def convexity_gap(p: ConvexProblem, x, y, t: int = 1) -> float:
    """f(y) - f(x) - grad f(x)'(y - x); nonnegative up to rounding for a
    convex objective (the first-order characterization of convexity)."""
    fx, gx = evaluate(p, x, t)
    fy, _ = evaluate(p, y, t)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    return float(fy - fx - gx @ (y - x))


# ---------------------------------------------------------------------------
# Problem spec files
# ---------------------------------------------------------------------------
#
# Key-value schema (one `key = value` per line, '#' comments):
#
#   kind        = quadratic | logistic | noisy-quadratic   (required)
#   d           = positive int                             (required)
#   seed        = 64-bit int                               (required)
#   n_samples   = positive int           (logistic only; default 100)
#   mu          = nonnegative float      (default: 1e-4 logistic, 0.1 others)
#   noise_scale = positive float         (noisy-quadratic only; default 1.0)

_SPEC_KEYS = {"kind", "d", "seed", "n_samples", "mu", "noise_scale"}


def parse_problem_spec(text: str) -> dict:
    """Parse and validate a problem spec; returns typed fields."""
    raw = parse_kv_text(text)
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown problem spec keys: {sorted(unknown)}")
    for key in ("kind", "d", "seed"):
        if key not in raw:
            raise ValueError(f"problem spec is missing required key {key!r}")
    kind = raw["kind"]
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    spec = {
        "kind": kind,
        "d": int(raw["d"]),
        "seed": int(raw["seed"]),
        "n_samples": int(raw.get("n_samples", 100)),
        "mu": float(raw["mu"]) if "mu" in raw else (1e-4 if kind == "logistic" else 0.1),
        "noise_scale": float(raw.get("noise_scale", 1.0)),
    }
    if not 0 <= spec["seed"] < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {spec['seed']}")
    for key in ("mu", "noise_scale"):
        if not math.isfinite(spec[key]):
            raise ValueError(f"{key} must be finite, got {spec[key]}")
    if spec["d"] < 1:
        raise ValueError("d must be positive")
    if spec["n_samples"] < 1:
        raise ValueError("n_samples must be positive")
    if spec["mu"] < 0:
        raise ValueError("mu must be nonnegative")
    if spec["noise_scale"] <= 0:
        raise ValueError("noise_scale must be positive")
    # every kind holds a d x d float64 matrix (A, or the logistic Newton
    # Hessian); logistic also holds the n_samples x d features
    rows = max(spec["d"], spec["n_samples"]) if kind == "logistic" else spec["d"]
    nbytes = rows * spec["d"] * 8
    if nbytes > np.iinfo(np.intp).max:
        raise ValueError(f"the problem needs a {nbytes}-byte array, beyond numpy's array size limit")
    return spec


def problem_from_spec(spec: dict) -> ConvexProblem:
    kind = spec["kind"]
    if kind == "quadratic":
        return random_quadratic(spec["seed"], spec["d"], mu=spec["mu"])
    if kind == "logistic":
        return synthetic_logistic(spec["seed"], spec["n_samples"], spec["d"], mu=spec["mu"])
    return random_noisy_quadratic(
        spec["seed"], spec["d"], mu=spec["mu"], noise_scale=spec["noise_scale"]
    )
