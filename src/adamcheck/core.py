"""Shared domain types, deterministic randomness, and trajectory storage.

All vector quantities are dense 1-D float64 arrays of a fixed dimension d.
Randomness everywhere in the library is Philox 4x64-10 counter-based
output: :class:`RandomStream` steps one stream, while :func:`philox_blocks`
and :func:`philox_raw` compute the same words of many streams directly
(the fuzz trials and the per-step noise centers).  Every experiment is
reproducible from a 64-bit seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "AdamCheckError",
    "NumericInputError",
    "DivisionHazardError",
    "HyperParams",
    "StepRecord",
    "Trajectory",
    "GradSequence",
    "RandomStream",
    "seeded_rng",
    "philox_raw",
    "philox_blocks",
    "box_muller",
    "box_muller_polar",
    "uniform_from_words",
    "integers_from_words",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "fmt17",
    "parse_kv_text",
    "STREAM_MAIN",
    "STREAM_NOISE_BASE",
    "STREAM_FUZZ_BASE",
]


class AdamCheckError(Exception):
    """Base class for library-specific failures."""


class NumericInputError(AdamCheckError):
    """A gradient or weight vector contained a NaN or infinity."""

    def __init__(self, message: str, t: int | None = None):
        super().__init__(message)
        self.t = t


class DivisionHazardError(AdamCheckError):
    """Update denominator is exactly zero while the numerator is not."""

    def __init__(self, message: str, t: int | None = None):
        super().__init__(message)
        self.t = t


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------
#
# Stream-id allocation (second half of the 128-bit Philox key).  Keeping the
# purposes in disjoint ranges means a seed can never alias two uses.
STREAM_MAIN = 0                # general-purpose stream for a seed
STREAM_NOISE_BASE = 1 << 32    # + t: per-step noise centers
STREAM_FUZZ_BASE = 2 << 32     # + trial index: fuzzer gradient sequences

_U53 = 2.0 ** -53


class RandomStream:
    """Deterministic random stream backed by Philox 4x64-10.

    The generator is counter-based, so (seed, stream) fully determines the
    output on every platform.  Conversions are fixed and documented:

    * uniform double in [0, 1):  ``(raw64 >> 11) * 2**-53``
    * uniform double in (0, 1]:  ``((raw64 >> 11) + 1) * 2**-53``
    * standard normal:           Box-Muller transform of two uniforms

    Platform-default generators (``random.Random``, ``np.random.default_rng``)
    are deliberately not used anywhere in the library.
    """

    def __init__(self, seed: int, stream: int = STREAM_MAIN):
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= stream < 2 ** 64:
            raise ValueError("stream id must fit in 64 bits")
        self.seed = seed
        self.stream = stream
        self._bg = np.random.Philox(key=(stream << 64) | seed)

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of the Philox stream."""
        return self._bg.random_raw(n)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform doubles on [low, high)."""
        n = 1 if size is None else int(size)
        out = low + (high - low) * uniform_from_words(self.raw(n))
        return float(out[0]) if size is None else out

    def standard_normal(self, size: int | None = None):
        """Standard normals via the Box-Muller transform."""
        n = 1 if size is None else int(size)
        z = box_muller(self.raw(2 * ((n + 1) // 2)))[:n]
        return float(z[0]) if size is None else z

    def integers(self, n: int, size: int | None = None):
        """Uniform integers on {0, ..., n-1} via floor(u * n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        out = integers_from_words(self.raw(1 if size is None else int(size)), n)
        return int(out[0]) if size is None else out


def seeded_rng(seed: int, stream: int = STREAM_MAIN) -> RandomStream:
    """Deterministic random stream for (seed, stream)."""
    return RandomStream(seed, stream)


def uniform_from_words(words: np.ndarray) -> np.ndarray:
    """Uniform doubles on [0, 1) from raw words: ``(raw64 >> 11) * 2**-53``."""
    return (words >> np.uint64(11)) * _U53


def integers_from_words(words: np.ndarray, n) -> np.ndarray:
    """Integers on {0, ..., n-1} from raw words: ``floor(uniform * n)``;
    n may be one count per word."""
    return np.minimum((uniform_from_words(words) * n).astype(np.int64), n - 1)


def box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw words along the last axis, (..., 2p).

    The first p words give the radius uniforms on (0, 1], the last p the
    angle uniforms on [0, 1); the result holds the p cosine normals followed
    by the p sine normals.  This is the one conversion behind every normal
    draw in the library; `box_muller_polar` is its elementwise half.
    """
    p = words.shape[-1] // 2
    r, theta = box_muller_polar(words[..., :p], words[..., p:])
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def box_muller_polar(
    radius_words: np.ndarray, angle_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(r, theta) of the Box-Muller pairs formed by matching radius and
    angle words; the normals are r * cos(theta) and r * sin(theta)."""
    u1 = ((radius_words >> np.uint64(11)).astype(np.float64) + 1.0) * _U53  # (0, 1]: log-safe
    return np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * uniform_from_words(angle_words)


# Philox4x64-10 constants (Salmon et al., SC'11): round multipliers and the
# Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
# Blocks per pass of the round loop: the temporaries of a pass stay in
# cache, and the scratch memory stays bounded whatever the block count.
_PHILOX_CHUNK = 8192


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, with the
    high word assembled from 32-bit halves.  No partial sum exceeds
    2**64 - 2**32, so none wraps and the high word is exact."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _HALF
    t = x_lo * m_hi + ((x_lo * m_lo) >> _HALF)
    u = x_hi * m_lo + (t & _LO32)
    hi = x_hi * m_hi + (t >> _HALF) + (u >> _HALF)
    return hi, x * np.uint64(m)


def philox_blocks(seed: int, streams, counters) -> np.ndarray:
    """Philox4x64-10 output blocks for (stream, counter) pairs, (N, 4).

    Row i is the block for counter counters[i] under the key
    (seed, streams[i]): words 4 (c - 1) .. 4 c - 1 of
    ``RandomStream(seed, streams[i])``.  Counters start at 1.
    """
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    keys, ctrs = np.broadcast_arrays(
        np.asarray(streams, dtype=np.uint64).reshape(-1),
        np.asarray(counters, dtype=np.uint64).reshape(-1),
    )
    out = np.empty((len(ctrs), 4), dtype=np.uint64)
    for lo in range(0, len(ctrs), _PHILOX_CHUNK):
        key = keys[lo:lo + _PHILOX_CHUNK]
        c0 = ctrs[lo:lo + _PHILOX_CHUNK]
        c1 = c2 = c3 = np.zeros_like(c0)
        for r in range(_PHILOX_ROUNDS):
            k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
            k1 = key + np.uint64((r * _PHILOX_W[1]) & _MASK64)
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        out[lo:lo + _PHILOX_CHUNK] = np.stack([c0, c1, c2, c3], axis=-1)
    return out


def philox_raw(seed: int, streams, n: int) -> np.ndarray:
    """Words 0..n-1 of many Philox4x64-10 streams at once.

    Row k holds the same words as ``RandomStream(seed, streams[k]).raw(n)``.
    The generator is counter-based: word j of a stream is word j % 4 of the
    block for counter j // 4 + 1 under the key (seed, stream), so every
    word is computed directly, without stepping a generator.
    """
    if n < 0:
        raise ValueError("word count must be nonnegative")
    keys = np.asarray(streams, dtype=np.uint64).reshape(-1)
    blocks = (n + 3) // 4
    counters = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keys))
    words = philox_blocks(seed, np.repeat(keys, blocks), counters)
    return words.reshape(len(keys), 4 * blocks)[:, :n]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    """Scalar knobs of the adaptive optimizer.

    eta      base step size; the per-step size is eta / sqrt(t)
    beta1    first-moment decay, in (0, 1)
    beta2    second-moment decay, in (0, 1)
    lam      decay of the time-dependent first-moment rate
             beta1_t = beta1 * lam**(t-1), in (0, 1)
    epsilon  denominator stabilizer; 0 is allowed only for bound-evaluation
             style runs (the 0/0 update component is then defined as 0)
    alpha    momentum decay of the classical momentum method, in (0, 1);
             unused by the adaptive optimizer
    """

    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 0.999
    epsilon: float = 1e-8
    alpha: float = 0.9

    def __post_init__(self):
        for name in ("eta", "beta1", "beta2", "lam", "epsilon", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0 < self.beta1 < 1:
            raise ValueError(f"beta1 must lie in (0, 1), got {self.beta1}")
        if not 0 < self.beta2 < 1:
            raise ValueError(f"beta2 must lie in (0, 1), got {self.beta2}")
        if not 0 < self.lam < 1:
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.gamma < 1:
            raise ValueError(
                f"beta1**2 / sqrt(beta2) = {self.gamma} must be < 1 "
                "for the regret bound to be finite"
            )

    @property
    def gamma(self) -> float:
        """Decay ratio beta1**2 / sqrt(beta2); must stay below 1."""
        return self.beta1 ** 2 / math.sqrt(self.beta2)


class StepRecord(NamedTuple):
    """ADAM after step t: the weights w_t, the moments and the running powers
    (beta1**t, beta2**t, lam**t) that step t + 1 starts from, and what step t
    saw: its gradient g as checked (1-D float64) and m_hat, v_hat.  The
    arrays are held as they are, not copied."""

    t: int
    w: np.ndarray
    m: np.ndarray
    v: np.ndarray
    pows: tuple[float, float, float]
    g: np.ndarray
    m_hat: np.ndarray
    v_hat: np.ndarray

    @classmethod
    def initial(cls, w0) -> "StepRecord":
        """The state before step 1: a copy of w0, everything else zero."""
        w0 = np.array(w0, dtype=np.float64).reshape(-1)
        zero = np.zeros_like(w0)
        return cls(0, w0, zero, zero, (1.0, 1.0, 1.0), zero, zero, zero)


@dataclass
class Trajectory:
    """A full optimizer run, stored as columns.

    `w` is (T+1, d) with row t = w_t, so row 0 is w_0.  Row t-1 of `g`,
    `m_hat` and `v_hat`, each (T, d), and entry t-1 of `e`, (T,), belong to
    step t; `e` is the objective value at w_{t-1}, as the oracle returned it.
    """

    params: HyperParams
    w: np.ndarray
    g: np.ndarray
    m_hat: np.ndarray
    v_hat: np.ndarray
    e: np.ndarray

    @property
    def T(self) -> int:
        return len(self.e)

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def prefix(self, h: int) -> "Trajectory":
        """The first h steps as views of these columns.  They equal an
        h-step run, because the optimizer does not depend on the horizon."""
        if not 0 <= h <= self.T:
            raise ValueError(f"prefix horizon {h} outside [0, {self.T}]")
        return Trajectory(
            self.params, self.w[:h + 1], self.g[:h], self.m_hat[:h], self.v_hat[:h], self.e[:h]
        )


# ---------------------------------------------------------------------------
# Gradient sequences (objective-free inputs for the inequality checker)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradSequence:
    """Externally supplied T x d gradient matrix with a declared sup bound."""

    d: int
    g: np.ndarray
    g_inf_cap: float

    def __post_init__(self):
        g = np.array(self.g, dtype=np.float64, copy=True)
        if g.ndim == 1:
            g = g.reshape(-1, 1)
        if g.ndim != 2 or g.shape[1] != self.d:
            raise ValueError(f"gradient matrix must be T x {self.d}")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        if not self.g_inf_cap > 0:
            raise ValueError("g_inf_cap must be positive")
        if not np.isfinite(g).all():
            raise ValueError("gradient entries must be finite")
        if g.size and np.max(np.abs(g)) > self.g_inf_cap:
            raise ValueError(
                f"max |g| = {np.max(np.abs(g))} exceeds declared cap {self.g_inf_cap}"
            )

    @property
    def T(self) -> int:
        return self.g.shape[0]


# ---------------------------------------------------------------------------
# Trajectory CSV (one row per (t, i), i is 1-based)
# ---------------------------------------------------------------------------

TRAJECTORY_HEADER = "t,i,w_before,g,e,m_hat,v_hat,w_after"
_CSV_STEPS = 4096  # steps per block of rows, which bounds the temporary lists
_FMT17 = "%.17g".__mod__  # fmt17 of a Python float


def trajectory_to_csv(traj: Trajectory, f) -> None:
    """Write the CSV into the text file object f, one block of rows at a
    time, formatting each distinct value once."""
    f.write(TRAJECTORY_HEADER + "\n")
    d = traj.d
    for lo in range(0, traj.T, _CSV_STEPS):
        hi = min(lo + _CSV_STEPS, traj.T)
        w = list(map(_FMT17, traj.w[lo:hi + 1].ravel().tolist()))
        columns = (
            [f"{t},{i}" for t in range(lo + 1, hi + 1) for i in range(1, d + 1)],
            w,  # zip stops after the (hi - lo) * d rows of the first column
            map(_FMT17, traj.g[lo:hi].ravel().tolist()),
            [s for s in map(_FMT17, traj.e[lo:hi].tolist()) for _ in range(d)],
            map(_FMT17, traj.m_hat[lo:hi].ravel().tolist()),
            map(_FMT17, traj.v_hat[lo:hi].ravel().tolist()),
            w[d:],  # w_after of step t is w_before of step t + 1
        )
        f.write("\n".join(map(",".join, zip(*columns))))
        f.write("\n")


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise: a and b hold the same float64 bit pattern."""
    return a.view(np.uint64) == b.view(np.uint64)


def trajectory_from_csv(text: str, params: HyperParams) -> Trajectory:
    """Rebuild a trajectory from its CSV serialization.

    The CSV does not carry the hyperparameters, so they are supplied by the
    caller.  Rows must run t = 1..T with i = 1..d inside each t.  The CSV
    repeats values that the columns hold once (w_before of step t+1 is
    w_after of step t, and e is repeated on every coordinate row), so the
    repeats must agree bit for bit.
    """
    lines = text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError("missing or malformed trajectory header")
    if not any(ln.strip() for ln in lines[1:]):
        raise ValueError("trajectory CSV has no data rows")
    # a (T*d, 8) float array, parsed in C; a per-row Python parser holds
    # several times the CSV's size in small objects
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None)
    if rows.shape[1] != 8:
        raise ValueError(f"trajectory rows have {rows.shape[1]} fields, expected 8")
    n = len(rows)
    d = np.max(rows[:, 1])
    if not 1 <= d <= n or n % int(d):
        raise ValueError(f"{n} rows do not form whole steps of d={d:g} coordinates")
    d = int(d)
    T = n // d
    ts = np.repeat(np.arange(1, T + 1), d)
    cs = np.tile(np.arange(1, d + 1), T)
    bad = np.flatnonzero((rows[:, 0] != ts) | (rows[:, 1] != cs))
    if len(bad):
        k = bad[0]
        raise ValueError(
            f"data row {k + 1} is not t={ts[k]}, i={cs[k]}: rows must run t = 1..T, i = 1..d"
        )
    cols = rows[:, 2:].reshape(T, d, 6)
    w_before, g, e, m_hat, v_hat, w_after = (cols[:, :, k] for k in range(6))
    moved = ~_same_bits(w_before[1:], w_after[:-1])
    if np.any(moved):
        t, i = np.argwhere(moved)[0]
        raise ValueError(f"w_before at t={t + 2}, i={i + 1} differs from w_after at t={t + 1}")
    split = ~_same_bits(e, e[:, :1])
    if np.any(split):
        t = np.argwhere(split)[0][0]
        raise ValueError(f"e differs between the coordinate rows of t={t + 1}")
    if np.any(v_hat < 0):
        t, i = np.argwhere(v_hat < 0)[0]
        raise ValueError(f"negative v_hat at t={t + 1}, i={i + 1}")
    return Trajectory(params, np.concatenate([w_before[:1], w_after]), g, m_hat, v_hat, e[:, 0])


# ---------------------------------------------------------------------------
# Key-value config text (shared by problem specs and run configs)
# ---------------------------------------------------------------------------

def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out
