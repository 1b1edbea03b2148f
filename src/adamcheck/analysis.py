"""Regret measurement, the three-term regret bound, the unproven
moment-ratio inequality, and the randomized counterexample search.

Bound-side quantities are always recomputed from recorded trajectories with
epsilon-free semantics: the stabilizer only affects how iterates were
generated, never how the bound terms are evaluated.

The moment-ratio inequality, per coordinate i of a T x d gradient matrix:

    sum_t m_hat[t,i]**2 / sqrt(t * v_hat[t,i])
        <=  2 / ((1 - gamma) * sqrt(1 - beta2)) * ||g[1:T, i]||_2

with gamma = beta1**2 / sqrt(beta2) < 1.  It is probed numerically, never
assumed: near-misses are enclosed in outward-rounded interval arithmetic,
which proves the sign of the real slack unless the enclosure straddles 0;
only those are re-evaluated with software floats of EXACT_PRECISION_BITS
(200) bits.  Confirmed violations are serialized for replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    AdamCheckError,
    GradSequence,
    HyperParams,
    STREAM_FUZZ_BASE,
    Trajectory,
    box_muller_polar,
    fmt17,
    integers_from_words,
    parse_kv_text,
    philox_blocks,
    uniform_from_words,
)
from .optimizers import moment_step
from .problems import ConvexProblem, objective_values

__all__ = [
    "InsufficientDataError",
    "BoundReport",
    "ConjectureReport",
    "error_sum",
    "theorem_bound",
    "bound_reports_csv",
    "bound_report_text",
    "conjecture_sides",
    "conjecture_sides_exact",
    "geometric_sum_closed_form",
    "geometric_sum_bound_check",
    "vhat_bound_check",
    "average_regret_series",
    "default_param_grid",
    "default_fuzz_grid",
    "FuzzCandidate",
    "FuzzSummary",
    "conjecture_fuzz",
    "fuzz_summary_text",
    "CounterexampleRecord",
    "write_counterexample",
    "load_counterexample",
    "replay_counterexample",
    "EXACT_PRECISION_BITS",
    "DEFAULT_SCREEN_FACTOR",
    "FUZZ_BATCH",
    "FUZZ_FAMILIES",
]

EXACT_PRECISION_BITS = 200      # significand bits for escalated re-evaluation
DEFAULT_SCREEN_FACTOR = 1e-6    # near-miss when slack < factor * rhs
FUZZ_BATCH = 2048               # fuzz trials evaluated per (B, t_max, d) batch


class InsufficientDataError(AdamCheckError):
    """Too few data points for the requested series computation."""


# ---------------------------------------------------------------------------
# Regret and the three-term bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Measured regret, measured diameters/gradient bounds, and the three
    bound terms for one run."""

    T: int
    d: int
    regret: float
    D_inf: float
    D_2: float
    G_inf: float
    G_2: float
    term1: float
    term2: float
    term3: float
    bound: float
    slack: float


def error_sum(traj: Trajectory, problem: ConvexProblem, w_star) -> float:
    """Cumulative excess objective sum_t (e_t(w_t) - e_t(w*)), where w_t is
    the iterate at which the step-t gradient was taken."""
    w_star = np.asarray(w_star, dtype=np.float64).reshape(-1)
    if len(w_star) != traj.d:
        raise ValueError(f"w_star has length {len(w_star)}, trajectory d={traj.d}")
    missing = np.flatnonzero(np.isnan(traj.e))
    if len(missing):
        raise ValueError(f"step t={missing[0] + 1} carries no objective value")
    # a running total from +0.0, in t order: np.sum's pairwise order moves bits
    excess = traj.e - objective_values(problem, w_star, traj.T)
    return float(np.add.accumulate(np.concatenate(([0.0], excess)))[-1])


_D2_GROUP = 64  # rows per group, and groups per slice, in _l2_diameter


def _sum_sq(diffs):
    """Sum of the squares of the coordinate arrays `diffs`, added in index
    order: numpy's own sums pick their order by the shape of the array."""
    total = 0.0
    for diff in diffs:
        total = total + diff * diff
    return total


def _l2_diameter(pts: np.ndarray) -> float:
    """Exact max pairwise 2-norm distance; close to O(n d) on trajectories.

    The value is the largest squared distance sum_k (p_ik - p_jk)**2,
    summed by _sum_sq: the full O(n**2) scan, bit for bit.  Row 0's
    distances to every row give a first lower bound.  The rows then form
    groups of _D2_GROUP consecutive rows, and a pair of groups is skipped
    when its box bound, _sum_sq of far_k = max(hi_a,k - lo_b,k,
    hi_b,k - lo_a,k), does not exceed the lower bound.  Rounding to nearest
    is monotone, so the box bound is >= every computed distance in the two
    groups, and the pruning is exact.  Partners are evaluated _D2_GROUP
    groups at a time, so a block of distances holds at most _D2_GROUP**3.
    """
    n, d = pts.shape
    best = float(np.max(_sum_sq(pts[:, k] - pts[0, k] for k in range(d))))
    starts = np.arange(0, n, _D2_GROUP)
    lo = np.minimum.reduceat(pts, starts)
    hi = np.maximum.reduceat(pts, starts)
    offsets = np.arange(_D2_GROUP)
    for a, start in enumerate(starts):
        rows = pts[start:start + _D2_GROUP]
        reach = _sum_sq(np.maximum(hi[a] - lo[a:], hi[a:] - lo[a]).T)
        partners = a + np.flatnonzero(reach > best)
        for s in range(0, len(partners), _D2_GROUP):
            idx = (starts[partners[s:s + _D2_GROUP], None] + offsets).ravel()
            cols = pts[idx[idx < n]]
            sq = _sum_sq(rows[:, None, k] - cols[None, :, k] for k in range(d))
            best = max(best, float(sq.max()))
    return math.sqrt(best)


def theorem_bound(traj: Trajectory, w_star, problem: ConvexProblem) -> BoundReport:
    """Evaluate every piece of the regret bound on a finished run.

    The diameters are measured a posteriori over the realized iterates
    {w_0, ..., w_T} together with w*; the gradient bounds over the recorded
    gradients.  term2 is T-free; term1 uses the final v_hat; term3 uses the
    per-coordinate gradient-history norms.
    """
    if traj.T == 0:
        raise ValueError("trajectory is empty")
    p = traj.params
    T, d = traj.T, traj.d
    w_star = np.asarray(w_star, dtype=np.float64).reshape(-1)

    regret = error_sum(traj, problem, w_star)

    pts = np.vstack([traj.w, w_star])
    d_inf = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    d_2 = _l2_diameter(pts)

    grads = traj.g
    g_inf = float(np.max(np.abs(grads))) if grads.size else 0.0
    g_2 = float(np.max(np.linalg.norm(grads, axis=1))) if grads.size else 0.0

    v_hat_final = traj.v_hat[-1]
    term1 = d_inf ** 2 / (2.0 * p.eta * (1.0 - p.beta1)) * float(
        np.sum(np.sqrt(T * v_hat_final))
    )
    term2 = d * d_inf ** 2 * g_inf / (
        2.0 * p.eta * (1.0 - p.beta1) * (1.0 - p.lam) ** 2
    )
    term3 = (
        p.eta
        * (1.0 + p.beta1)
        / ((1.0 - p.beta1) * math.sqrt(1.0 - p.beta2) * (1.0 - p.gamma))
        * float(np.sum(np.linalg.norm(grads, axis=0)))
    )
    bound = term1 + term2 + term3
    return BoundReport(
        T=T,
        d=d,
        regret=regret,
        D_inf=d_inf,
        D_2=d_2,
        G_inf=g_inf,
        G_2=g_2,
        term1=term1,
        term2=term2,
        term3=term3,
        bound=bound,
        slack=bound - regret,
    )


_BOUND_FIELDS = (
    "T", "d", "regret", "D_inf", "D_2", "G_inf", "G_2",
    "term1", "term2", "term3", "bound", "slack",
)


def bound_reports_csv(reports: list[BoundReport]) -> str:
    lines = [",".join(_BOUND_FIELDS)]
    for r in reports:
        cells = []
        for name in _BOUND_FIELDS:
            value = getattr(r, name)
            cells.append(str(value) if name in ("T", "d") else fmt17(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def bound_report_text(r: BoundReport) -> str:
    return "\n".join(
        [
            f"horizon T            : {r.T}",
            f"dimension d          : {r.d}",
            f"regret R(T)          : {fmt17(r.regret)}",
            f"measured D_inf       : {fmt17(r.D_inf)}",
            f"measured D_2         : {fmt17(r.D_2)}",
            f"measured G_inf       : {fmt17(r.G_inf)}",
            f"measured G_2         : {fmt17(r.G_2)}",
            f"term 1 (v_hat)       : {fmt17(r.term1)}",
            f"term 2 (lambda decay): {fmt17(r.term2)}",
            f"term 3 (grad norms)  : {fmt17(r.term3)}",
            f"bound (sum of terms) : {fmt17(r.bound)}",
            f"slack (bound - R(T)) : {fmt17(r.slack)}",
        ]
    )


# ---------------------------------------------------------------------------
# Moment-ratio inequality sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    """Per-coordinate left/right sides of the moment-ratio inequality."""

    lhs: np.ndarray
    rhs: np.ndarray
    min_slack: float
    violated: bool


def _rhs_coefficient(p: HyperParams) -> float:
    return 2.0 / ((1.0 - p.gamma) * math.sqrt(1.0 - p.beta2))


def conjecture_sides_exact(
    seq: GradSequence,
    p: HyperParams,
    rhs_coeff: float | None = None,
) -> tuple[list, list, float]:
    """Extended-precision evaluation of both sides (software floats with an
    `EXACT_PRECISION_BITS` significand).  It decides a near miss whose
    interval enclosure straddles 0.  Returns (lhs, rhs, min_slack) with the
    sides as mpmath values."""
    # imported here: only straddling enclosures reach this pass
    from mpmath import mp, mpf, sqrt as mpsqrt

    g = seq.g
    T, d = g.shape
    with mp.workprec(EXACT_PRECISION_BITS):
        beta1, beta2, lam = mpf(p.beta1), mpf(p.beta2), mpf(p.lam)
        if rhs_coeff is None:
            gamma = beta1 ** 2 / mpsqrt(beta2)
            coeff = 2 / ((1 - gamma) * mpsqrt(1 - beta2))
        else:
            coeff = mpf(rhs_coeff)
        lhs, rhs = [], []
        for i in range(d):
            m = mpf(0)
            v = mpf(0)
            pows = (mpf(1), mpf(1), mpf(1))
            acc = mpf(0)
            sumsq = mpf(0)
            for t in range(1, T + 1):
                gt = mpf(float(g[t - 1, i]))
                m, v, m_hat, v_hat, pows = moment_step(m, v, gt, pows, beta1, beta2, lam)
                if v_hat > 0:
                    acc += m_hat * m_hat / mpsqrt(t * v_hat)
                sumsq += gt * gt
            lhs.append(acc)
            rhs.append(coeff * mpsqrt(sumsq))
        min_slack = min(float(r - l) for l, r in zip(lhs, rhs))
    return lhs, rhs, min_slack


def conjecture_sides(seq: GradSequence, p: HyperParams) -> ConjectureReport:
    """Both sides of the moment-ratio inequality for one gradient sequence.

    A near miss (`_near`) is decided as the fuzzer decides it (`_decide`):
    the sequence is violated only when its interval enclosure, or the
    200-bit pass where that straddles 0, proves it.
    """
    lhs, rhs = _sides(seq.g, p)
    min_slack = float(np.min(rhs - lhs)) if len(lhs) else math.inf
    violated = bool(_near(lhs, rhs)) and _decide(
        [(FuzzCandidate(label="sides", params=p, seq=seq), lhs, rhs)], None
    )[0].outcome == "confirmed"
    return ConjectureReport(lhs=lhs, rhs=rhs, min_slack=min_slack, violated=violated)


# ---------------------------------------------------------------------------
# Auxiliary chains used by the bound's derivation
# ---------------------------------------------------------------------------

def geometric_sum_closed_form(lam: float, T: int) -> float:
    """sum_{t=0}^{T-1} lam**t * t via the closed form
    ((T-1) lam**(T+1) - T lam**T + lam) / (lam - 1)**2."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    if T < 1:
        raise ValueError("T must be at least 1")
    return ((T - 1) * lam ** (T + 1) - T * lam ** T + lam) / (lam - 1.0) ** 2


def geometric_sum_bound_check(p: HyperParams, T: int) -> tuple[float, float]:
    """Direct sum_{t=1..T} beta1_t/(1-beta1_t) * sqrt(t) next to its
    horizon-free majorant 1 / ((1-beta1)(1-lam)**2)."""
    if T < 1:
        raise ValueError("T must be at least 1")
    t = np.arange(1, T + 1, dtype=np.float64)
    b1t = p.beta1 * p.lam ** (t - 1.0)
    lhs = float(np.sum(b1t / (1.0 - b1t) * np.sqrt(t)))
    rhs = 1.0 / ((1.0 - p.beta1) * (1.0 - p.lam) ** 2)
    return lhs, rhs


def vhat_bound_check(traj: Trajectory, g_inf: float) -> bool:
    """True iff sqrt(v_hat[t, i]) <= g_inf * (1 + 1e-12) for every t, i.

    Precondition: every recorded |g[t, i]| <= g_inf; a violation of the
    precondition is an error naming the offending (t, i).
    """
    over = np.abs(traj.g) > g_inf
    if np.any(over):
        t, i = np.argwhere(over)[0]
        raise ValueError(
            f"|g| = {abs(traj.g[t, i])} exceeds declared bound {g_inf} at (t={t + 1}, i={i + 1})"
        )
    return bool(np.all(np.sqrt(traj.v_hat) <= g_inf * (1.0 + 1e-12)))


def average_regret_series(
    reports: list[BoundReport],
) -> tuple[list[tuple[int, float, float]], float]:
    """(T, R(T)/T, bound(T)/T) rows plus the log-log slope of bound(T)/T
    fitted over the largest decade of horizons (T >= max(T)/10)."""
    if len(reports) < 3:
        raise InsufficientDataError("need at least 3 reports to fit a rate")
    ts = [r.T for r in reports]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("reports must be ordered by strictly increasing T")
    if len({r.d for r in reports}) != 1:
        raise ValueError("reports must share one dimension")
    rows = [(r.T, r.regret / r.T, r.bound / r.T) for r in reports]
    cutoff = ts[-1] / 10.0
    sel = [(t, b) for (t, _, b) in rows if t >= cutoff]
    if len(sel) < 2:
        sel = [(t, b) for (t, _, b) in rows[-2:]]
    if any(b <= 0 for _, b in sel):
        raise ValueError("bound values must be positive for a log-log fit")
    x = np.log([t for t, _ in sel])
    y = np.log([b for _, b in sel])
    slope = float(np.polyfit(x, y, 1)[0])
    return rows, slope


# ---------------------------------------------------------------------------
# Default grids
# ---------------------------------------------------------------------------

def default_param_grid() -> list[HyperParams]:
    """Hyperparameter grid for bound experiments; lam stays close to 1 so
    the (1-lam)**-2 term remains finite at desk scale."""
    grid = []
    for beta1, beta2 in ((0.9, 0.999), (0.5, 0.9), (0.8, 0.99)):
        for lam in (0.999, 0.99):
            grid.append(
                HyperParams(eta=0.001, beta1=beta1, beta2=beta2, lam=lam, epsilon=1e-8)
            )
    return grid


def default_fuzz_grid() -> list[HyperParams]:
    """(beta1, beta2, lambda) triples for the counterexample search; all
    have beta1**2/sqrt(beta2) < 1, several close to the boundary."""
    triples = [
        (0.9, 0.999, 0.999),
        (0.9, 0.999, 0.9),
        (0.9, 0.99, 0.99),
        (0.8, 0.99, 0.999),
        (0.5, 0.9, 0.99),
        (0.3, 0.5, 0.9),
        (0.95, 0.9999, 0.999),
        (0.99, 0.9999, 0.9999),
        (0.7, 0.6, 0.95),
    ]
    return [
        HyperParams(eta=0.001, beta1=b1, beta2=b2, lam=lam, epsilon=1e-8)
        for b1, b2, lam in triples
    ]


# ---------------------------------------------------------------------------
# Counterexample records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleRecord:
    """Replayable snapshot of one decided near miss.

    `rhs_coeff` is normally the canonical 2/((1-gamma) sqrt(1-beta2));
    synthetic records used to exercise the detection machinery may carry a
    different coefficient and say so in the file.  `min_slack` is the
    double slack, `enclosure` holds the real min slack, and
    `exact_min_slack` is the value the outcome rests on (see
    `_decided_slack`).  `outcome` ("confirmed" or "cleared") and `path`,
    the file written or read, live in memory only: the file carries
    neither, and only confirmed records are written.
    """

    label: str
    params: HyperParams
    T: int
    d: int
    g: np.ndarray
    g_inf_cap: float
    rhs_coeff: float
    lhs: np.ndarray
    rhs: np.ndarray
    min_slack: float
    exact_min_slack: float
    enclosure: tuple[float, float]
    outcome: str = "confirmed"
    path: str | None = None


def _fmt_interval(bounds: tuple[float, float]) -> str:
    return f"[{fmt17(bounds[0])}, {fmt17(bounds[1])}]"


def write_counterexample(path: str | Path, rec: CounterexampleRecord) -> None:
    p = rec.params
    lines = [
        "# moment-ratio inequality counterexample record",
        f"label = {rec.label}",
        f"eta = {fmt17(p.eta)}",
        f"beta1 = {fmt17(p.beta1)}",
        f"beta2 = {fmt17(p.beta2)}",
        f"lambda = {fmt17(p.lam)}",
        f"epsilon = {fmt17(p.epsilon)}",
        f"alpha = {fmt17(p.alpha)}",
        f"T = {rec.T}",
        f"d = {rec.d}",
        f"g_inf_cap = {fmt17(rec.g_inf_cap)}",
        f"rhs_coeff = {fmt17(rec.rhs_coeff)}",
        "lhs = " + ",".join(fmt17(v) for v in rec.lhs),
        "rhs = " + ",".join(fmt17(v) for v in rec.rhs),
        f"min_slack = {fmt17(rec.min_slack)}",
        f"exact_min_slack = {fmt17(rec.exact_min_slack)}",
        f"enclosure = {_fmt_interval(rec.enclosure)}",
    ]
    for t in range(rec.T):
        lines.append(f"g{t + 1} = " + ",".join(fmt17(v) for v in rec.g[t]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_counterexample(path: str | Path) -> CounterexampleRecord:
    kv = parse_kv_text(Path(path).read_text())

    def get(key: str) -> str:
        if key not in kv:
            raise ValueError(f"{path}: counterexample record is missing key {key!r}")
        return kv[key]

    params = HyperParams(
        eta=float(get("eta")),
        beta1=float(get("beta1")),
        beta2=float(get("beta2")),
        lam=float(get("lambda")),
        epsilon=float(get("epsilon")),
        alpha=float(get("alpha")),
    )
    T, d = int(get("T")), int(get("d"))
    g = np.array(
        [[float(c) for c in get(f"g{t + 1}").split(",")] for t in range(T)]
    ).reshape(T, d)
    return CounterexampleRecord(
        label=get("label"),
        params=params,
        T=T,
        d=d,
        g=g,
        g_inf_cap=float(get("g_inf_cap")),
        rhs_coeff=float(get("rhs_coeff")),
        lhs=np.array([float(c) for c in get("lhs").split(",")]),
        rhs=np.array([float(c) for c in get("rhs").split(",")]),
        min_slack=float(get("min_slack")),
        exact_min_slack=float(get("exact_min_slack")),
        enclosure=tuple(float(c) for c in get("enclosure").strip("[]").split(",")),
        path=str(path),
    )


def replay_counterexample(path: str | Path) -> tuple[CounterexampleRecord, float]:
    """Re-evaluate a serialized record from its gradient matrix alone and
    return (record, recomputed min slack) for comparison against the
    recorded value."""
    rec = load_counterexample(path)
    lhs, rhs = _sides(rec.g, rec.params, rhs_coeff=rec.rhs_coeff)
    return rec, float(np.min(rhs - lhs))


# ---------------------------------------------------------------------------
# Randomized counterexample search
# ---------------------------------------------------------------------------

FUZZ_FAMILIES = ("uniform", "gaussian", "sparse", "adversarial")


@dataclass(frozen=True)
class FuzzCandidate:
    """An externally supplied candidate pushed through the same screening,
    escalation, and serialization pipeline as random trials.

    `rhs_coeff=None` means the canonical coefficient; tests inject synthetic
    known-violating candidates by shrinking it.
    """

    label: str
    params: HyperParams
    seq: GradSequence
    rhs_coeff: float | None = None


@dataclass
class FuzzSummary:
    n_trials: int
    t_max: int
    d: int
    seed: int
    grid: list[HyperParams]
    family_counts: dict[str, int] = field(default_factory=dict)
    min_slack: float = math.inf
    argmin_label: str | None = None
    argmin_params: HyperParams | None = None
    argmin_seq: GradSequence | None = None
    min_rel_slack: float = math.inf
    argmin_rel_label: str | None = None
    near_misses: list[CounterexampleRecord] = field(default_factory=list)

    @property
    def violations(self) -> list[CounterexampleRecord]:
        """The confirmed near misses, in order."""
        return [r for r in self.near_misses if r.outcome == "confirmed"]

    @property
    def violation_found(self) -> bool:
        return len(self.violations) > 0


def _ragged(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges [starts[i], starts[i] + counts[i])."""
    total = int(counts.sum())
    return np.arange(total) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _trial_words(seed: int, streams: np.ndarray, head: np.ndarray, counts: np.ndarray):
    """The first counts[i] (>= 1) words of each fuzz stream, flat.

    Returns (words, offsets): word j of stream i is words[offsets[i] + j].
    `head` holds every stream's first block, which is not drawn again.
    """
    blocks = (counts + 3) // 4
    first = np.cumsum(blocks) - blocks
    rest = np.ones(int(blocks.sum()), dtype=bool)
    rest[first] = False
    out = np.empty((len(rest), 4), dtype=np.uint64)
    out[first] = head
    counters = _ragged(blocks - 1, np.full(len(blocks), 2))
    out[rest] = philox_blocks(seed, np.repeat(streams, blocks - 1), counters)
    return out.reshape(-1), 4 * first


# Words drawn per pass of _trial_batch: bounds its scratch memory, whatever
# the batch shape, to a few MB.
_TRIAL_WORDS = 1 << 16


def _trial_batch(
    seed: int, start: int, stop: int, t_max: int, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(order, family, T, gradients) of fuzz trials start..stop-1, in array
    operations.

    Trial k reads the words of stream (seed, STREAM_FUZZ_BASE + k): word 0
    gives its family, word 1 its horizon T, and the words after them its
    n = T d gradient entries in row-major order (see README, "Determinism
    and randomness").  Only the words a trial reads are drawn, each at its
    computed counter.  Every value is bitwise the value the stream's
    documented conversions give.  The batch's rows run longest horizon
    first, ties in trial order, as `_batch_sides` steps them: row r holds
    trial start + order[r], its family, its T and its gradients, in a
    (count, t_max, d) array that is zero beyond each row's T.
    """
    count = stop - start
    g = np.zeros((count, t_max, d))
    streams = STREAM_FUZZ_BASE + np.arange(start, stop, dtype=np.uint64)
    head = philox_blocks(seed, streams, np.ones(count, dtype=np.uint64))
    fam = integers_from_words(head[:, 0], len(FUZZ_FAMILIES))
    T = 1 + integers_from_words(head[:, 1], t_max)
    order = np.argsort(-T, kind="stable")
    row = np.argsort(order)  # the row of each trial
    n = T * d
    p = (n + 1) // 2
    # words read per trial; an adversarial trial reads 1 to 3 spike triples
    counts = np.choose(fam, (2 + n, 2 + 2 * p, 3 + 2 * n, 13 + n))
    part = (np.cumsum(counts) - counts) // _TRIAL_WORDS
    flat = g.reshape(-1)
    for ks in np.split(np.arange(count), np.flatnonzero(np.diff(part)) + 1):
        words, off = _trial_words(seed, streams[ks], head[ks], counts[ks])
        for f in range(len(FUZZ_FAMILIES)):
            sel = ks[fam[ks] == f]
            if len(sel):
                _fill_family(flat, f, words, off[sel - ks[0]], row[sel] * (t_max * d), T[sel], d)
    return order, fam[order], T[order], g


def _fill_family(
    flat: np.ndarray, f: int, words: np.ndarray, off: np.ndarray, base: np.ndarray,
    T: np.ndarray, d: int,
) -> None:
    """Write the gradients of trials of family f into a flat batch: trial i
    reads word j at words[off[i] + j], and its entry j goes to
    flat[base[i] + j].  Every entry is bounded by 1.  Conversions follow
    `RandomStream` operation by operation, so the values agree bit for bit."""
    n = T * d

    def uniforms(counts, first):
        return uniform_from_words(words[_ragged(counts, first)])

    if f == 0:
        flat[_ragged(n, base)] = -1.0 + 2.0 * uniforms(n, off + 2)
    elif f == 1:
        # pair q: radius word 2 + q, angle word 2 + p + q; the cosine normal
        # is entry q, the sine normal entry p + q when that is below n
        p = (n + 1) // 2
        r, theta = box_muller_polar(words[_ragged(p, off + 2)], words[_ragged(p, off + 2 + p)])
        flat[_ragged(p, base)] = np.clip(0.5 * (r * np.cos(theta)), -1.0, 1.0)
        sines = np.clip(0.5 * (r * np.sin(theta)), -1.0, 1.0)
        keep = _ragged(p, np.zeros_like(p)) < np.repeat(n - p, p)
        flat[_ragged(p, base + p)[keep]] = sines[keep]
    elif f == 2:
        keep = 0.05 + (0.5 - 0.05) * uniform_from_words(words[off + 2])
        values = -1.0 + 2.0 * uniforms(n, off + 3)
        mask = uniforms(n, off + 3 + n) < np.repeat(keep, n)
        flat[_ragged(n, base)] = values * mask  # keeps the -0.0 entries
    else:
        # Long runs of tiny gradients (second moment decays) broken by full
        # scale spikes late in the sequence: the stress pattern for the
        # m_hat**2 / sqrt(v_hat) ratio.  The magnitude is one scalar libm
        # pow per trial, as in the stream's conversion: numpy's vector
        # power can differ in the last bit.
        exps = -8.0 + (-2.0 - -8.0) * uniform_from_words(words[off + 2])
        mag = np.array([10.0 ** x for x in exps.tolist()])
        flat[_ragged(n, base)] = np.repeat(-mag, n) + np.repeat(mag - -mag, n) * uniforms(n, off + 3)
        n_spikes = 1 + integers_from_words(words[off + 3 + n], 3)
        half = T // 2
        for s in range(3):  # in order: a later spike overwrites an earlier one
            w = off + 4 + n + 3 * s
            pos = np.minimum(half + integers_from_words(words[w], np.maximum(1, T - half)), T - 1)
            coord = integers_from_words(words[w + 1], d)
            sign = np.where(uniform_from_words(words[w + 2]) < 0.5, 1.0, -1.0)
            live = n_spikes > s
            flat[(base + pos * d + coord)[live]] = sign[live]


def _batch_sides(
    g: np.ndarray,
    t_arr: np.ndarray,
    grid: list[HyperParams],
    rhs_coeff: float | list[float | None] | None = None,
    grid_index: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized double-precision sides for a batch of trials.

    Runs `moment_step` (no weight update) and accumulates the ratio sum
    with the 0/0 -> 0 convention: v_hat = 0 forces m_hat = 0.  g is
    (B, t_max, d); row b holds a trial of horizon t_arr[b], run with
    grid[grid_index[b]] (grid[b] when `grid_index` is None).  `rhs_coeff`
    replaces the canonical coefficient of every row, or of each row given
    a list (None keeps the canonical one).

    Rows run longest horizon first, as `_trial_batch` and the injected
    candidates' batches lay them out; rows in another order run as a
    sorted copy.  Step t updates only the prefix of rows with T >= t, so
    nothing beyond a row's horizon is read, and the loop ends with the
    longest row.  A row's recursion never reads another row, so each row's
    sides are those of the row alone, bit for bit.
    """
    b, _, d = g.shape
    index = np.arange(b) if grid_index is None else np.asarray(grid_index)
    coeff = np.array([_rhs_coefficient(p) for p in grid])[index]
    if rhs_coeff is not None:
        given = rhs_coeff if isinstance(rhs_coeff, list) else [rhs_coeff] * b
        coeff = np.array([c if r is None else r for c, r in zip(coeff.tolist(), given)])
    order = None
    if np.any(t_arr[1:] > t_arr[:-1]):
        order = np.argsort(-t_arr, kind="stable")
        g, t_arr, index, coeff = g[order], t_arr[order], index[order], coeff[order]

    if np.all(index == index[0]):
        # one parameter set (every B = 1 call): plain-float coefficients
        # give the same IEEE products as a column of equal entries, and
        # save the eight small array operations per step that made B = 1
        # calls about 1.5x slower
        p = grid[index[0]]
        beta1, beta2, lam, pows = p.beta1, p.beta2, p.lam, (1.0, 1.0, 1.0)
        columns = False
    else:
        beta1, beta2, lam = (np.array([getattr(p, k) for p in grid])[index][:, None]
                             for k in ("beta1", "beta2", "lam"))
        # columns of ones: 1 * x is x, so the powers match a scalar start
        pows = (np.ones((b, 1)),) * 3
        columns = True

    m = np.zeros((b, d))
    v = np.zeros((b, d))
    lhs = np.zeros((b, d))
    sumsq = np.zeros((b, d))
    lhs_live, sumsq_live = lhs, sumsq
    # rows with T >= t, for t = 1 .. the longest horizon
    live = np.searchsorted(-t_arr, -np.arange(1, int(t_arr[0]) + 1), side="right")
    n = b
    for t, n_t in enumerate(live.tolist(), start=1):
        if n_t < n:
            n = n_t
            m, v, lhs_live, sumsq_live = m[:n], v[:n], lhs[:n], sumsq[:n]
            if columns:
                beta1, beta2, lam = beta1[:n], beta2[:n], lam[:n]
                pows = tuple(x[:n] for x in pows)
        gt = g[:n, t - 1, :]
        m, v, m_hat, v_hat, pows = moment_step(m, v, gt, pows, beta1, beta2, lam)
        sumsq_live += gt * gt
        denom = np.sqrt(t * v_hat)
        # t >= 1, so denom > 0 exactly where v_hat > 0
        pos = denom > 0.0
        lhs_live += np.where(pos, m_hat * m_hat / np.where(pos, denom, 1.0), 0.0)
    rhs = coeff[:, None] * np.sqrt(sumsq)
    if order is not None:
        row = np.argsort(order)
        return lhs[row], rhs[row]
    return lhs, rhs


def _sides(
    g: np.ndarray, p: HyperParams, rhs_coeff: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Double-precision sides of one T x d matrix: the batch of one."""
    lhs, rhs = _batch_sides(g[None], np.array([len(g)]), [p], rhs_coeff)
    return lhs[0], rhs[0]


class _Interval:
    """[lo, hi] of float64 arrays in which every +, -, *, / and sqrt result
    is widened one ulp outward.  A round-to-nearest result lies within half
    an ulp of the exact one, so each result holds the real-arithmetic value
    of the operation on any points of its operands.  Only what
    `moment_step` and the inequality sides use is defined.

    An endpoint that is not NaN is a valid bound.  Division by an interval
    holding 0 gives [NaN, NaN], and NaN spreads to every result it enters,
    so comparisons against it decide nothing.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    @classmethod
    def _out(cls, lo, hi):
        return cls(np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))

    @classmethod
    def _hull(cls, a, b, c, d):
        # np.minimum and np.maximum propagate NaN
        return cls._out(np.minimum(np.minimum(a, b), np.minimum(c, d)),
                        np.maximum(np.maximum(a, b), np.maximum(c, d)))

    def __add__(self, o):
        return self._out(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o):
        return self._out(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, k):
        return self._out(k - self.hi, k - self.lo)

    def __mul__(self, o):
        return self._hull(self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)

    def __truediv__(self, o):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = self._hull(self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        zero = (o.lo <= 0.0) & (o.hi >= 0.0)
        return type(self)(np.where(zero, np.nan, q.lo), np.where(zero, np.nan, q.hi))

    def sqrt(self):
        return self._out(np.sqrt(np.maximum(self.lo, 0.0)), np.sqrt(self.hi))


class _ScalarInterval(_Interval):
    """`_Interval` on Python floats: for one sequence, a scalar loop is
    about 8x faster than the same loop on arrays of one element."""

    __slots__ = ()

    @classmethod
    def _out(cls, lo, hi):
        return cls(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))

    @classmethod
    def _hull(cls, a, b, c, d):
        if math.isnan(a + b + c + d):  # builtin min and max may skip a NaN
            return cls(math.nan, math.nan)
        return cls._out(min(a, b, c, d), max(a, b, c, d))

    def __truediv__(self, o):
        if o.lo <= 0.0 <= o.hi:
            return _ScalarInterval(math.nan, math.nan)
        return self._hull(self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)

    def sqrt(self):
        return self._out(math.sqrt(max(self.lo, 0.0)), math.sqrt(self.hi))


def _where(mask: np.ndarray, a: _Interval, b: _Interval) -> _Interval:
    return _Interval(np.where(mask, a.lo, b.lo), np.where(mask, a.hi, b.hi))


def _coeff_enclosure(p: HyperParams, rhs_coeff: float | None) -> _ScalarInterval:
    """The rhs coefficient: `rhs_coeff` as a point, or an enclosure of the
    canonical 2 / ((1 - gamma) sqrt(1 - beta2)) of the double parameters."""
    if rhs_coeff is not None:
        return _ScalarInterval(rhs_coeff, rhs_coeff)
    beta1 = _ScalarInterval(p.beta1, p.beta1)
    beta2 = _ScalarInterval(p.beta2, p.beta2)
    gamma = beta1 * beta1 / beta2.sqrt()
    return _ScalarInterval(2.0, 2.0) / ((1 - gamma) * (1 - beta2).sqrt())


def _slack_enclosure(
    g: np.ndarray,
    t_arr: np.ndarray,
    params: list[HyperParams],
    rhs_coeffs: list[float | None],
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): per row of a batch, an enclosure of the real-arithmetic
    min slack over coordinates, for the double inputs.

    The batch is laid out as for `_batch_sides`, with one coefficient per
    row (None for the canonical one), and runs `moment_step` on
    `_Interval` values.  A term counts from the first nonzero gradient of
    its coordinate on: exactly where the real v_hat is positive.
    """
    b, t_max, d = g.shape
    coeffs = [_coeff_enclosure(p, c) for p, c in zip(params, rhs_coeffs)]
    if b == 1:
        p, coeff, T = params[0], coeffs[0], int(t_arr[0])
        slack = np.array([_scalar_slack(g[0, :T, i].tolist(), p, coeff) for i in range(d)])
        lo, hi = slack.reshape(d, 2).min(axis=0)  # NaN propagates
        return np.array([lo]), np.array([hi])

    def column(values):
        x = np.array(values)[:, None]
        return _Interval(x, x)

    beta1 = column([p.beta1 for p in params])
    beta2 = column([p.beta2 for p in params])
    lam = column([p.lam for p in params])
    one = column(np.ones(b))
    zero = np.zeros((b, d))
    m = v = lhs = sumsq = _Interval(zero, zero)
    pows = (one, one, one)
    seen = np.zeros((b, d), dtype=bool)
    for t in range(1, t_max + 1):
        gt = g[:, t - 1, :]
        x = _Interval(gt, gt)
        m, v, m_hat, v_hat, pows = moment_step(m, v, x, pows, beta1, beta2, lam)
        seen |= gt != 0.0
        now = (t_arr >= t)[:, None]
        live = seen & now
        term = m_hat * m_hat / (_Interval(float(t), float(t)) * v_hat).sqrt()
        lhs = _where(live, lhs + term, lhs)
        sumsq = _where(now, sumsq + x * x, sumsq)
    coeff = _Interval(np.array([c.lo for c in coeffs])[:, None],
                      np.array([c.hi for c in coeffs])[:, None])
    slack = coeff * sumsq.sqrt() - lhs
    return slack.lo.min(axis=1), slack.hi.min(axis=1)  # NaN propagates


def _scalar_slack(g_col: list[float], p: HyperParams, coeff: _ScalarInterval) -> tuple[float, float]:
    """Enclosure of one coordinate's real slack: `_slack_enclosure`'s loop
    on Python floats."""
    S = _ScalarInterval
    beta1, beta2, lam = S(p.beta1, p.beta1), S(p.beta2, p.beta2), S(p.lam, p.lam)
    one = S(1.0, 1.0)
    m = v = lhs = sumsq = S(0.0, 0.0)
    pows = (one, one, one)
    seen = False
    for t, gt in enumerate(g_col, start=1):
        x = S(gt, gt)
        m, v, m_hat, v_hat, pows = moment_step(m, v, x, pows, beta1, beta2, lam)
        sumsq = sumsq + x * x
        seen = seen or gt != 0.0
        if seen:
            lhs = lhs + m_hat * m_hat / (S(float(t), float(t)) * v_hat).sqrt()
    slack = coeff * sumsq.sqrt() - lhs
    return slack.lo, slack.hi


def _decided_slack(
    lo: float, hi: float, seq: GradSequence, params: HyperParams, rhs_coeff: float | None
) -> float:
    """The min slack a verdict rests on, from its enclosure [lo, hi]: hi
    when hi < 0 (a proven violation), lo when lo >= 0 (proven to hold),
    else the 200-bit value of `conjecture_sides_exact`.  The verdict is
    "violated" exactly when the returned slack is negative."""
    if hi < 0.0:
        return hi
    if lo >= 0.0:
        return lo
    return conjecture_sides_exact(seq, params, rhs_coeff=rhs_coeff)[2]


def _near(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Whether any coordinate of a sequence (the last axis) is a near miss:
    slack below `DEFAULT_SCREEN_FACTOR * rhs`."""
    return np.any(rhs - lhs < DEFAULT_SCREEN_FACTOR * rhs, axis=-1)


def _width_groups(cands: list[FuzzCandidate]):
    """Per gradient width d, (rows, group, T, g): the candidates of width d
    as a batch whose rows run longest horizon first, ties in the given
    order.  Row r holds candidate rows[r] = group[r], of horizon T[r];
    g is zero beyond it."""
    for d in sorted({cand.seq.d for cand in cands}):
        rows = sorted((k for k, cand in enumerate(cands) if cand.seq.d == d),
                      key=lambda k: -cands[k].seq.T)
        group = [cands[k] for k in rows]
        t_arr = np.array([cand.seq.T for cand in group])
        g = np.zeros((len(group), int(t_arr[0]), d))
        for row, cand in zip(g, group):
            row[:cand.seq.T] = cand.seq.g
        yield rows, group, t_arr, g


def _decide(
    near: list[tuple[FuzzCandidate, np.ndarray, np.ndarray]], out_dir: Path | None
) -> list[CounterexampleRecord]:
    """One record per near miss, in order, each given with the double sides
    (lhs, rhs) that screened it.  One `_slack_enclosure` call per gradient
    width d encloses them all; confirmed records are written under
    `out_dir` when it is set."""
    lo = np.empty(len(near))
    hi = np.empty(len(near))
    for rows, group, t_arr, g in _width_groups([cand for cand, _, _ in near]):
        lo[rows], hi[rows] = _slack_enclosure(
            g, t_arr, [c.params for c in group], [c.rhs_coeff for c in group])

    records = []
    for (cand, lhs, rhs), slack_lo, slack_hi in zip(near, lo.tolist(), hi.tolist()):
        params, seq, rhs_coeff = cand.params, cand.seq, cand.rhs_coeff
        slack = _decided_slack(slack_lo, slack_hi, seq, params, rhs_coeff)
        path = None
        if slack < 0.0 and out_dir is not None:
            path = str(out_dir / "counterexamples" / f"ce_{cand.label}.txt")
        record = CounterexampleRecord(
            label=cand.label,
            params=params,
            T=seq.T,
            d=seq.d,
            g=seq.g,
            g_inf_cap=seq.g_inf_cap,
            rhs_coeff=_rhs_coefficient(params) if rhs_coeff is None else rhs_coeff,
            lhs=lhs,
            rhs=rhs,
            min_slack=float(np.min(rhs - lhs)),
            exact_min_slack=slack,
            enclosure=(slack_lo, slack_hi),
            outcome="confirmed" if slack < 0.0 else "cleared",
            path=path,
        )
        if path is not None:
            write_counterexample(path, record)
        records.append(record)
    return records


def conjecture_fuzz(
    n_trials: int,
    t_max: int,
    d: int,
    param_grid: list[HyperParams],
    seed: int,
    out_dir: str | Path | None = None,
    injected: list[FuzzCandidate] | None = None,
) -> FuzzSummary:
    """Randomized search for violations of the moment-ratio inequality.

    Trial k draws its gradient sequence from one of four families (uniform,
    clipped Gaussian, sparse with zero runs, tiny-runs-then-spike) using the
    stream derived from (seed, k), and cycles through `param_grid`.  Any
    sequence with a near-miss coordinate (`_near`) is decided by `_decide`:
    the near misses of each batch of `FUZZ_BATCH` trials, and the injected
    ones, are enclosed together in interval arithmetic; only a proven
    negative slack counts as a violation (`_decided_slack`).  Violations
    are findings, not failures.

    The global minimum slack, its argmin sequence, the relative-slack
    minimum over coordinates with rhs > 0, and one record per near miss
    (the confirmed ones are `violations`) are returned in the summary.
    Injected candidates run through the identical pipeline but are kept
    out of the random-trial minima.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    if t_max < 1 or d < 1:
        raise ValueError("t_max and d must be positive")
    if not param_grid:
        raise ValueError("param_grid must be nonempty")

    out_path = Path(out_dir) if out_dir is not None else None
    summary = FuzzSummary(
        n_trials=n_trials,
        t_max=t_max,
        d=d,
        seed=seed,
        grid=list(param_grid),
        family_counts={name: 0 for name in FUZZ_FAMILIES},
    )
    if out_path is not None:
        (out_path / "counterexamples").mkdir(parents=True, exist_ok=True)

    injected = list(injected or [])
    sides = [None] * len(injected)
    for rows, group, t_arr, g in _width_groups(injected):
        lhs, rhs = _batch_sides(g, t_arr, [c.params for c in group], [c.rhs_coeff for c in group])
        for k, lhs_k, rhs_k in zip(rows, lhs, rhs):
            sides[k] = (lhs_k, rhs_k)
    near = [(cand, lhs, rhs) for cand, (lhs, rhs) in zip(injected, sides) if _near(lhs, rhs)]
    summary.near_misses += _decide(near, out_path)

    argmin_trial = -1
    argmin_rel_trial = -1
    n_grid = len(param_grid)
    for start in range(0, n_trials, FUZZ_BATCH):
        stop = min(start + FUZZ_BATCH, n_trials)
        order, fams, t_arr, g = _trial_batch(seed, start, stop, t_max, d)
        for f, c in enumerate(np.bincount(fams, minlength=len(FUZZ_FAMILIES))):
            summary.family_counts[FUZZ_FAMILIES[f]] += int(c)
        lhs, rhs = _batch_sides(g, t_arr, param_grid, grid_index=(start + order) % n_grid)
        # back to trial order, in which the minima below break ties
        row = np.argsort(order)  # the row of each trial
        lhs, rhs, t_arr = lhs[row], rhs[row], t_arr[row]
        slack = rhs - lhs

        trial_min = slack.min(axis=1)
        j_best = int(np.argmin(trial_min))
        if trial_min[j_best] < summary.min_slack:
            summary.min_slack = float(trial_min[j_best])
            argmin_trial = start + j_best
            argmin_g = g[row[j_best], :t_arr[j_best], :].copy()  # not a view: frees the batch

        positive = rhs > 0.0
        if np.any(positive):
            rel = np.where(positive, slack / np.where(positive, rhs, 1.0), math.inf)
            rel_min = rel.min(axis=1)
            j_rel = int(np.argmin(rel_min))
            if rel_min[j_rel] < summary.min_rel_slack:
                summary.min_rel_slack = float(rel_min[j_rel])
                argmin_rel_trial = start + j_rel

        near = [
            (FuzzCandidate(label=f"trial{start + j}", params=param_grid[(start + j) % n_grid],
                           seq=GradSequence(d=d, g=g[row[j], :t_arr[j], :], g_inf_cap=1.0)),
             lhs[j], rhs[j])
            for j in np.flatnonzero(_near(lhs, rhs)).tolist()
        ]
        summary.near_misses += _decide(near, out_path)
        # free this batch before the next is drawn: holding two at once let
        # the allocator keep two or three batches resident at peak RSS
        del g

    if argmin_trial >= 0:
        summary.argmin_label = f"trial{argmin_trial}"
        summary.argmin_params = param_grid[argmin_trial % n_grid]
        summary.argmin_seq = GradSequence(d=d, g=argmin_g, g_inf_cap=1.0)
    if argmin_rel_trial >= 0:
        summary.argmin_rel_label = f"trial{argmin_rel_trial}"
    return summary


def fuzz_summary_text(s: FuzzSummary) -> str:
    lines = [
        "moment-ratio inequality fuzz summary",
        f"trials            : {s.n_trials}",
        f"t_max             : {s.t_max}",
        f"d                 : {s.d}",
        f"seed              : {s.seed}",
        f"grid size         : {len(s.grid)}",
    ]
    for idx, p in enumerate(s.grid):
        lines.append(
            f"  grid[{idx}]: beta1={fmt17(p.beta1)} beta2={fmt17(p.beta2)} "
            f"lambda={fmt17(p.lam)} gamma={fmt17(p.gamma)}"
        )
    for name in FUZZ_FAMILIES:
        lines.append(f"family {name:<11}: {s.family_counts.get(name, 0)}")
    lines.append(f"min slack         : {fmt17(s.min_slack)}")
    if s.argmin_label is not None:
        p = s.argmin_params
        lines.append(
            f"argmin            : {s.argmin_label} "
            f"(T={s.argmin_seq.T}, beta1={fmt17(p.beta1)}, beta2={fmt17(p.beta2)}, "
            f"lambda={fmt17(p.lam)})"
        )
    lines.append(f"min relative slack: {fmt17(s.min_rel_slack)}")
    if s.argmin_rel_label is not None:
        lines.append(f"argmin (relative) : {s.argmin_rel_label}")
    lines.append(f"near misses       : {len(s.near_misses)}")
    for nm in s.near_misses:
        lines.append(
            f"  {nm.label}: double slack={fmt17(nm.min_slack)} "
            f"enclosure={_fmt_interval(nm.enclosure)} "
            f"exact slack={fmt17(nm.exact_min_slack)} -> {nm.outcome}"
        )
    lines.append(f"confirmed violations: {len(s.violations)}")
    for v in s.violations:
        # relative to the output directory, so the summary does not depend on it
        where = f"counterexamples/{Path(v.path).name}" if v.path is not None else "(not serialized)"
        lines.append(f"  {v.label}: {where}")
    return "\n".join(lines) + "\n"
