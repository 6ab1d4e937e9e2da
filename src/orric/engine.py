"""Trace runner, exact objective, offline oracle, and curvature witness.

A run scores a decision sequence against a trace: each slot earns
f(average historical retraining gain) times the slot's inference profit
times its data volume, with slot 1 scored at f(0) because there is no
history yet. The offline oracle is exact: it prunes partial retraining
sequences to the Pareto frontier of (volume-weighted gain so far, score
so far), with greedy inference per slot once retraining is fixed, and it
is the denominator for empirical performance ratios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .accuracy import AccuracyModel
from .atomic import write_atomic
from .errors import CapExceededError, InfeasibleError
from .policies import (
    KNOWLEDGE_DISTILLATION,
    ORRIC,
    Decision,
    DecisionSequence,
    fit_table,
    table_decisions,
    weight_schedule,
)
from .profiles import ProfileSet

__all__ = [
    "Trace",
    "RunResult",
    "ensure_feasible",
    "evaluate_objective",
    "run_policy",
    "offline_optimal",
    "mixture_gap",
    "MixturePoint",
    "WitnessReport",
    "nonconvexity_witness",
    "read_trace_csv",
    "write_trace_csv",
    "write_run_csv",
]

_SIG = ".12g"


class _CompensatedSum:
    """Kahan accumulator; keeps long-horizon running sums honest."""

    __slots__ = ("total", "_carry")

    def __init__(self) -> None:
        self.total = 0.0
        self._carry = 0.0

    def add(self, value: float) -> None:
        y = value - self._carry
        t = self.total + y
        self._carry = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class Trace:
    """Per-slot data volumes and compute capacities, with declared volume bounds.

    The declared bounds (d_min, d_max) are what a scheduler may assume
    about future volumes; every realized volume must fall inside them.
    """

    d: tuple[float, ...]
    c: tuple[float, ...]
    d_min: float
    d_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        if not self.d or len(self.d) != len(self.c):
            raise ValueError("d and c must be non-empty and equal length")
        if not all(map(math.isfinite, (*self.d, *self.c, self.d_min, self.d_max))):
            raise ValueError("volumes, capacities and volume bounds must be finite")
        if not 0.0 < self.d_min <= self.d_max:
            raise ValueError("need 0 < d_min <= d_max")
        if min(self.d) < self.d_min or max(self.d) > self.d_max:
            raise ValueError("data volume outside the declared [d_min, d_max] bounds")
        if min(self.c) < 0.0:
            raise ValueError("capacities must be >= 0")

    @property
    def horizon(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class RunResult:
    """A scored decision sequence."""

    decisions: DecisionSequence
    per_slot_perf: tuple[float, ...]
    total: float
    per_slot_budget_use: tuple[float, ...]
    policy: str = ""
    meta: dict = field(default_factory=dict)


def ensure_feasible(trace: Trace, profiles: ProfileSet) -> None:
    """Every slot must afford at least the cheapest inference configuration."""
    fit_table(trace.d, trace.c, profiles)


def _check_domain(profiles: ProfileSet, model: AccuracyModel) -> None:
    if profiles.max_gain > model.domain_max + 1e-12:
        raise ValueError(
            f"menu top gain {profiles.max_gain} exceeds the curve domain {model.domain_max}"
        )


def evaluate_objective(
    decisions: Sequence[Decision],
    trace: Trace,
    profiles: ProfileSet,
    model: AccuracyModel,
) -> RunResult:
    """Score a complete decision sequence, enforcing the per-slot budget."""
    horizon = trace.horizon
    if len(decisions) != horizon:
        raise ValueError(f"expected {horizon} decisions, got {len(decisions)}")
    _check_domain(profiles, model)
    z = _CompensatedSum()
    d_sum = _CompensatedSum()
    xs: list[float] = []
    profits: list[float] = []
    budgets: list[float] = []
    for t in range(1, horizon + 1):
        dec = decisions[t - 1]
        if not (1 <= dec.retrain_index <= profiles.m and 1 <= dec.infer_index <= profiles.n):
            raise ValueError(f"slot {t}: decision indices {dec} outside the menus")
        rcfg = profiles.retrain[dec.retrain_index - 1]
        icfg = profiles.infer[dec.infer_index - 1]
        d_t = trace.d[t - 1]
        used = d_t * (rcfg.cost + icfg.cost)
        if used > trace.c[t - 1]:
            raise InfeasibleError(
                f"slot {t}: decision uses {used} of capacity {trace.c[t - 1]}"
            )
        if t == 1:
            xs.append(0.0)
        else:
            # roundoff guard; mathematically x is inside [0, max_gain]
            xs.append(min(max(z.total / d_sum.total, 0.0), model.domain_max))
        profits.append(icfg.profit)
        budgets.append(used)
        z.add(d_t * rcfg.gain)
        d_sum.add(d_t)
    perfs = (model.eval(np.array(xs)) * np.array(profits) * np.array(trace.d)).tolist()
    return RunResult(
        decisions=tuple(decisions),
        per_slot_perf=tuple(perfs),
        total=math.fsum(perfs),
        per_slot_budget_use=tuple(budgets),
    )


def run_policy(
    policy: str,
    trace: Trace,
    profiles: ProfileSet,
    model: AccuracyModel,
) -> RunResult:
    """Run a named policy over the trace and score it.

    Decisions are open loop: they depend on the slot index and budget,
    never on realized performance, so the sequence is built first and
    scored with evaluate_objective afterwards.
    """
    jbest = fit_table(trace.d, trace.c, profiles)
    horizon = trace.horizon
    schedule = ()
    if policy == ORRIC:
        schedule = weight_schedule(horizon, model, trace.d_min, trace.d_max, profiles.min_profit)
    u = np.array(trace.c) / np.array(trace.d)
    decisions = table_decisions(policy, jbest, np.arange(1, horizon + 1), horizon, u, profiles, schedule)
    meta: dict = {}
    if policy == KNOWLEDGE_DISTILLATION:
        top = (profiles.m, profiles.n)
        meta["degraded_slots"] = [
            t for t, dec in enumerate(decisions, 1) if (dec.retrain_index, dec.infer_index) != top
        ]
    result = evaluate_objective(tuple(decisions), trace, profiles, model)
    return replace(result, policy=policy, meta=meta)


def offline_optimal(
    trace: Trace,
    profiles: ProfileSet,
    model: AccuracyModel,
    cap: int = 10_000_000,
) -> RunResult:
    """Exact offline optimum by dynamic programming over Pareto-frontier states.

    For a fixed retraining sequence the objective is separable per slot
    and every slot coefficient is positive, so the most profitable
    feasible inference configuration is optimal slot by slot. What is
    left is the retraining sequence. After slot t a partial sequence is
    summarized by z (its volume-weighted gain so far) and its score so
    far; f is nondecreasing and every later slot's coefficient is
    nonnegative, so a state with no larger z and no larger score than
    another can be dropped without losing the optimum (dominance
    pruning, as in the Nemhauser-Ullmann Pareto-set algorithm).

    Ties are resolved toward the lexicographically lowest retraining
    sequence, which also means the lowest retraining cost: states are
    kept in prefix order, and among equal states the first prefix wins.
    The answer is exact over all m^T retraining sequences; that count,
    reported as meta["enumerated_sequences"], must not exceed cap.
    meta["frontier_peak"] is the largest number of states kept after a slot.
    """
    jbest = fit_table(trace.d, trace.c, profiles)
    _check_domain(profiles, model)
    m, horizon = profiles.m, trace.horizon
    total_sequences = m**horizon
    if total_sequences > cap:
        raise CapExceededError(
            f"{m}^{horizon} = {total_sequences} retraining sequences exceed the cap {cap}"
        )

    rgain = np.array([e.gain for e in profiles.retrain])
    iprofit = np.array([e.profit for e in profiles.infer])
    d = np.array(trace.d)
    fits = jbest >= 0
    slot_profit = np.where(fits, iprofit[np.clip(jbest, 0, None)], -np.inf)
    # an unaffordable pair gets z = -inf: it sorts last and is never kept
    dz = np.where(fits, d[:, None] * rgain, -np.inf)
    d_cum = np.cumsum(d)

    z = np.zeros(1)
    score = np.zeros(1)
    trail: list[np.ndarray] = []
    peak = 1
    for t in range(horizon):
        x = z / d_cum[t - 1] if t else z
        fx = model.eval(np.clip(x, 0.0, model.domain_max))
        # candidate k * m + i extends state k by retraining choice i, so
        # candidates are in prefix order when the states are
        zc = (z[:, None] + dz[t]).ravel()
        sc = (score[:, None] + fx[:, None] * slot_profit[t] * d[t]).ravel()
        # z descending, then score descending; the stable sort keeps prefix order within ties
        order = np.lexsort((-sc, -zc))
        zs, ss = zc[order], sc[order]
        # drop a state when one sorted before it (so with at least its z) scores
        # strictly more, or when it repeats its predecessor's z: that earlier
        # prefix scores at least as much
        keep = np.empty(order.size, dtype=bool)
        keep[0] = True
        keep[1:] = (ss[1:] >= np.maximum.accumulate(ss)[:-1]) & (zs[1:] != zs[:-1])
        kept = np.sort(order[keep])
        z, score = zc[kept], sc[kept]
        trail.append(kept)
        peak = max(peak, kept.size)

    k = int(np.argmax(score))
    choice = [0] * horizon
    for t in range(horizon - 1, -1, -1):
        k, choice[t] = divmod(int(trail[t][k]), m)
    decisions = tuple(Decision(i + 1, int(jbest[t, i]) + 1) for t, i in enumerate(choice))
    result = evaluate_objective(decisions, trace, profiles, model)
    return replace(
        result,
        policy="oracle",
        meta={"enumerated_sequences": total_sequences, "frontier_peak": peak},
    )


def mixture_gap(f: Callable[[float], float], x1, x2, y1, y2, alpha: float) -> float:
    """Concavity gap of the product surface f(x) * y at an alpha mixture.

    Positive and negative values across parameter choices certify that
    the surface is neither concave nor convex.
    """
    xbar = alpha * x1 + (1.0 - alpha) * x2
    ybar = alpha * y1 + (1.0 - alpha) * y2
    return f(xbar) * ybar - (alpha * f(x1) * y1 + (1.0 - alpha) * f(x2) * y2)


@dataclass(frozen=True)
class MixturePoint:
    """One mixture of two (x, y) corners with its concavity gap."""

    x1: float
    x2: float
    y1: float
    y2: float
    alpha: float
    gap: float


@dataclass(frozen=True)
class WitnessReport:
    """Witnesses of both gap signs; a side is None when none was found."""

    positive: MixturePoint | None
    negative: MixturePoint | None

    @property
    def complete(self) -> bool:
        return self.positive is not None and self.negative is not None


def nonconvexity_witness(
    model: AccuracyModel,
    y_lo: float,
    y_hi: float,
    grid_points: int = 32,
    tol: float = 1e-12,
) -> WitnessReport:
    """Search a lattice for mixtures with positive and negative gaps.

    x ranges over [0, domain_max], y over [y_lo, y_hi], alpha over the
    open unit interval, grid_points values each. The first hit of each
    sign in scan order is reported; missing sides (a constant curve has
    gap identically zero) are reported as None, not errors.
    """
    if not 0.0 < y_lo < y_hi:
        raise ValueError("need 0 < y_lo < y_hi")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(0.0, model.domain_max, grid_points)
    ys = np.linspace(y_lo, y_hi, grid_points)
    alphas = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    fx = np.asarray(model.eval(xs), dtype=float)

    positive = negative = None
    for alpha in alphas:
        a = float(alpha)
        xbar = a * xs[:, None] + (1.0 - a) * xs[None, :]
        fbar = model.eval(np.clip(xbar, 0.0, model.domain_max))
        ybar = a * ys[:, None] + (1.0 - a) * ys[None, :]
        gap = (
            fbar[:, :, None, None] * ybar[None, None, :, :]
            - (a * fx)[:, None, None, None] * ys[None, None, :, None]
            - ((1.0 - a) * fx)[None, :, None, None] * ys[None, None, None, :]
        )
        flat = gap.ravel()
        if positive is None:
            hits = np.flatnonzero(flat > tol)
            if hits.size:
                i1, i2, j1, j2 = np.unravel_index(int(hits[0]), gap.shape)
                positive = MixturePoint(
                    float(xs[i1]), float(xs[i2]), float(ys[j1]), float(ys[j2]), a,
                    float(gap[i1, i2, j1, j2]),
                )
        if negative is None:
            hits = np.flatnonzero(flat < -tol)
            if hits.size:
                i1, i2, j1, j2 = np.unravel_index(int(hits[0]), gap.shape)
                negative = MixturePoint(
                    float(xs[i1]), float(xs[i2]), float(ys[j1]), float(ys[j2]), a,
                    float(gap[i1, i2, j1, j2]),
                )
        if positive is not None and negative is not None:
            break
    return WitnessReport(positive=positive, negative=negative)


def read_trace_csv(path, d_min: float | None = None, d_max: float | None = None) -> Trace:
    """Read a trace from CSV (header t,d,c); bounds default to the observed range."""
    path = Path(path)
    d: list[float] = []
    c: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["t", "d", "c"]:
            raise ValueError("trace CSV must have header t,d,c")
        for expected_t, row in enumerate(reader, 1):
            if int(row["t"]) != expected_t:
                raise ValueError(f"trace CSV slots must run 1..T, got {row['t']}")
            d.append(float(row["d"]))
            c.append(float(row["c"]))
    if not d:
        raise ValueError("trace CSV has no rows")
    return Trace(
        d=tuple(d),
        c=tuple(c),
        d_min=min(d) if d_min is None else d_min,
        d_max=max(d) if d_max is None else d_max,
    )


def write_trace_csv(path, trace: Trace) -> None:
    """Write a trace as CSV (header t,d,c) that read_trace_csv reads back exactly.

    Each value is its shortest round-trip repr, with an integral value's
    trailing ".0" dropped, so a budget on a pair's cost stays on it.
    """
    lines = ["t,d,c"]
    for t in range(trace.horizon):
        lines.append(f"{t + 1},{repr(trace.d[t]).removesuffix('.0')},{repr(trace.c[t]).removesuffix('.0')}")
    write_atomic(path, "\n".join(lines) + "\n")


def write_run_csv(path, result: RunResult, trace: Trace) -> None:
    """Per-slot run report: t,retrain_index,infer_index,u,perf,cum_perf,budget_used,capacity."""
    lines = ["t,retrain_index,infer_index,u,perf,cum_perf,budget_used,capacity"]
    cum = _CompensatedSum()
    for t in range(trace.horizon):
        dec = result.decisions[t]
        cum.add(result.per_slot_perf[t])
        u = trace.c[t] / trace.d[t]
        lines.append(
            f"{t + 1},{dec.retrain_index},{dec.infer_index},{u:{_SIG}},"
            f"{result.per_slot_perf[t]:{_SIG}},{cum.total:{_SIG}},"
            f"{result.per_slot_budget_use[t]:{_SIG}},{trace.c[t]:{_SIG}}"
        )
    write_atomic(path, "\n".join(lines) + "\n")
