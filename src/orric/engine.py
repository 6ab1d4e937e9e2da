"""Trace runner, exact objective, offline oracle, and curvature witness.

A run scores a decision sequence against a trace: each slot earns
f(average historical retraining gain) times the slot's inference profit
times its data volume, with slot 1 scored at f(0) because there is no
history yet. A run's decisions stay one (T, 2) array of 1-based menu
indices from the policy through the scorer and the result to the run
CSV. The scorer checks and scores a whole run with array expressions,
and its running sums and the run CSV's go through one Kahan prefix sum.
The offline oracle is exact: it prunes partial retraining sequences to
the Pareto frontier of (volume-weighted gain so far, score so far), with
greedy inference per slot once retraining is fixed, and it is the
denominator for empirical performance ratios. What a run's policies, its
oracle and its writers share is built once: a Trace caches its array
view and its run-CSV columns, and keeps its fit table and orric's
weight schedule with the menus and curve they were built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .accuracy import _DOMAIN_TOL, AccuracyModel
from .atomic import write_csv
from .errors import InfeasibleError, finite_number, integer, read_csv, volume_bounds
from .policies import (
    KNOWLEDGE_DISTILLATION,
    ORRIC,
    Decision,
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

# every emitted float has 12 significant digits; trace CSVs alone keep exact values
_SIG = "%.12g"
# u and capacity are spliced in as the trace's pre-formatted _SIG text
_RUN_ROW = f"%d,%d,%d,%s,{_SIG},{_SIG},{_SIG},%s"
# a curvature-witness gap counts beyond this share of the largest term, max|f| * y_hi
_WITNESS_TOL = 1e-12


def _kahan_cumsum(values) -> list[float]:
    """Kahan-compensated running sums, which keep long-horizon totals honest.

    Entry k is the sum of values[0..k]; values should be Python floats.
    """
    sums = []
    total = carry = 0.0
    for value in values:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
        sums.append(total)
    return sums


class TraceArrays(NamedTuple):
    """Read-only numpy columns of a Trace: volumes, capacities, C/d, and Kahan prefix sums of d."""

    d: np.ndarray
    c: np.ndarray
    u: np.ndarray
    d_sum: np.ndarray


@dataclass(frozen=True)
class Trace:
    """Per-slot data volumes and compute capacities, with declared volume bounds.

    The declared bounds (d_min, d_max) are what a scheduler may assume
    about future volumes; every realized volume must fall inside them.
    A pickle or copy holds the fields only and is rebuilt through the
    constructor, so its caches are built afresh, read-only, on first use.
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
        if not all(map(math.isfinite, (*self.d, *self.c))):
            raise ValueError("volumes and capacities must be finite")
        for name, bound in zip(("d_min", "d_max"), volume_bounds(self.d_min, self.d_max)):
            object.__setattr__(self, name, bound)
        if min(self.d) < self.d_min or max(self.d) > self.d_max:
            raise ValueError("data volume outside the declared [d_min, d_max] bounds")
        if min(self.c) < 0.0:
            raise ValueError("capacities must be >= 0")

    def __reduce__(self):
        return type(self), (self.d, self.c, self.d_min, self.d_max)

    @property
    def horizon(self) -> int:
        return len(self.d)

    @cached_property
    def arrays(self) -> TraceArrays:
        """The trace as read-only arrays, built on first use and shared by every reader."""
        d, c = np.array(self.d), np.array(self.c)
        view = TraceArrays(d, c, c / d, np.array(_kahan_cumsum(self.d)))
        for column in view:
            column.flags.writeable = False
        return view

    @cached_property
    def _run_csv_columns(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The run CSV's u and capacity columns as _SIG text, formatted on the first write."""
        return tuple([_SIG % x for x in self.arrays.u.tolist()]), tuple([_SIG % x for x in self.c])


@dataclass(frozen=True)
class RunResult:
    """A scored decision sequence.

    indices holds the decisions as a read-only (T, 2) integer array of
    1-based (retrain, infer) menu indices, copied from any (T, 2)
    array-like; decisions is the same run as Decision tuples, built on
    first access. Two results are equal when every field is. A pickle or
    copy is rebuilt through the constructor, which freezes its indices.
    """

    indices: np.ndarray
    per_slot_perf: tuple[float, ...]
    total: float
    per_slot_budget_use: tuple[float, ...]
    policy: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        indices = np.array(self.indices)
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other) -> bool:
        # an array compares element-wise, so the indices are compared whole
        if not isinstance(other, RunResult):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.name != "indices"
        )

    @cached_property
    def decisions(self) -> tuple[Decision, ...]:
        return tuple(Decision(i, j) for i, j in self.indices.tolist())


def _kept(trace: Trace, name: str, inputs: tuple, build: Callable[[], tuple]) -> tuple:
    """The arrays build() returns, read-only, kept in the trace's __dict__ under name.

    The trace keeps them, as it keeps its cached properties, with the
    inputs they were built from, and rebuilds them when the inputs
    differ. The inputs are frozen menus and curves, whose equality covers
    every value a builder reads; the same object compares equal without
    a look at its values.
    """
    kept = trace.__dict__.get(name)
    if kept is None or kept[0] != inputs:
        arrays = build()
        for array in arrays:
            array.flags.writeable = False
        kept = trace.__dict__[name] = (inputs, arrays)
    return kept[1]


def _fit_table(trace: Trace, profiles: ProfileSet) -> np.ndarray:
    """The trace's read-only fit table for these menus (see _kept)."""
    return _kept(trace, "_fit_table", (profiles,),
                 lambda: (fit_table(trace.arrays.d, trace.arrays.c, profiles),))[0]


def _schedule(trace: Trace, profiles: ProfileSet, model: AccuracyModel) -> tuple[np.ndarray, ...]:
    """The read-only weight_schedule arrays (v, w, lam) of the trace's horizon and volume bounds (see _kept)."""
    return _kept(trace, "_schedule", (profiles, model),
                 lambda: weight_schedule(trace.horizon, model, trace.d_min, trace.d_max, profiles.min_profit))


def ensure_feasible(trace: Trace, profiles: ProfileSet) -> None:
    """Every slot must afford at least the cheapest inference configuration."""
    _fit_table(trace, profiles)


def _check_domain(profiles: ProfileSet, model: AccuracyModel) -> None:
    if profiles.max_gain > model.domain_max + _DOMAIN_TOL:
        raise ValueError(
            f"menu top gain {profiles.max_gain} exceeds the curve domain {model.domain_max}"
        )


def evaluate_objective(
    decisions,
    trace: Trace,
    profiles: ProfileSet,
    model: AccuracyModel,
) -> RunResult:
    """Score a complete decision sequence, enforcing the per-slot budget.

    decisions is any (T, 2) array-like of 1-based (retrain, infer) menu
    indices: a sequence of Decision tuples, or the integer array that
    table_decisions returns. Every index is checked before any budget, so
    the first slot with a bad index is reported even when an earlier slot
    is over its budget.
    """
    horizon = trace.horizon
    if len(decisions) != horizon:
        raise ValueError(f"expected {horizon} decisions, got {len(decisions)}")
    _check_domain(profiles, model)
    index = np.asarray(decisions)
    if index.shape != (horizon, 2) or index.dtype.kind not in "iu":
        raise ValueError("decisions must be (retrain, infer) pairs of integer menu indices")
    inside = (index >= 1) & (index <= (profiles.m, profiles.n))
    if not inside.all():
        k = int(inside.all(axis=1).argmin())
        raise ValueError(f"slot {k + 1}: decision indices {Decision(*index[k].tolist())} outside the menus")
    i, j = (index - 1).T
    menus = profiles.arrays
    view = trace.arrays
    d = view.d
    used = d * (menus.retrain_cost[i] + menus.infer_cost[j])
    over = used > view.c
    if over.any():
        k = int(over.argmax())
        raise InfeasibleError(f"slot {k + 1}: decision uses {float(used[k])} of capacity {trace.c[k]}")
    z = _kahan_cumsum((d * menus.gain[i]).tolist())
    # slot 1 has no history. x is inside [0, max_gain] but for roundoff,
    # which eval_clipped's clip guards against
    x = np.zeros(horizon)
    x[1:] = np.divide(z[:-1], view.d_sum[:-1])
    perfs = (model.eval_clipped(x) * menus.profit[j] * d).tolist()
    return RunResult(
        indices=index,
        per_slot_perf=tuple(perfs),
        total=math.fsum(perfs),
        per_slot_budget_use=tuple(used.tolist()),
    )


def _labelled(result: RunResult, policy: str, meta: dict) -> RunResult:
    """Name a fresh result from evaluate_objective in place, sparing a rebuild's copy of its indices."""
    object.__setattr__(result, "policy", policy)
    object.__setattr__(result, "meta", meta)
    return result


def run_policy(
    policy: str,
    trace: Trace,
    profiles: ProfileSet,
    model: AccuracyModel,
) -> RunResult:
    """Run a named policy over the trace and score it.

    Decisions are open loop: they depend on the slot index and budget,
    never on realized performance, so the sequence is built first and
    scored with evaluate_objective afterwards. The trace keeps its fit
    table and orric's weight schedule with the menus and curve they were
    built from, so calls on one trace, offline_optimal's included, build
    each once; every call returns a new result.
    """
    jbest = _fit_table(trace, profiles)
    horizon = trace.horizon
    schedule = _schedule(trace, profiles, model) if policy == ORRIC else None
    indices = table_decisions(policy, jbest, np.arange(1, horizon + 1), horizon,
                              trace.arrays.u, profiles, schedule)
    meta: dict = {}
    if policy == KNOWLEDGE_DISTILLATION:
        top = (profiles.m, profiles.n)
        meta["degraded_slots"] = (np.flatnonzero((indices != top).any(axis=1)) + 1).tolist()
    return _labelled(evaluate_objective(indices, trace, profiles, model), policy, meta)


def offline_optimal(
    trace: Trace,
    profiles: ProfileSet,
    model: AccuracyModel,
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
    The answer is exact over all m^T retraining sequences at any
    horizon; that count is meta["enumerated_sequences"].
    meta["frontier_peak"] is the largest number of states kept after a
    slot, and meta["states_expanded"] the number of candidates scored,
    the sum over slots of the frontier size times m. The oracle reads
    the fit table the trace keeps for these menus (see run_policy), and
    it divides by the trace's Kahan volume sums, as the scorer does.
    """
    # the fit table first, so an infeasible trace is reported before the domain check
    jbest = _fit_table(trace, profiles)
    _check_domain(profiles, model)
    m, horizon = profiles.m, trace.horizon

    menus = profiles.arrays
    d = trace.arrays.d
    fits = jbest >= 0
    slot_profit = np.where(fits, menus.profit[np.maximum(jbest, 0)], -np.inf)
    # an unaffordable pair gets z = -inf: it sorts last and is never kept
    dz = np.where(fits, d[:, None] * menus.gain, -np.inf)

    z = np.zeros(1)
    score = np.zeros(1)
    trail: list[np.ndarray] = []
    peak = 1
    expanded = 0
    for t in range(horizon):
        x = z / trace.arrays.d_sum[t - 1] if t else z
        fx = model.eval_clipped(x)
        # candidate k * m + i extends state k by retraining choice i, so
        # candidates are in prefix order when the states are
        zc = (z[:, None] + dz[t]).ravel()
        sc = (score[:, None] + fx[:, None] * slot_profit[t] * d[t]).ravel()
        expanded += zc.size
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
    choice = np.empty(horizon, dtype=int)
    for t in range(horizon - 1, -1, -1):
        k, choice[t] = divmod(int(trail[t][k]), m)
    indices = np.column_stack((choice, jbest[np.arange(horizon), choice])) + 1
    meta = {"enumerated_sequences": m**horizon, "frontier_peak": peak, "states_expanded": expanded}
    return _labelled(evaluate_objective(indices, trace, profiles, model), "oracle", meta)


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
) -> WitnessReport:
    """Search a lattice for mixtures with positive and negative gaps.

    x ranges over [0, domain_max], y over [y_lo, y_hi], alpha over the
    open unit interval, grid_points values each. The first hit of each
    sign in scan order (alpha, then x1, x2, y1, y2) is reported; missing
    sides (a constant curve has gap identically zero) are reported as
    None, not errors. A gap counts once its size exceeds 1e-12 times
    max|f| * y_hi, the largest term's magnitude, so roundoff on a flat
    curve is no witness at any y scale. The search
    holds one x1 row of the lattice at a time, grid_points**3 doubles,
    and stops once both signs are found; a search that finds no witness
    visits grid_points**5 points.
    """
    y_lo, y_hi = finite_number(y_lo, "y_lo", above=0.0), finite_number(y_hi, "y_hi")
    if not y_lo < y_hi:
        raise ValueError("need 0 < y_lo < y_hi")
    grid_points = integer(grid_points, "grid_points", 2)
    xs = np.linspace(0.0, model.domain_max, grid_points)
    ys = np.linspace(y_lo, y_hi, grid_points)
    alphas = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    fx = np.asarray(model.eval(xs), dtype=float)

    bound = _WITNESS_TOL * float(np.abs(fx).max()) * y_hi
    sides = {"positive": (np.greater, bound), "negative": (np.less, -bound)}
    hits: dict[str, MixturePoint] = {}
    row = np.empty((grid_points,) * 3)
    mask = np.empty(row.shape, dtype=bool)
    for alpha in alphas:
        a = float(alpha)
        xbar = a * xs[:, None] + (1.0 - a) * xs[None, :]
        fbar = model.eval_clipped(xbar)
        ybar = a * ys[:, None] + (1.0 - a) * ys[None, :]
        fx2 = ((1.0 - a) * fx)[:, None, None]
        for i1 in range(grid_points):
            # the gap's x1 row, indexed (i2, j1, j2): f(xbar)*ybar - a*f(x1)*y1 - (1-a)*f(x2)*y2,
            # built in place; rows in order keep the whole lattice's C scan order
            np.multiply(fbar[i1, :, None, None], ybar, out=row)
            row -= (a * fx[i1]) * ys[:, None]
            row -= fx2 * ys
            for side, (beyond, bound) in sides.items():
                if side not in hits and beyond(row, bound, out=mask).any():
                    i2, j1, j2 = np.unravel_index(int(np.argmax(mask)), row.shape)
                    hits[side] = MixturePoint(
                        float(xs[i1]), float(xs[i2]), float(ys[j1]), float(ys[j2]), a,
                        float(row[i2, j1, j2]),
                    )
            if len(hits) == 2:
                return WitnessReport(positive=hits["positive"], negative=hits["negative"])
    return WitnessReport(positive=hits.get("positive"), negative=hits.get("negative"))


def read_trace_csv(path, d_min: float | None = None, d_max: float | None = None) -> Trace:
    """Read a trace from CSV (header t,d,c); bounds default to the observed range."""
    slots: list[list[float]] = []
    for expected_t, (line, row) in enumerate(read_csv(path, "trace", "t,d,c", "t, d and c"), 1):
        t = integer(row["t"], f"{line} t", 1, text=True)
        slot = [finite_number(row[key], f"{line} {key}", text=True) for key in "dc"]
        if t != expected_t:
            raise ValueError(f"{line} t must be {expected_t} (slots run 1..T), got {row['t']!r}")
        slots.append(slot)
    if not slots:
        raise ValueError("trace CSV has no rows")
    d, c = zip(*slots)
    return Trace(
        d=d,
        c=c,
        d_min=min(d) if d_min is None else d_min,
        d_max=max(d) if d_max is None else d_max,
    )


def write_trace_csv(path, trace: Trace) -> None:
    """Write a trace as CSV (header t,d,c) that read_trace_csv reads back exactly.

    Each value is its shortest round-trip repr, with an integral value's
    trailing ".0" dropped, so a budget on a pair's cost stays on it.
    """
    d, c = ([repr(x).removesuffix(".0") for x in values] for values in (trace.d, trace.c))
    write_csv(path, "t,d,c", "%d,%s,%s", (range(1, trace.horizon + 1), d, c))


def write_run_csv(path, result: RunResult, trace: Trace) -> None:
    """Per-slot run report: t,retrain_index,infer_index,u,perf,cum_perf,budget_used,capacity."""
    u_text, c_text = trace._run_csv_columns
    write_csv(path, "t,retrain_index,infer_index,u,perf,cum_perf,budget_used,capacity", _RUN_ROW,
              (range(1, trace.horizon + 1), *result.indices.T.tolist(), u_text, result.per_slot_perf,
               _kahan_cumsum(result.per_slot_perf), result.per_slot_budget_use, c_text))
