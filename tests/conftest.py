"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from orric import (
    AccuracyModel,
    InfeasibleError,
    InferConfig,
    ProfileSet,
    RetrainConfig,
    RunResult,
    Trace,
    evaluate_objective,
    make_model,
)
from orric.cli import _fmt
from orric.engine import MixturePoint, WitnessReport, _check_domain, _kahan_cumsum
from orric.policies import fit_table

FAMILY_POOL = ("linear", "shifted-power", "exponential-saturation", "shifted-log")

ACCEPTANCE_LINES: list[str] = []


def count_calls(monkeypatch, fn) -> list:
    """Rebind fn, in every loaded orric module that holds it, to a wrapper that logs each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "orric" or name.startswith("orric."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def curve_spy(model: AccuracyModel) -> tuple[AccuracyModel, list]:
    """An equal model whose family function logs a copy of each argument it is called on."""
    calls = []

    def recording(x):
        calls.append(np.array(x, dtype=float))
        return model._fn(x)

    return replace(model, _fn=recording), calls


def record_verdict(number: int, ok: bool, detail: str) -> str:
    """Queue one acceptance verdict for the terminal summary."""
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # the reporter writes through capture, so the verdicts stay visible
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def worked_profiles() -> ProfileSet:
    # two-by-two menus used throughout the worked examples
    return ProfileSet(retrain=[(0.0, 0.0), (1.0, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])


@pytest.fixture
def worked_model() -> AccuracyModel:
    return make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)


@pytest.fixture
def worked_trace() -> Trace:
    return Trace(d=(1.0, 1.0), c=(12.0, 5.0), d_min=1.0, d_max=1.0)


def strictly_increasing(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """k strictly increasing values with lo < v_1 < ... < v_k = hi."""
    steps = rng.uniform(0.1, 1.0, k)
    cum = np.cumsum(steps)
    return lo + (hi - lo) * cum / cum[-1]


def random_profileset(
    rng: np.random.Generator,
    max_m: int = 4,
    max_n: int = 4,
    min_m: int = 1,
    min_n: int = 1,
) -> ProfileSet:
    """A valid post-pruning menu pair: strictly ascending in cost and payoff."""
    m = int(rng.integers(min_m, max_m + 1))
    n = int(rng.integers(min_n, max_n + 1))
    retrain = [RetrainConfig(gain=0.0, cost=0.0)]
    if m > 1:
        gains = strictly_increasing(rng, m - 1, 0.0, float(rng.uniform(0.3, 1.0)))
        costs = strictly_increasing(rng, m - 1, 0.0, float(rng.uniform(1.0, 20.0)))
        retrain += [RetrainConfig(gain=float(g), cost=float(c)) for g, c in zip(gains, costs)]
    profits = strictly_increasing(rng, n, 0.0, 1.0)
    icosts = strictly_increasing(rng, n, 0.0, float(rng.uniform(1.0, 10.0)))
    infer = [InferConfig(profit=float(p), cost=float(c)) for p, c in zip(profits, icosts)]
    return ProfileSet(retrain=retrain, infer=infer)


def random_model(rng: np.random.Generator, domain_max: float) -> AccuracyModel:
    """A valid curve from a random non-constant family with f(0) > 0."""
    family = FAMILY_POOL[int(rng.integers(len(FAMILY_POOL)))]
    f0 = float(rng.uniform(0.3, 0.7))
    if family == "linear":
        slope = float(rng.uniform(0.01, (1.0 - f0) / domain_max))
        params = {"intercept": f0, "slope": slope}
    elif family == "shifted-power":
        shift = float(rng.uniform(0.5, 2.0))
        power = float(rng.uniform(0.5, 2.0))
        limit = float(rng.uniform(f0 + 0.1, 1.2))
        params = {"limit": limit, "scale": (limit - f0) * shift**power,
                  "shift": shift, "power": power}
    elif family == "exponential-saturation":
        limit = float(rng.uniform(f0 + 0.1, 1.2))
        params = {"limit": limit, "scale": limit - f0, "rate": float(rng.uniform(0.5, 3.0))}
    else:
        shift = float(rng.uniform(0.5, 2.0))
        scale = float(rng.uniform(0.05, 0.3))
        params = {"scale": scale, "shift": shift,
                  "offset": f0 - scale * float(np.log(shift))}
    return make_model(family, params, domain_max)


def random_feasible_trace(
    rng: np.random.Generator, profiles: ProfileSet, horizon: int
) -> Trace:
    """Volumes in [1, 10]; capacities span scarce through more-than-sufficient."""
    d = rng.uniform(1.0, 10.0, horizon)
    lo = profiles.min_infer_cost
    hi = 1.2 * profiles.top_pair_cost
    c = d * rng.uniform(lo, hi, horizon)
    return Trace(d=tuple(d), c=tuple(c), d_min=1.0, d_max=10.0)


def halving_instance(horizon: int) -> tuple[Trace, ProfileSet, AccuracyModel]:
    """The halving-volume family: the oracle keeps about half of the 2^t retraining sequences after slot t.

    Slot t holds volume 2^-(t-1) at capacity twice that. At that
    per-sample budget of 2 a slot runs either retraining (gain 1, cost 1)
    with the cheap inference entry (profit 0.5, cost 1), or no retraining
    with the top one (profit 1, cost 2); the curve is 0.5 + 0.3 x.
    """
    d = tuple(2.0 ** -t for t in range(horizon))
    trace = Trace(d=d, c=tuple(2.0 * x for x in d), d_min=d[-1], d_max=1.0)
    profiles = ProfileSet(retrain=[(0.0, 0.0), (1.0, 1.0)], infer=[(0.5, 1.0), (1.0, 2.0)])
    return trace, profiles, make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)


def decision_pairs(result: RunResult) -> tuple[tuple[int, int], ...]:
    """A result's decisions as (retrain, infer) pairs, slot by slot."""
    return tuple(zip(result.retrain_index, result.infer_index))


def naive_optimal_total(trace, profiles, model):
    """Max objective over the full cartesian product of decision sequences."""
    slot_choices = [
        (i, j)
        for i in range(1, profiles.m + 1)
        for j in range(1, profiles.n + 1)
    ]
    best = None
    for seq in itertools.product(slot_choices, repeat=trace.horizon):
        try:
            result = evaluate_objective(seq, trace, profiles, model)
        except InfeasibleError:
            continue
        if best is None or result.total > best:
            best = result.total
    return best


def _decode_sequences(ids: np.ndarray, m: int, horizon: int) -> np.ndarray:
    """Base-m digits of ids, most significant digit first (slot 1)."""
    digits = np.empty((ids.size, horizon), dtype=np.int64)
    rest = ids.copy()
    for col in range(horizon - 1, -1, -1):
        digits[:, col] = rest % m
        rest //= m
    return digits


def enumerate_optimal(trace, profiles, model, chunk: int = 1 << 16):
    """Reference offline optimum: score all m^T retraining sequences, chunk by chunk.

    Each retraining sequence takes the most profitable fitting inference
    entry in every slot. The first maximum in sequence-id order wins, so
    ties go to the lexicographically lowest retraining sequence.
    """
    jbest = fit_table(trace.d, trace.c, profiles)
    m, horizon = profiles.m, trace.horizon
    total_sequences = m**horizon
    rgain = np.array([e.gain for e in profiles.retrain])
    iprofit = np.array([e.profit for e in profiles.infer])
    d = np.array(trace.d)
    slot_profit = np.where(jbest >= 0, iprofit[np.clip(jbest, 0, None)], -np.inf)
    d_cum = np.cumsum(d)
    best_value = -np.inf
    best_digits = None
    for start in range(0, total_sequences, chunk):
        ids = np.arange(start, min(start + chunk, total_sequences), dtype=np.int64)
        digits = _decode_sequences(ids, m, horizon)
        z_cum = np.cumsum(rgain[digits] * d[None, :], axis=1)
        x = np.empty_like(z_cum)
        x[:, 0] = 0.0
        if horizon > 1:
            x[:, 1:] = z_cum[:, :-1] / d_cum[:-1]
        np.clip(x, 0.0, model.domain_max, out=x)
        values = np.sum(model.eval(x) * slot_profit[np.arange(horizon)[None, :], digits] * d[None, :], axis=1)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_digits = digits[k].copy()
    decisions = tuple(
        (int(i) + 1, int(jbest[t, i]) + 1) for t, i in enumerate(best_digits)
    )
    result = evaluate_objective(decisions, trace, profiles, model)
    return replace(result, meta={"enumerated_sequences": total_sequences})


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


def reference_objective(decisions, trace, profiles, model) -> RunResult:
    """Reference scorer: one slot at a time through the menu config objects.

    This is the per-slot loop evaluate_objective used before it scored
    whole runs as arrays; the array scorer must match it with ==. Its
    checks run slot by slot, so an over-budget slot before a bad index
    is reported first here.
    """
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
        i, j = (int(k) for k in decisions[t - 1])
        if not (1 <= i <= profiles.m and 1 <= j <= profiles.n):
            raise ValueError(f"slot {t}: decision indices {(i, j)} outside the menus")
        rcfg = profiles.retrain[i - 1]
        icfg = profiles.infer[j - 1]
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
        retrain_index=tuple(int(i) for i, _ in decisions),
        infer_index=tuple(int(j) for _, j in decisions),
        per_slot_perf=tuple(perfs),
        total=math.fsum(perfs),
        per_slot_budget_use=tuple(budgets),
    )


_SIG = ".12g"


def reference_run_csv(result, trace) -> str:
    """Reference run CSV text: the per-value f-string rows write_run_csv wrote before its % template."""
    lines = ["t,retrain_index,infer_index,u,perf,cum_perf,budget_used,capacity"]
    rows = zip(result.retrain_index, result.infer_index, trace.d, trace.c, result.per_slot_perf,
               _kahan_cumsum(result.per_slot_perf), result.per_slot_budget_use)
    for t, (i, j, d, c, perf, cum, used) in enumerate(rows, 1):
        lines.append(
            f"{t},{i},{j},{c / d:{_SIG}},"
            f"{perf:{_SIG}},{cum:{_SIG}},{used:{_SIG}},{c:{_SIG}}"
        )
    return "\n".join(lines) + "\n"


def reference_trace_csv(trace) -> str:
    """Reference trace CSV text: the per-slot f-string rows write_trace_csv wrote before the shared CSV writer."""
    lines = ["t,d,c"]
    for t, (d, c) in enumerate(zip(trace.d, trace.c), 1):
        lines.append(f"{t},{repr(d).removesuffix('.0')},{repr(c).removesuffix('.0')}")
    return "\n".join(lines) + "\n"


def reference_schedule_csv(v, w, lam) -> str:
    """Reference schedule.csv text: the per-value rows the CLI wrote before its % template."""
    lines = ["t,v,w,lambda"]
    for t, row in enumerate(zip(v.tolist(), w.tolist(), lam.tolist()), 1):
        lines.append(f"{t}," + ",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


def reference_witness(model, y_lo, y_hi, grid_points=32, tol=1e-12) -> WitnessReport:
    """Reference witness search: the whole grid^4 gap array for each alpha.

    This is the search nonconvexity_witness ran before it scanned the
    lattice one x1 row at a time; the row scan must match it with ==.
    Both count a gap beyond tol * max|f| * y_hi. It holds
    grid_points**4 doubles per alpha, so keep grids small.
    """
    xs = np.linspace(0.0, model.domain_max, grid_points)
    ys = np.linspace(y_lo, y_hi, grid_points)
    alphas = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    fx = np.asarray(model.eval(xs), dtype=float)
    bound = tol * float(np.abs(fx).max()) * y_hi
    sides = {"positive": (np.greater, bound), "negative": (np.less, -bound)}
    hits: dict[str, MixturePoint] = {}
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
        for side, (beyond, bound) in sides.items():
            if side in hits:
                continue
            found = np.flatnonzero(beyond(gap, bound))
            if found.size:
                i1, i2, j1, j2 = np.unravel_index(int(found[0]), gap.shape)
                hits[side] = MixturePoint(
                    float(xs[i1]), float(xs[i2]), float(ys[j1]), float(ys[j2]), a,
                    float(gap[i1, i2, j1, j2]),
                )
        if len(hits) == 2:
            break
    return WitnessReport(positive=hits.get("positive"), negative=hits.get("negative"))
