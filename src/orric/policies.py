"""Decision rules for splitting compute between retraining and inference.

A pair of menu entries (i, j) fits slot t when d_t * (c_i + c_j) <= C_t;
fit_table states that test once, for every slot and retraining entry,
and every policy, the oracle and the feasibility check read their
choices off it for all slots at once. The scheduled rule (orric) prices
retraining gain and inference profit with the weight_schedule arrays and
takes the fitting pair with the largest weighted sum. The four
heuristics cover the natural fixed strategies: spend everything on
inference, top up retraining with leftovers, put retraining first, or
shift the budget split from retraining toward inference as the horizon
runs out. The per-slot names (compute_weights, orric_step,
heuristic_step) are one-slot views of weight_schedule and the table
rule, so they answer with the code a run uses.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .accuracy import AccuracyModel
from .errors import InfeasibleError, finite_number, integer, volume_bounds
from .profiles import ProfileSet

__all__ = [
    "ORRIC",
    "INFERENCE_ONLY",
    "INFERENCE_GREEDY",
    "KNOWLEDGE_DISTILLATION",
    "FOCUS_SHIFT",
    "HEURISTICS",
    "POLICIES",
    "Decision",
    "compute_weights",
    "orric_step",
    "heuristic_step",
]

ORRIC = "orric"
INFERENCE_ONLY = "inference-only"
INFERENCE_GREEDY = "inference-greedy"
KNOWLEDGE_DISTILLATION = "knowledge-distillation"
FOCUS_SHIFT = "focus-shift"
HEURISTICS = (INFERENCE_ONLY, INFERENCE_GREEDY, KNOWLEDGE_DISTILLATION, FOCUS_SHIFT)
POLICIES = (ORRIC,) + HEURISTICS


class Decision(NamedTuple):
    """1-based menu indices chosen for one slot.

    A tuple, so a sequence of decisions and a (T, 2) integer array of
    1-based indices are the same input to the scorer.
    """

    retrain_index: int
    infer_index: int


def weight_schedule(
    horizon: int,
    model: AccuracyModel,
    d_min: float,
    d_max: float,
    a_min_infer: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight arrays (v, w, lam) for slots 1..horizon, in O(horizon).

    v discounts retraining by the guaranteed future value of one unit of
    gain (a harmonic tail that vanishes at the last slot), w prices
    inference by the curve ceiling, except in slot 1 where it uses the
    overestimate intercept so the two prices stay comparable. lam is the
    per-slot regularizer value, kept for diagnostics only. Each tail is
    the correctly rounded sum of its 1/tau terms, the value math.fsum
    returns. d_min and d_max must be finite, and a_min_infer finite and positive.
    """
    horizon = integer(horizon, "horizon", 1)
    d_min, d_max = volume_bounds(d_min, d_max)
    a_min_infer = finite_number(a_min_infer, "a_min_infer", above=0.0)
    # For 1 <= t < horizon, the double 1/t is at least 2^-bit_length(horizon) and has
    # a 53-bit significand, so it is a whole number of units 2^-scale. Each tail is
    # then an exact integer in those units, and int / int true division rounds it
    # once, correctly: tails[t - 1] == math.fsum(1 / tau for tau in range(t, horizon))
    scale = 52 + horizon.bit_length()
    tails = [0.0] * horizon
    units = 0
    for t in range(horizon - 1, 0, -1):
        units += int(math.ldexp(1.0 / t, scale))
        tails[t - 1] = units / (1 << scale)
    base = model.L * (d_min * a_min_infer / d_max)
    w = np.full(horizon, model.f_at_max)
    w[:1] = model.g_at_max
    return base * np.array(tails), w, base / np.arange(1, horizon + 1)


def compute_weights(
    t: int,
    horizon: int,
    model: AccuracyModel,
    d_min: float,
    d_max: float,
    a_min_infer: float,
) -> tuple[float, float, float]:
    """Slot t's (v, w, lam) of the weight schedule for the given horizon (see weight_schedule)."""
    t = integer(t, "slot t", 1, integer(horizon, "horizon", 1))
    return tuple(float(a[t - 1]) for a in weight_schedule(horizon, model, d_min, d_max, a_min_infer))


def fit_table(volumes, capacities, profiles: ProfileSet) -> np.ndarray:
    """The budget test, stated once: which menu pairs fit each slot.

    jbest[t, i] is the last 0-based inference index j with
    d_t * (c_i + c_j) <= C_t, or -1 when none fits; the scorer checks
    decisions with the same expression. Costs ascend, so the fitting j
    of a row form a prefix, and jbest is nonincreasing along a row.
    Raises InfeasibleError for the first slot that cannot afford the
    no-op retraining with the cheapest inference configuration.
    """
    rc, ic = profiles.arrays.retrain_cost, profiles.arrays.infer_cost
    d = np.asarray(volumes, dtype=float)
    c = np.asarray(capacities, dtype=float)
    jbest = np.count_nonzero(d[:, None, None] * (rc[:, None] + ic) <= c[:, None, None], axis=2) - 1
    short = np.flatnonzero(jbest[:, 0] < 0)
    if short.size:
        k = int(short[0])
        raise InfeasibleError(
            f"slot {k + 1}: capacity {c[k]} cannot cover the cheapest "
            f"inference configuration ({d[k]} * {profiles.min_infer_cost})"
        )
    return jbest


def table_decisions(
    policy: str,
    jbest: np.ndarray,
    t: np.ndarray,
    horizon: int,
    u: np.ndarray,
    profiles: ProfileSet,
    schedule: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """A named policy's decision for every row of a fit table.

    t holds the rows' 1-based slot numbers, u their per-sample budgets
    C_t / d_t and schedule (orric only) their weight_schedule arrays.
    Each rule picks a retraining index i and pairs it with jbest[row, i],
    the most profitable inference entry that still fits. Returns one
    (i, j) row of 1-based indices per fit-table row, the (rows, 2)
    integer array that evaluate_objective scores.
    """
    if policy == ORRIC:
        v, w, _ = schedule
        menus = profiles.arrays
        value = v[:, None] * menus.gain + w[:, None] * menus.profit[np.maximum(jbest, 0)]
        value[jbest < 0] = -np.inf
        # argmax keeps the first maximizer: ties go to the lowest retraining index
        i = np.argmax(value, axis=1)
    elif policy == INFERENCE_ONLY:
        i = np.zeros(len(jbest), dtype=int)
    elif policy == INFERENCE_GREEDY:
        # keep the best inference entry, then top up retraining with what is left
        i = np.count_nonzero(jbest >= jbest[:, :1], axis=1) - 1
    elif policy == KNOWLEDGE_DISTILLATION:
        # retraining first, but always leave room for the cheapest inference
        i = np.count_nonzero(jbest >= 0, axis=1) - 1
    elif policy == FOCUS_SHIFT:
        # retraining's budget share decays linearly to 0 at the horizon
        rho = (horizon - t) / (horizon - 1) if horizon > 1 else np.zeros(len(jbest))
        share = rho * (u - profiles.min_infer_cost)
        rc = profiles.arrays.retrain_cost
        # the no-op fits every feasible slot, even where rounding puts u under the cheapest cost
        i = np.maximum(np.count_nonzero((jbest >= 0) & (rc <= share[:, None]), axis=1) - 1, 0)
    else:
        raise ValueError(f"unknown policy {policy!r}; known: {list(POLICIES)}")
    j = jbest[np.arange(len(jbest)), i]
    return np.column_stack((i, j)) + 1


def _one_slot(policy: str, t: int, horizon: int, u: float, profiles: ProfileSet, schedule=None) -> Decision:
    """The table rule's decision for slot t of unit volume with per-sample budget u."""
    t = integer(t, "slot t", 1, integer(horizon, "horizon", 1))
    u = finite_number(u, "per-sample budget u")
    jbest = fit_table([1.0], [u], profiles)
    (row,) = table_decisions(policy, jbest, np.array([t]), horizon, np.array([u]), profiles, schedule).tolist()
    return Decision(*row)


def orric_step(v: float, w: float, u: float, profiles: ProfileSet) -> Decision:
    """Pick the pair fitting the per-sample budget u that maximizes v * gain + w * profit.

    A one-slot fit table read by the orric rule of table_decisions: ties
    keep the lowest retraining index. v must be finite and >= 0, w finite and positive.
    """
    v, w = finite_number(v, "v", lo=0.0), finite_number(w, "w", above=0.0)
    return _one_slot(ORRIC, 1, 1, u, profiles, (np.array([v]), np.array([w]), None))


def heuristic_step(policy: str, t: int, horizon: int, u: float, profiles: ProfileSet) -> Decision:
    """One slot of a named fixed strategy: slot t of unit volumes with per-sample budget u."""
    if policy not in HEURISTICS:
        raise ValueError(f"unknown heuristic {policy!r}; known: {list(HEURISTICS)}")
    return _one_slot(policy, t, horizon, u, profiles)
