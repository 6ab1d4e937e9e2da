"""Weight schedule, the one-slot step rule, and the fixed heuristics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orric import (
    FOCUS_SHIFT,
    HEURISTICS,
    INFERENCE_GREEDY,
    INFERENCE_ONLY,
    KNOWLEDGE_DISTILLATION,
    ORRIC,
    POLICIES,
    InfeasibleError,
    ProfileSet,
    Trace,
    compute_weights,
    heuristic_step,
    make_model,
    orric_step,
    run_policy,
)
from orric.policies import weight_schedule
from conftest import decision_pairs, random_model, random_profileset


def brute_force_step(v: float, w: float, u: float, profiles: ProfileSet) -> tuple[int, int]:
    """All-pairs maximizer with the documented scan-order tie rule.

    It checks the fit-table rule at d = 1, which scores each i ascending
    with the largest j that fits; among equal values the pair visited
    first wins, which this reproduces by iterating i ascending, j
    descending, and keeping a candidate only on strict improvement.
    """
    best = None
    best_value = 0.0
    for i, rcfg in enumerate(profiles.retrain):
        for j in range(profiles.n - 1, -1, -1):
            icfg = profiles.infer[j]
            if rcfg.cost + icfg.cost <= u:
                value = v * rcfg.gain + w * icfg.profit
                if value > best_value:
                    best, best_value = (i + 1, j + 1), value
                break
    if best is None:
        raise InfeasibleError("no pair fits")
    return best


def enumerated_decision(policy, d, c, t, horizon, prices, profiles) -> tuple[int, int]:
    """One slot of a policy by exhaustive pair enumeration under the scorer's test.

    A pair (i, j) fits when d * (c_i + c_j) <= c, the expression
    evaluate_objective enforces; each policy's rule is then read off the
    list of fitting pairs directly. prices is orric's (v, w) for the slot.
    """
    rc = [e.cost for e in profiles.retrain]
    ic = [e.cost for e in profiles.infer]
    pairs = [(i, j) for i in range(profiles.m) for j in range(profiles.n) if d * (rc[i] + ic[j]) <= c]
    assert pairs, "instance must be feasible"

    def best_j(i):
        return max((b for a, b in pairs if a == i), default=-1)

    if policy == ORRIC:
        v, w = prices
        best, best_value = None, 0.0
        for i, j in sorted(pairs, key=lambda pair: (pair[0], -pair[1])):
            value = v * profiles.retrain[i].gain + w * profiles.infer[j].profit
            if value > best_value:
                best, best_value = (i, j), value
        i, j = best
    elif policy == INFERENCE_ONLY:
        i, j = 0, best_j(0)
    elif policy == INFERENCE_GREEDY:
        j = best_j(0)
        i = max(a for a, b in pairs if b == j)
    elif policy == KNOWLEDGE_DISTILLATION:
        i = max(a for a, _ in pairs)
        j = best_j(i)
    else:
        rho = 0.0 if horizon <= 1 else (horizon - t) / (horizon - 1)
        share = rho * (c / d - profiles.min_infer_cost)
        i = max((a for a, _ in pairs if rc[a] <= share), default=0)
        j = best_j(i)
    return (i + 1, j + 1)


class TestFitTable:
    def test_decisions_match_pair_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            ps = random_profileset(rng, max_m=6, max_n=6)
            model = random_model(rng, 1.0)
            horizon = int(rng.integers(1, 9))
            d = rng.uniform(1.0, 10.0, horizon)
            c = []
            for d_t in d:
                if rng.random() < 0.5:
                    c.append(float(d_t * rng.uniform(ps.min_infer_cost, 1.3 * ps.top_pair_cost)))
                else:
                    # a budget exactly on some pair's cost under the scorer's test
                    i, j = int(rng.integers(ps.m)), int(rng.integers(ps.n))
                    c.append(float(d_t * (ps.retrain[i].cost + ps.infer[j].cost)))
            trace = Trace(d=tuple(d), c=tuple(c), d_min=1.0, d_max=10.0)
            v, w, _ = weight_schedule(horizon, model, 1.0, 10.0, ps.min_profit)
            schedule = list(zip(v.tolist(), w.tolist()))
            for policy in POLICIES:
                expected = tuple(
                    enumerated_decision(policy, trace.d[t], trace.c[t], t + 1, horizon, schedule[t], ps)
                    for t in range(horizon)
                )
                assert decision_pairs(run_policy(policy, trace, ps, model)) == expected, policy


class TestStepInputs:
    def test_validation(self, worked_profiles):
        with pytest.raises(ValueError):
            orric_step(-0.1, 1.0, 12.0, worked_profiles)
        with pytest.raises(ValueError):
            orric_step(0.0, 0.0, 12.0, worked_profiles)
        # a budget under the cheapest inference cost is the fit table's answer, as for heuristic_step
        with pytest.raises(InfeasibleError):
            orric_step(0.0, 1.0, 0.0, worked_profiles)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["v", "w", "u"])
    def test_non_finite_rejected(self, worked_profiles, field, value):
        # NaN passes every sign check, and a NaN or infinite price poisons a slot's scores
        inputs = {"v": 0.5, "w": 1.0, "u": 12.0, field: value}
        message = f"^{'per-sample budget u' if field == 'u' else field} must be a finite number, got {value}$"
        with pytest.raises(ValueError, match=message):
            orric_step(**inputs, profiles=worked_profiles)
        if field == "u":
            with pytest.raises(ValueError, match=message):
                heuristic_step(INFERENCE_ONLY, 1, 2, value, worked_profiles)


class TestComputeWeights:
    def test_worked_first_slot_price(self):
        m = make_model("linear", {"intercept": 0.7857, "slope": 0.01}, 1.0)
        v, _, lam = weight_schedule(2, m, 1000.0, 1000.0, 0.5647)
        # L * (d_min * a_min / d_max) * (1/1)
        assert v[0] == pytest.approx(0.005647, abs=1e-15)
        assert lam[0] == pytest.approx(0.005647, abs=1e-15)

    def test_inference_price_switches_after_first_slot(self):
        m = make_model("linear", {"intercept": 0.7857, "slope": 0.01}, 1.0)
        w = weight_schedule(5, m, 1000.0, 1000.0, 0.6)[1]
        assert w[0] == pytest.approx(0.7857, abs=1e-12)
        for t in range(2, 6):
            assert w[t - 1] == pytest.approx(0.7957, abs=1e-12)

    def test_harmonic_tail(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        base = 0.3 * (2.0 * 0.6 / 4.0)
        v, _, lam = weight_schedule(6, m, 2.0, 4.0, 0.6)
        for t in range(1, 7):
            tail = math.fsum(1.0 / tau for tau in range(t, 6))
            assert v[t - 1] == pytest.approx(base * tail, abs=1e-15)
            assert lam[t - 1] == pytest.approx(base / t, abs=1e-15)

    def test_last_slot_retraining_price_vanishes(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        assert weight_schedule(4, m, 1.0, 1.0, 0.5)[0][3] == 0.0

    def test_single_slot_horizon(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        v, w, _ = weight_schedule(1, m, 1.0, 1.0, 0.5)
        assert v[0] == 0.0
        assert w[0] == m.g_at_max

    def test_price_nonincreasing_over_time(self):
        m = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0)
        vs = weight_schedule(12, m, 1.0, 3.0, 0.4)[0].tolist()
        assert all(a >= b for a, b in zip(vs, vs[1:]))
        assert vs[-1] == 0.0

    def test_schedule_matches_per_slot_fsum(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        base = m.L * (2.0 * 0.6 / 4.0)
        # the tails' unit 2^-(52 + horizon.bit_length()) halves at each power of two,
        # and a unit one bit coarser is exact only at 2^k and 2^k + 1: test both sides
        horizons = [*range(1, 301), 1023, 1024, 1025, 1026, 2047, 2048, 2049, 4097]
        inv = [0.0] + [1.0 / tau for tau in range(1, max(horizons))]
        for horizon in horizons:
            v, w, lam = weight_schedule(horizon, m, 2.0, 4.0, 0.6)
            assert v.tolist() == [
                base * math.fsum(inv[t:horizon]) for t in range(1, horizon + 1)
            ]
            assert lam.tolist() == [base / t for t in range(1, horizon + 1)]
            assert w.tolist() == [m.g_at_max] + [m.f_at_max] * (horizon - 1)

    def test_compute_weights_reads_the_schedule(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        v, w, lam = weight_schedule(6, m, 2.0, 4.0, 0.6)
        for t in range(1, 7):
            assert compute_weights(t, 6, m, 2.0, 4.0, 0.6) == (v[t - 1], w[t - 1], lam[t - 1])

    def test_argument_validation(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        with pytest.raises(ValueError):
            compute_weights(0, 4, m, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            compute_weights(5, 4, m, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            weight_schedule(4, m, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            weight_schedule(4, m, 1.0, 1.0, 0.0)
        for bounds in [(1.0, 2.0, math.nan), (1.0, math.inf, 0.5), (1.0, 2.0, math.inf),
                       (math.nan, 2.0, 0.5), (1.0, math.nan, 0.5), (-math.inf, 2.0, 0.5)]:
            with pytest.raises(ValueError, match="must be a finite number"):
                weight_schedule(4, m, *bounds)


class TestOrricStep:
    def test_worked_explicit_weights(self, worked_profiles):
        assert orric_step(0.5, 1.0, 12.0, worked_profiles) == (2, 1)

    def test_worked_schedule_weights_prefer_inference(self, worked_profiles, worked_model):
        # the first-slot schedule prices gain low enough that the
        # inference-heavy pair wins: 0.5 * 1.0 > 0.18 * 1 + 0.5 * 0.6
        v, w, _ = compute_weights(1, 2, worked_model, 1.0, 1.0, 0.6)
        assert v == pytest.approx(0.18, abs=1e-15)
        assert w == pytest.approx(0.5, abs=1e-15)
        assert orric_step(v, w, 12.0, worked_profiles) == (1, 2)

    def test_budget_must_be_set(self, worked_profiles):
        # u is a required argument; one that is not a number is no budget
        with pytest.raises(ValueError):
            orric_step(0.5, 1.0, math.nan, worked_profiles)

    def test_infeasible_budget(self, worked_profiles):
        with pytest.raises(InfeasibleError):
            orric_step(0.5, 1.0, 1.0, worked_profiles)

    def test_tie_keeps_scan_order_first(self):
        # both pairs score exactly 1.0; (1, 2) is visited before (2, 1)
        ps = ProfileSet(retrain=[(0.0, 0.0), (1.0, 4.0)], infer=[(0.5, 1.0), (1.0, 4.0)])
        v, w, u = 0.5, 1.0, 5.0
        assert 0.5 * 1.0 + 1.0 * 0.0 != 1.0  # guard against rewriting the setup
        assert v * 1.0 + w * 0.5 == v * 0.0 + w * 1.0 == 1.0
        assert orric_step(v, w, u, ps) == (1, 2)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            ps = random_profileset(rng, max_m=6, max_n=6)
            u = float(rng.uniform(ps.min_infer_cost, 1.3 * ps.top_pair_cost))
            v = float(rng.uniform(0.0, 1.0))
            w = float(rng.uniform(0.1, 1.0))
            assert orric_step(v, w, u, ps) == brute_force_step(v, w, u, ps)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        v=st.floats(min_value=0.0, max_value=2.0),
        wt=st.floats(min_value=0.01, max_value=2.0),
        slack=st.floats(min_value=0.0, max_value=1.5),
    )
    def test_matches_brute_force_property(self, seed, v, wt, slack):
        rng = np.random.default_rng(seed)
        ps = random_profileset(rng, max_m=5, max_n=5)
        u = ps.min_infer_cost + slack * (ps.top_pair_cost - ps.min_infer_cost)
        assert orric_step(v, wt, u, ps) == brute_force_step(v, wt, u, ps)


class TestHeuristics:
    def test_policy_names(self):
        assert POLICIES == (ORRIC,) + HEURISTICS
        assert len(set(POLICIES)) == 5

    def test_unknown_policy(self, worked_profiles):
        with pytest.raises(ValueError):
            heuristic_step("orric", 1, 2, 12.0, worked_profiles)
        with pytest.raises(ValueError):
            heuristic_step("greedy", 1, 2, 12.0, worked_profiles)

    def test_slot_outside_horizon(self, worked_profiles):
        with pytest.raises(ValueError, match=r"^slot t must be in 1\.\.2, got 3$"):
            heuristic_step(INFERENCE_GREEDY, 3, 2, 12.0, worked_profiles)

    def test_inference_only_ignores_retraining(self, worked_profiles):
        assert heuristic_step(INFERENCE_ONLY, 1, 2, 12.0, worked_profiles) == (1, 2)
        assert heuristic_step(INFERENCE_ONLY, 1, 2, 4.0, worked_profiles) == (1, 1)

    def test_inference_greedy_tops_up(self, worked_profiles):
        # best inference costs 5, remainder 7 only fits the no-op
        assert heuristic_step(INFERENCE_GREEDY, 1, 2, 12.0, worked_profiles) == (1, 2)
        assert heuristic_step(INFERENCE_GREEDY, 1, 2, 15.0, worked_profiles) == (2, 2)

    def test_distillation_puts_retraining_first(self, worked_profiles):
        assert heuristic_step(KNOWLEDGE_DISTILLATION, 1, 2, 12.0, worked_profiles) == (2, 1)
        assert heuristic_step(KNOWLEDGE_DISTILLATION, 1, 2, 15.0, worked_profiles) == (2, 2)
        assert heuristic_step(KNOWLEDGE_DISTILLATION, 1, 2, 11.0, worked_profiles) == (1, 2)

    def test_focus_shift_ramps_down(self, worked_profiles):
        # t = 1 of 2: full retraining share; t = 2: none
        assert heuristic_step(FOCUS_SHIFT, 1, 2, 12.0, worked_profiles) == (2, 1)
        assert heuristic_step(FOCUS_SHIFT, 2, 2, 12.0, worked_profiles) == (1, 2)

    def test_focus_shift_single_slot(self, worked_profiles):
        assert heuristic_step(FOCUS_SHIFT, 1, 1, 12.0, worked_profiles) == (1, 2)

    def test_focus_shift_interior_share(self):
        ps = ProfileSet(
            retrain=[(0.0, 0.0), (0.3, 2.0), (0.6, 4.0), (1.0, 8.0)],
            infer=[(0.5, 1.0), (1.0, 3.0)],
        )
        # t = 3 of 5: rho = 0.5, share = 0.5 * (10 - 1) = 4.5 fits cost 4
        assert heuristic_step(FOCUS_SHIFT, 3, 5, 10.0, ps) == (3, 2)

    def test_infeasible_budget(self, worked_profiles):
        for policy in HEURISTICS:
            with pytest.raises(InfeasibleError):
                heuristic_step(policy, 1, 2, 1.0, worked_profiles)

    def test_all_heuristics_respect_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            ps = random_profileset(rng, max_m=5, max_n=5)
            u = float(rng.uniform(ps.min_infer_cost, 1.3 * ps.top_pair_cost))
            horizon = int(rng.integers(1, 9))
            t = int(rng.integers(1, horizon + 1))
            for policy in HEURISTICS:
                i, j = heuristic_step(policy, t, horizon, u, ps)
                used = ps.retrain[i - 1].cost + ps.infer[j - 1].cost
                assert used <= u + 1e-12
