"""Objective scoring, policy runs, the offline oracle, and the curvature witness."""

from __future__ import annotations

import copy
import gc
import math
import pickle
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orric.atomic as atomic
import orric.policies as policies
from orric import (
    AccuracyModel,
    InfeasibleError,
    ProfileSet,
    Trace,
    TraceSpec,
    ensure_feasible,
    evaluate_objective,
    generate_trace,
    make_model,
    mixture_gap,
    nonconvexity_witness,
    offline_optimal,
    read_trace_csv,
    run_policy,
    save_model,
    save_profiles,
    write_run_csv,
    write_trace_csv,
)
from orric.cli import _write_schedule_csv
from orric.engine import WitnessReport, _fit_table, _kahan_cumsum, _schedule
from orric.policies import KNOWLEDGE_DISTILLATION, POLICIES
from orric.scenario import C_LAWS
from conftest import (
    FAMILY_POOL,
    count_calls,
    curve_spy,
    decision_pairs,
    enumerate_optimal,
    halving_instance,
    naive_optimal_total,
    random_feasible_trace,
    random_model,
    random_profileset,
    reference_objective,
    reference_run_csv,
    reference_schedule_csv,
    reference_trace_csv,
    reference_witness,
)


class TestTrace:
    def test_horizon(self, worked_trace):
        assert worked_trace.horizon == 2

    def test_array_view(self):
        trace = Trace(d=(2.0, 0.1, 3.0), c=(7.0, 0.3, 1.0), d_min=0.1, d_max=3.0)
        view = trace.arrays
        assert trace.arrays is view
        assert view.d.tolist() == list(trace.d) and view.c.tolist() == list(trace.c)
        assert view.u.tolist() == [c / d for d, c in zip(trace.d, trace.c)]
        assert view.d_sum.tolist() == _kahan_cumsum(trace.d)
        assert not any(column.flags.writeable for column in view)
        # the cache belongs to the object: an equal trace builds its own view
        twin = replace(trace)
        assert twin == trace and twin.arrays is not view

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(d=(), c=(), d_min=1.0, d_max=1.0)
        with pytest.raises(ValueError):
            Trace(d=(1.0, 2.0), c=(1.0,), d_min=1.0, d_max=2.0)
        with pytest.raises(ValueError):
            Trace(d=(1.0,), c=(-1.0,), d_min=1.0, d_max=1.0)
        with pytest.raises(ValueError):
            Trace(d=(3.0,), c=(1.0,), d_min=1.0, d_max=2.0)
        with pytest.raises(ValueError):
            Trace(d=(1.0,), c=(1.0,), d_min=2.0, d_max=1.0)

    @pytest.mark.parametrize("field", ["d", "c", "d_min", "d_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        fields = {"d": (1.0, 2.0), "c": (5.0, 5.0), "d_min": 1.0, "d_max": 2.0}
        fields[field] = (1.0, value) if field in ("d", "c") else value
        with pytest.raises(ValueError, match="finite"):
            Trace(**fields)

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=8),
        u=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_csv_round_trip_is_exact(self, tmp_path_factory, d, u):
        trace = Trace(d=tuple(d), c=tuple(x * u for x in d), d_min=min(d), d_max=max(d))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert back.d == trace.d
        assert back.c == trace.c

    def test_feasibility_floor(self, worked_profiles):
        trace = Trace(d=(1.0, 1.0), c=(12.0, 1.9), d_min=1.0, d_max=1.0)
        with pytest.raises(InfeasibleError):
            ensure_feasible(trace, worked_profiles)
        ensure_feasible(
            Trace(d=(1.0, 1.0), c=(12.0, 2.0), d_min=1.0, d_max=1.0), worked_profiles
        )


class TestEvaluateObjective:
    def test_hand_evaluation(self, worked_profiles, worked_model):
        # full retraining in slot 1, best inference both slots
        trace = Trace(d=(1.0, 1.0), c=(15.0, 5.0), d_min=1.0, d_max=1.0)
        result = evaluate_objective(
            ((2, 2), (1, 2)), trace, worked_profiles, worked_model
        )
        assert result.per_slot_perf == pytest.approx((0.5, 0.8), abs=1e-15)
        assert result.total == pytest.approx(1.3, abs=1e-15)
        assert result.per_slot_budget_use == (15.0, 5.0)

    def test_first_slot_has_no_history(self, worked_profiles, worked_model, worked_trace):
        result = evaluate_objective(
            ((2, 1), (1, 2)), worked_trace, worked_profiles, worked_model
        )
        # slot 1 scores at f(0) regardless of its own retraining choice
        assert result.per_slot_perf[0] == pytest.approx(0.5 * 0.6, abs=1e-15)
        assert result.per_slot_perf[1] == pytest.approx(0.8, abs=1e-15)
        assert result.total == pytest.approx(1.1, abs=1e-15)

    def test_budget_enforced(self, worked_profiles, worked_model, worked_trace):
        with pytest.raises(InfeasibleError):
            evaluate_objective(
                ((2, 2), (1, 2)), worked_trace, worked_profiles, worked_model
            )

    def test_length_and_index_validation(self, worked_profiles, worked_model, worked_trace):
        with pytest.raises(ValueError):
            evaluate_objective(((1, 1),), worked_trace, worked_profiles, worked_model)
        with pytest.raises(ValueError):
            evaluate_objective(
                ((3, 1), (1, 1)), worked_trace, worked_profiles, worked_model
            )
        with pytest.raises(ValueError):
            evaluate_objective(
                ((1, 0), (1, 1)), worked_trace, worked_profiles, worked_model
            )
        for malformed in (np.ones((2, 3), dtype=int), np.ones((2, 2)), ((1,), (1,))):
            with pytest.raises(ValueError, match="integer menu indices"):
                evaluate_objective(malformed, worked_trace, worked_profiles, worked_model)

    def test_domain_guard(self, worked_trace, worked_model):
        ps = ProfileSet(retrain=[(0.0, 0.0), (1.0, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
        small = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 0.5)
        with pytest.raises(ValueError):
            evaluate_objective(((1, 1), (1, 1)), worked_trace, ps, small)

    def test_index_checked_before_budget(self, worked_profiles, worked_model, worked_trace):
        # slot 1 is over its budget and slot 2 has a bad index: the index is reported
        with pytest.raises(ValueError, match="slot 2: decision indices"):
            evaluate_objective(
                ((2, 2), (3, 1)), worked_trace, worked_profiles, worked_model
            )

    def test_matches_per_slot_reference(self):
        def outcome(scorer, decisions, trace, ps, model):
            try:
                result = scorer(decisions, trace, ps, model)
            except (ValueError, InfeasibleError) as exc:
                return type(exc), str(exc)
            return result.total, result.per_slot_perf, result.per_slot_budget_use, decision_pairs(result)

        rng = np.random.default_rng(53)
        for horizon in (1, 2, 2000, *rng.integers(1, 2001, 37).tolist()):
            ps = random_profileset(rng, max_m=8, max_n=8)
            model = random_model(rng, 1.0)
            i = rng.integers(0, ps.m, horizon).tolist()
            j = rng.integers(0, ps.n, horizon).tolist()
            d = rng.uniform(1.0, 10.0, horizon).tolist()
            used = [d_t * (ps.retrain[a].cost + ps.infer[b].cost) for d_t, a, b in zip(d, i, j)]
            # half the budgets sit exactly on the decision's cost under the scorer's test
            c = [u if rng.random() < 0.5 else u * rng.uniform(1.0, 1.5) for u in used]
            decisions = tuple((a + 1, b + 1) for a, b in zip(i, j))
            trace = Trace(d=tuple(d), c=tuple(c), d_min=1.0, d_max=10.0)
            expected = outcome(reference_objective, decisions, trace, ps, model)
            assert outcome(evaluate_objective, decisions, trace, ps, model) == expected
            assert isinstance(expected[0], float)

            k = int(rng.integers(horizon))
            bad = (ps.m + 1, 1) if rng.random() < 0.5 else (1, 0)
            bad_index = decisions[:k] + (bad,) + decisions[k + 1:]
            expected = outcome(reference_objective, bad_index, trace, ps, model)
            assert expected == (ValueError, f"slot {k + 1}: decision indices {bad} outside the menus")
            assert outcome(evaluate_objective, bad_index, trace, ps, model) == expected

            c[k] = float(np.nextafter(used[k], 0.0))
            short = Trace(d=tuple(d), c=tuple(c), d_min=1.0, d_max=10.0)
            expected = outcome(reference_objective, decisions, short, ps, model)
            assert expected == (InfeasibleError, f"slot {k + 1}: decision uses {used[k]} of capacity {c[k]}")
            assert outcome(evaluate_objective, decisions, short, ps, model) == expected


class TestRunPolicy:
    def test_worked_totals(self, worked_profiles, worked_model, worked_trace):
        expected = {
            "orric": (1.0, ((1, 2), (1, 2))),
            "inference-only": (1.0, ((1, 2), (1, 2))),
            "inference-greedy": (1.0, ((1, 2), (1, 2))),
            "knowledge-distillation": (1.1, ((2, 1), (1, 2))),
            "focus-shift": (1.1, ((2, 1), (1, 2))),
        }
        for policy, (total, decisions) in expected.items():
            result = run_policy(policy, worked_trace, worked_profiles, worked_model)
            assert result.total == pytest.approx(total, abs=1e-12), policy
            assert decision_pairs(result) == decisions, policy
            # a policy's run carries no counts; only the oracle's does
            assert result.meta == {}, policy

    def test_distillation_reports_degraded_slots(
        self, worked_profiles, worked_model, worked_trace
    ):
        result = run_policy(
            "knowledge-distillation", worked_trace, worked_profiles, worked_model
        )
        # neither slot affords the top pair (cost 15): the index columns hold no (m, n)
        top = (worked_profiles.m, worked_profiles.n)
        assert [k for k, pair in enumerate(decision_pairs(result), 1) if pair != top] == [1, 2]

    def test_rescoring_reproduces_total(self, worked_profiles, worked_model):
        rng = np.random.default_rng(29)
        for _ in range(20):
            trace = random_feasible_trace(rng, worked_profiles, int(rng.integers(1, 7)))
            for policy in POLICIES:
                result = run_policy(policy, trace, worked_profiles, worked_model)
                again = evaluate_objective(
                    decision_pairs(result), trace, worked_profiles, worked_model
                )
                assert again.total == result.total

    def test_unknown_policy(self, worked_profiles, worked_model, worked_trace):
        with pytest.raises(ValueError):
            run_policy("oracle", worked_trace, worked_profiles, worked_model)

    def test_infeasible_trace(self, worked_profiles, worked_model):
        trace = Trace(d=(1.0,), c=(1.0,), d_min=1.0, d_max=1.0)
        with pytest.raises(InfeasibleError):
            run_policy("orric", trace, worked_profiles, worked_model)


def tie_heavy_instance(rng, flat=None):
    """Constant volumes and budgets exactly on a pair's cost, on the flat curve when given: many sequences tie."""
    ps = random_profileset(rng, max_m=6, max_n=4)
    model = flat if flat is not None else random_model(rng, 1.0)
    horizon = int(rng.integers(1, 7))
    d = float(rng.choice([1.0, 3.0, 10.0]))
    pairs = [(ps.retrain[int(rng.integers(ps.m))], ps.infer[int(rng.integers(ps.n))]) for _ in range(horizon)]
    trace = Trace(d=(d,) * horizon, c=tuple(d * (r.cost + i.cost) for r, i in pairs), d_min=d, d_max=d)
    return trace, ps, model


class TestOfflineOptimal:
    def test_worked_instance(self, worked_profiles, worked_model, worked_trace):
        result = offline_optimal(worked_trace, worked_profiles, worked_model)
        assert result.total == pytest.approx(1.1, abs=1e-12)
        assert decision_pairs(result) == ((2, 1), (1, 2))
        assert result.meta.keys() == {"enumerated_sequences", "frontier_peak", "states_expanded"}
        assert result.meta["enumerated_sequences"] == 4
        # slot 1 expands the empty prefix (2 states); both survive, so slot 2 expands 2 * 2
        assert result.meta["states_expanded"] == 6

    def test_matches_naive_product_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            ps = random_profileset(rng, max_m=3, max_n=3)
            model = random_model(rng, 1.0)
            trace = random_feasible_trace(rng, ps, int(rng.integers(1, 5)))
            oracle = offline_optimal(trace, ps, model)
            assert oracle.total == naive_optimal_total(trace, ps, model)

    def test_chunked_enumeration_matches(self, worked_profiles, worked_model):
        rng = np.random.default_rng(37)
        trace = random_feasible_trace(rng, worked_profiles, 4)
        whole = enumerate_optimal(trace, worked_profiles, worked_model)
        chunked = enumerate_optimal(trace, worked_profiles, worked_model, chunk=5)
        assert chunked.total == whole.total
        assert decision_pairs(chunked) == decision_pairs(whole)

    def test_matches_enumeration_on_ties(self):
        # constant curves, constant volumes and budgets exactly on a pair's
        # cost make many sequences tie; both must pick the same one
        rng = np.random.default_rng(43)
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 1.0)
        checked = 0
        for k in range(150):
            trace, ps, model = tie_heavy_instance(rng, flat if k % 2 else None)
            horizon = trace.horizon
            oracle = offline_optimal(trace, ps, model)
            reference = enumerate_optimal(trace, ps, model)
            assert decision_pairs(oracle) == decision_pairs(reference)
            assert oracle.total == reference.total
            assert oracle.meta["enumerated_sequences"] == ps.m**horizon
            checked += 1
        assert checked == 150

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            ps = random_profileset(rng, max_m=6, max_n=6)
            model = random_model(rng, 1.0)
            trace = random_feasible_trace(rng, ps, int(rng.integers(1, 7)))
            oracle = offline_optimal(trace, ps, model)
            reference = enumerate_optimal(trace, ps, model)
            assert decision_pairs(oracle) == decision_pairs(reference)
            assert oracle.total == reference.total

    def test_cap(self, worked_profiles, worked_model):
        # the count m^T is reported; the CLI's cap on it is tested in tests/test_cli.py::TestOracle
        trace = Trace(d=tuple([1.0] * 7), c=tuple([15.0] * 7), d_min=1.0, d_max=1.0)
        result = offline_optimal(trace, worked_profiles, worked_model)
        assert result.meta["enumerated_sequences"] == 128
        assert 1 <= result.meta["frontier_peak"] <= 128

    def test_tie_breaks_to_cheapest_sequence(self, worked_profiles):
        # a flat curve makes every retraining sequence equal; the no-op
        # sequence has the lowest id and must win
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 1.0)
        trace = Trace(d=(1.0, 1.0, 1.0), c=(15.0, 15.0, 15.0), d_min=1.0, d_max=1.0)
        result = offline_optimal(trace, worked_profiles, flat)
        assert all(i == 1 for i in result.retrain_index)
        assert all(j == 2 for j in result.infer_index)

    def test_repeated_states_collapse(self, worked_profiles):
        # on a flat curve every sequence with the same number of retraining
        # slots reaches the same (z, score); one state per count survives
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 1.0)
        horizon = 16
        trace = Trace(d=(1.0,) * horizon, c=(15.0,) * horizon, d_min=1.0, d_max=1.0)
        result = offline_optimal(trace, worked_profiles, flat)
        assert result.meta["frontier_peak"] == horizon + 1
        # slot t expands the t states left by slot t - 1, two choices each
        assert result.meta["states_expanded"] == sum(2 * t for t in range(1, horizon + 1))
        assert decision_pairs(result) == ((1, 2),) * horizon

    def test_states_expanded_counts_the_frontier(self):
        # one slot expands only the empty prefix; over T slots each kept state is
        # expanded m ways, and the frontier holds between 1 and min(m^t, peak) states
        rng = np.random.default_rng(59)
        for _ in range(40):
            ps = random_profileset(rng, max_m=5, max_n=3)
            model = random_model(rng, 1.0)
            one = offline_optimal(random_feasible_trace(rng, ps, 1), ps, model)
            assert one.meta["states_expanded"] == ps.m
            horizon = int(rng.integers(2, 7))
            meta = offline_optimal(random_feasible_trace(rng, ps, horizon), ps, model).meta
            widest = [min(ps.m**t, meta["frontier_peak"]) for t in range(horizon)]
            assert ps.m * horizon <= meta["states_expanded"] <= ps.m * sum(widest)

    @pytest.mark.parametrize("horizon, peak, expanded", [(8, 130, 276), (12, 2016, 4090), (16, 32041, 64296)])
    def test_halving_volume_frontier(self, horizon, peak, expanded):
        # the frontier about doubles each slot, and the oracle still picks enumeration's sequence
        trace, ps, model = halving_instance(horizon)
        oracle = offline_optimal(trace, ps, model)
        assert (oracle.meta["frontier_peak"], oracle.meta["states_expanded"]) == (peak, expanded)
        reference = enumerate_optimal(trace, ps, model)
        assert decision_pairs(oracle) == decision_pairs(reference)
        assert oracle.total == reference.total

    def test_oracle_dominates_policies(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            ps = random_profileset(rng, max_m=3, max_n=3)
            model = random_model(rng, 1.0)
            trace = random_feasible_trace(rng, ps, int(rng.integers(1, 6)))
            cap = offline_optimal(trace, ps, model).total
            for policy in POLICIES:
                assert run_policy(policy, trace, ps, model).total <= cap + 1e-9


def fresh(trace: Trace) -> Trace:
    """An equal trace that keeps nothing yet."""
    return Trace(d=trace.d, c=trace.c, d_min=trace.d_min, d_max=trace.d_max)


def solve(trace, profiles, model) -> list:
    return [run_policy(policy, trace, profiles, model) for policy in POLICIES] + [
        offline_optimal(trace, profiles, model)
    ]


def scaled(trace: Trace, ps: ProfileSet, volume: float, capacity: float, profit: float, cost: float):
    """The instance with its volumes and declared bounds, capacities, inference profits and costs multiplied."""
    return (
        Trace(d=tuple(volume * x for x in trace.d), c=tuple(capacity * x for x in trace.c),
              d_min=volume * trace.d_min, d_max=volume * trace.d_max),
        ProfileSet(retrain=[(e.gain, cost * e.cost) for e in ps.retrain],
                   infer=[(profit * e.profit, cost * e.cost) for e in ps.infer]),
    )


class TestMetamorphic:
    """Power-of-two scalings that keep every decision and move each total exactly, for every policy and the oracle.

    They need no reference, so they also catch a fault that the oracle and enumeration would share.
    """

    # (volume and bound, capacity, inference profit, cost) factors, and the factor each total moves by
    RELATIONS = {
        "volumes-and-capacities": ((4.0, 4.0, 1.0, 1.0), 4.0),
        "profits": ((1.0, 1.0, 4.0, 1.0), 4.0),
        "costs-and-capacities": ((1.0, 4.0, 1.0, 4.0), 1.0),
    }

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_scaling(self, relation):
        factors, moves = self.RELATIONS[relation]
        rng = np.random.default_rng(11)
        for _ in range(300):
            ps = random_profileset(rng, min_m=2, min_n=2)
            model = random_model(rng, 1.0)
            trace = random_feasible_trace(rng, ps, int(rng.integers(5, 40)))
            other = scaled(trace, ps, *factors)
            for before, after in zip(solve(trace, ps, model), solve(*other, model)):
                assert decision_pairs(after) == decision_pairs(before)
                assert after.total == moves * before.total


class TestSharedPlan:
    """A trace keeps its fit table and its weight schedule with the menus and curve they were built from."""

    def test_one_plan_per_instance(self, monkeypatch, worked_profiles, worked_model, worked_trace):
        calls = {fn.__name__: count_calls(monkeypatch, fn) for fn in (policies.fit_table, policies.weight_schedule)}
        solve(worked_trace, worked_profiles, worked_model)
        assert [len(calls["fit_table"]), len(calls["weight_schedule"])] == [1, 1]
        kept = (_fit_table(worked_trace, worked_profiles), *_schedule(worked_trace, worked_profiles, worked_model))
        assert not any(array.flags.writeable for array in kept)

    def test_new_menus_or_curve_get_a_new_plan(self, worked_profiles, worked_model, worked_trace):
        # other costs change the fit table; another curve, L alone and min_profit alone
        # change the schedule
        steeper = make_model("linear", {"intercept": 0.4, "slope": 0.6}, 1.0)
        cheaper = ProfileSet(retrain=[(0.0, 0.0), (1.0, 6.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
        poorer = ProfileSet(retrain=[(0.0, 0.0), (1.0, 10.0)], infer=[(0.3, 2.0), (1.0, 5.0)])
        flatter = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=0.2)
        # f_at_max and g_at_max equal to the last bit, L three times larger
        faint = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=1e-17)
        fainter = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=3e-17)
        assert (faint.f_at_max, faint.g_at_max) == (fainter.f_at_max, fainter.g_at_max)
        variants = [(worked_profiles, worked_model), (worked_profiles, steeper), (cheaper, worked_model),
                    (poorer, worked_model), (worked_profiles, flatter), (worked_profiles, faint),
                    (worked_profiles, fainter), (cheaper, flatter), (worked_profiles, worked_model)]
        for ps, model in variants:
            reference = fresh(worked_trace)
            assert solve(worked_trace, ps, model) == solve(reference, ps, model)
            for kept, built in zip(_schedule(worked_trace, ps, model), _schedule(reference, ps, model)):
                assert np.array_equal(kept, built)
            assert np.array_equal(_fit_table(worked_trace, ps), _fit_table(reference, ps))
        # a fit table or schedule kept from one variant to the next would be seen
        assert not np.array_equal(_fit_table(fresh(worked_trace), worked_profiles),
                                  _fit_table(fresh(worked_trace), cheaper))
        for before, after in (((worked_profiles, worked_model), (worked_profiles, steeper)),
                              ((cheaper, worked_model), (poorer, worked_model)),
                              ((poorer, worked_model), (worked_profiles, flatter)),
                              ((worked_profiles, faint), (worked_profiles, fainter))):
            assert not np.array_equal(_schedule(fresh(worked_trace), *before)[0],
                                      _schedule(fresh(worked_trace), *after)[0])

    def test_equal_inputs_share_the_plan(self, monkeypatch, worked_profiles, worked_model, worked_trace):
        # equal menus and curves built afresh read the arrays the trace keeps, without a rebuild
        kept = (_fit_table(worked_trace, worked_profiles), _schedule(worked_trace, worked_profiles, worked_model))
        calls = {fn.__name__: count_calls(monkeypatch, fn) for fn in (policies.fit_table, policies.weight_schedule)}
        profiles = pickle.loads(pickle.dumps(worked_profiles))
        model = make_model(worked_model.family, worked_model.params, worked_model.domain_max)
        assert profiles is not worked_profiles and model is not worked_model
        assert _fit_table(worked_trace, profiles) is kept[0]
        assert _schedule(worked_trace, profiles, model) is kept[1]
        assert calls == {"fit_table": [], "weight_schedule": []}

    def test_copied_trace_agrees(self, monkeypatch, worked_profiles, worked_model, worked_trace):
        expected = solve(fresh(worked_trace), worked_profiles, worked_model)
        solve(worked_trace, worked_profiles, worked_model)
        calls = count_calls(monkeypatch, policies.fit_table)
        for copied in (copy.copy(worked_trace), pickle.loads(pickle.dumps(worked_trace))):
            assert copied == worked_trace
            # a copy holds the fields only, so it keeps nothing of the run yet
            assert copied.__dict__.keys() == {"d", "c", "d_min", "d_max"}
            assert solve(copied, worked_profiles, worked_model) == expected
        # each copy builds its own fit table
        assert len(calls) == 2

    def test_trace_freed_by_reference_counting(self, worked_profiles, worked_model):
        # what the trace keeps must not keep the trace: a cycle would hold every
        # finished run's trace until the cyclic collector ran
        trace = Trace(d=(1.0, 1.0), c=(12.0, 5.0), d_min=1.0, d_max=1.0)
        solve(trace, worked_profiles, worked_model)
        gone = weakref.ref(trace)
        gc.disable()
        try:
            del trace
            assert gone() is None
        finally:
            gc.enable()

    def test_results_are_never_shared(self, worked_profiles, worked_model, worked_trace):
        for call in (
            lambda: run_policy(KNOWLEDGE_DISTILLATION, worked_trace, worked_profiles, worked_model),
            lambda: offline_optimal(worked_trace, worked_profiles, worked_model),
        ):
            first, second = call(), call()
            assert first == second
            assert first is not second
            assert first.meta is not second.meta

    def test_shared_matches_fresh(self):
        rng = np.random.default_rng(61)
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 1.0)
        for k in range(120):
            if k % 2:
                trace, ps, model = tie_heavy_instance(rng, flat if k % 4 == 1 else None)
            else:
                ps = random_profileset(rng, max_m=6, max_n=6)
                model = random_model(rng, 1.0)
                trace = random_feasible_trace(rng, ps, int(rng.integers(1, 7)))
            shared = solve(trace, ps, model)
            assert shared == [
                run_policy(policy, fresh(trace), ps, model) for policy in POLICIES
            ] + [offline_optimal(fresh(trace), ps, model)]


def reachable_arrays(obj) -> list:
    """Every numpy array obj holds, through instance dicts, tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (tuple, list)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [array for item in items for array in reachable_arrays(item)]


class TestPickle:
    """A pickle or copy of a trace, menus or result holds the fields only and is rebuilt read-only."""

    @pytest.mark.parametrize("restore", [lambda objs: pickle.loads(pickle.dumps(objs)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip_is_read_only(self, restore, worked_profiles, worked_model, worked_trace):
        expected = solve(fresh(worked_trace), worked_profiles, worked_model)
        results = solve(worked_trace, worked_profiles, worked_model)
        worked_trace._run_csv_columns
        trace, profiles, back = restore((worked_trace, worked_profiles, results))
        assert (trace, profiles, back) == (worked_trace, worked_profiles, results)
        # no array comes back, not even with a result; the caches are not carried
        assert reachable_arrays((trace, profiles, back)) == []
        with pytest.raises(ValueError):
            trace.arrays.d[0] = 2.0
        assert solve(trace, profiles, worked_model) == expected
        # the trace's columns, fit table and schedule and the menus' columns
        arrays = reachable_arrays((trace, profiles, back))
        assert len(arrays) >= 4 + 1 + 3 + 4
        assert not any(array.flags.writeable for array in arrays)

    def test_result_is_unequal_to_other_types(self, worked_profiles, worked_model, worked_trace):
        result = run_policy("orric", worked_trace, worked_profiles, worked_model)
        assert result.__eq__(object()) is NotImplemented
        assert result != object()

    def test_used_objects_pickle_as_fresh_ones(self, worked_profiles, worked_model, worked_trace):
        unused = pickle.dumps((fresh(worked_trace), ProfileSet(worked_profiles.retrain, worked_profiles.infer)))
        solve(worked_trace, worked_profiles, worked_model)
        worked_trace._run_csv_columns
        assert pickle.dumps((worked_trace, worked_profiles)) == unused


def top_retraining_instance(rng):
    """Menus, a curve whose domain ends at the top gain, and a budget that affords the top pair in every slot."""
    ps = random_profileset(rng, max_m=4, max_n=3, min_m=2)
    model = random_model(rng, ps.max_gain)
    d = rng.uniform(1.0, 10.0, int(rng.integers(2, 20)))
    return ps, model, Trace(d=tuple(d), c=tuple(1.1 * ps.top_pair_cost * d), d_min=1.0, d_max=10.0)


def inside_domain(calls, model) -> bool:
    return all(((0.0 <= x) & (x <= model.domain_max)).all() for x in calls)


class TestCurveCalls:
    """The scorer, the oracle and the witness clip x themselves and call the family function unchecked."""

    def test_roundoff_above_the_top_gain_is_clipped(self):
        # with top retraining in every slot z / D is the top gain but for roundoff, and
        # the curve's domain ends there: the callers' clips are the only guard
        rng = np.random.default_rng(67)
        above = {"scorer": 0, "oracle": 0}
        for _ in range(200):
            ps, model, trace = top_retraining_instance(rng)
            spy, calls = curve_spy(model)
            top = [(ps.m, ps.n)] * trace.horizon
            assert evaluate_objective(top, trace, ps, spy) == evaluate_objective(top, trace, ps, model)
            assert offline_optimal(trace, ps, spy) == offline_optimal(trace, ps, model)
            assert inside_domain(calls, model)
            # the unclipped x of the top sequence: the scorer's Kahan sums, the oracle's plain ones
            d = trace.arrays.d
            z = np.array(_kahan_cumsum((d * ps.max_gain).tolist()))
            above["scorer"] += bool((z[:-1] / trace.arrays.d_sum[:-1] > ps.max_gain).any())
            above["oracle"] += bool((np.cumsum(d * ps.max_gain)[:-1] / np.cumsum(d)[:-1] > ps.max_gain).any())
        assert min(above.values()) >= 100, above

    def test_witness_clips_its_mixtures(self):
        # at domain_max 0.9 and grid 8 one alpha mixes two lattice points to above 0.9;
        # a flat curve has no witness, so its search visits every alpha
        xs = np.linspace(0.0, 0.9, 8)
        alphas = np.linspace(0.0, 1.0, 10)[1:-1].tolist()
        assert any((a * xs[:, None] + (1.0 - a) * xs[None, :] > 0.9).any() for a in alphas)
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 0.9)
        rising = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 0.9)
        for model in (flat, rising):
            spy, calls = curve_spy(model)
            assert nonconvexity_witness(spy, 0.5, 1.0, grid_points=8) == nonconvexity_witness(
                model, 0.5, 1.0, grid_points=8)
            assert inside_domain(calls, model)

    def test_one_curve_call_per_run_and_per_oracle_slot(self, monkeypatch):
        checked = []
        monkeypatch.setattr(AccuracyModel, "eval", lambda self, x: checked.append(x))
        rng = np.random.default_rng(71)
        for _ in range(30):
            ps = random_profileset(rng, max_m=4, max_n=3)
            spy, calls = curve_spy(random_model(rng, 1.0))
            trace = random_feasible_trace(rng, ps, int(rng.integers(1, 7)))
            for policy in POLICIES:
                calls.clear()
                run_policy(policy, trace, ps, spy)
                assert len(calls) == 1
            calls.clear()
            offline_optimal(trace, ps, spy)
            assert len(calls) == trace.horizon + 1
        assert not checked


class TestBudgetBoundary:
    """Budgets exactly on a pair's cost: every path must agree with the scorer's test."""

    def test_two_slot_instance(self):
        ps = ProfileSet(retrain=[(0.0, 0.0), (0.5, 0.7)], infer=[(1.0, 0.1)])
        model = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 0.5)
        c = 0.7 + 0.1  # 0.7999999999999999: the scorer's D * (c_i + c_j) for the top pair
        trace = Trace(d=(1.0, 1.0), c=(c, c), d_min=1.0, d_max=1.0)
        oracle = offline_optimal(trace, ps, model)
        assert decision_pairs(oracle) == ((2, 1), (1, 1))
        assert oracle.total == pytest.approx(1.15, abs=1e-12)
        for policy in POLICIES:
            result = run_policy(policy, trace, ps, model)
            assert result.total <= oracle.total, policy
        kd = run_policy(KNOWLEDGE_DISTILLATION, trace, ps, model)
        # both slots run the top pair, so none is degraded
        assert decision_pairs(kd) == ((ps.m, ps.n),) * 2 == ((2, 1), (2, 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sufficient_law_affords_top_pair(self, seed):
        rng = np.random.default_rng(seed)
        ps = random_profileset(rng, max_m=4, max_n=4)
        model = random_model(rng, 1.0)
        spec = TraceSpec(horizon=6, d_law="uniform", d_lo=1.0, d_hi=10.0, c_law="sufficient", seed=seed)
        trace = generate_trace(spec, ps)
        oracle = offline_optimal(trace, ps, model).total
        for policy in POLICIES:
            result = run_policy(policy, trace, ps, model)
            assert result.total <= oracle, policy
            if policy == KNOWLEDGE_DISTILLATION:
                assert set(decision_pairs(result)) == {(ps.m, ps.n)}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), horizon=st.integers(min_value=1, max_value=6))
    def test_scarce_to_ample_capacities(self, seed, horizon):
        rng = np.random.default_rng(seed)
        ps = random_profileset(rng, max_m=4, max_n=4)
        model = random_model(rng, 1.0)
        trace = random_feasible_trace(rng, ps, horizon)
        oracle = offline_optimal(trace, ps, model)
        results = {policy: run_policy(policy, trace, ps, model) for policy in POLICIES}
        for name, result in {"oracle": oracle, **results}.items():
            assert np.isfinite(result.total), name
            assert all(used <= c for used, c in zip(result.per_slot_budget_use, trace.c)), name
        for name, result in results.items():
            assert result.total <= oracle.total + 1e-9 * abs(oracle.total), name

    @settings(max_examples=90, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        horizon=st.integers(min_value=1, max_value=6),
        d_law=st.sampled_from(("constant", "uniform")),
        c_law=st.sampled_from(("constant", "uniform", "scarce")),
    )
    def test_generated_capacity_laws(self, seed, horizon, d_law, c_law):
        rng = np.random.default_rng(seed)
        ps = random_profileset(rng, max_m=4, max_n=4)
        model = random_model(rng, 1.0)
        # constant and uniform budgets run from the cheapest inference at the largest volume to past the top pair
        lo, hi = 10.0 * ps.min_infer_cost, 12.0 * ps.top_pair_cost
        c_lo = float(rng.uniform(lo, hi))
        capacity = {"c_lo": c_lo, "c_hi": float(rng.uniform(c_lo, hi))}
        spec = TraceSpec(horizon=horizon, d_law=d_law, d_lo=1.0, d_hi=10.0, c_law=c_law,
                         **{name: capacity[name] for name in C_LAWS[c_law]}, seed=seed)
        trace = generate_trace(spec, ps)
        oracle = offline_optimal(trace, ps, model)
        results = {"oracle": oracle, **{policy: run_policy(policy, trace, ps, model) for policy in POLICIES}}
        for name, result in results.items():
            assert all(used <= c for used, c in zip(result.per_slot_budget_use, trace.c)), name
            assert result.total <= oracle.total + 1e-9 * abs(oracle.total), name


class TestWitness:
    def test_bilinear_closed_form(self):
        gap_pos = mixture_gap(lambda x: x, 0.0, 1.0, 1.0, 0.5, 0.5)
        gap_neg = mixture_gap(lambda x: x, 0.0, 1.0, 0.5, 1.0, 0.5)
        assert gap_pos == 0.125
        assert gap_neg == -0.125

    def test_fixed_y_reduces_to_concavity(self):
        model = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0)
        for alpha in (0.25, 0.5, 0.75):
            assert mixture_gap(model.eval, 0.0, 1.0, 1.0, 1.0, alpha) >= 0.0

    def test_finds_both_signs_for_rising_curves(self, worked_model):
        expsat = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0)
        for model in (worked_model, expsat):
            report = nonconvexity_witness(model, 0.5, 1.0)
            assert report.complete
            for point in (report.positive, report.negative):
                again = mixture_gap(
                    model.eval, point.x1, point.x2, point.y1, point.y2, point.alpha
                )
                assert again == pytest.approx(point.gap, abs=1e-12)
            assert report.positive.gap > 0.0
            assert report.negative.gap < 0.0

    def test_flat_curve_has_no_witness(self):
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 1.0)
        report = nonconvexity_witness(flat, 0.5, 1.0)
        assert report.positive is None and report.negative is None
        assert not report.complete
        for grid in (2, 3, 7, 32):
            expected = reference_witness(flat, 0.5, 1.0, grid_points=grid)
            assert nonconvexity_witness(flat, 0.5, 1.0, grid_points=grid) == expected

    def test_flat_curve_wide_y_ranges(self):
        # the gap's roundoff grows with y; a tolerance scaled by max|f| * y_hi keeps it from reading as a witness
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 1.0)
        for y_lo, y_hi, grid in ((1000.0, 10000.0, 8), (0.1, 1e6, 8), (0.1, 1e6, 32), (1e-3, 1e9, 16)):
            report = nonconvexity_witness(flat, y_lo, y_hi, grid_points=grid)
            assert report == WitnessReport(positive=None, negative=None), (y_lo, y_hi, grid)
            assert report == reference_witness(flat, y_lo, y_hi, grid_points=grid)

    @pytest.mark.parametrize("y_lo, y_hi, message", [
        (0.5, math.inf, "y_hi must be a finite number, got inf"),
        (0.5, math.nan, "y_hi must be a finite number, got nan"),
        (0.0, 2.0, "y_lo must be > 0, got 0.0"),
        ("0.5", 2.0, "y_lo must be a finite number, got '0.5'"),
        (True, 2.0, "y_lo must be a finite number, got True"),
        (1.0, 0.5, "need 0 < y_lo < y_hi"),
    ])
    def test_bounds_refused(self, worked_model, y_lo, y_hi, message):
        # an infinite y_hi passes y_lo < y_hi, and the search then runs on NaN gaps and finds nothing
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nonconvexity_witness(worked_model, y_lo, y_hi, grid_points=3)

    def test_rising_curve_found_at_wide_y_ranges(self, worked_model):
        # the scaled tolerance still sees a real gap, which grows with y as the tolerance does
        for y_lo, y_hi in ((1000.0, 10000.0), (0.1, 1e6)):
            report = nonconvexity_witness(worked_model, y_lo, y_hi, grid_points=8)
            assert report.complete
            assert report == reference_witness(worked_model, y_lo, y_hi, grid_points=8)

    def test_matches_reference(self):
        rng = np.random.default_rng(53)
        families = set()
        for _ in range(12):
            model = random_model(rng, float(rng.uniform(0.3, 2.0)))
            families.add(model.family)
            for grid in (2, 3, 7, 32):
                for y_lo, y_hi in ((0.5, 1.0), (0.01, 100.0), (3.0, 3.5)):
                    expected = reference_witness(model, y_lo, y_hi, grid_points=grid)
                    assert nonconvexity_witness(model, y_lo, y_hi, grid_points=grid) == expected
        assert families == set(FAMILY_POOL)

    def test_memory_holds_one_lattice_row(self, worked_model):
        # one x1 row at grid 64 is 64**3 doubles (2 MiB); the whole grid^4 lattice is 128 MiB per alpha
        tracemalloc.start()
        try:
            report = nonconvexity_witness(worked_model, 0.5, 1.0, grid_points=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.complete
        assert peak < 16 * 2**20

    def test_validation(self, worked_model):
        with pytest.raises(ValueError):
            nonconvexity_witness(worked_model, 0.0, 1.0)
        with pytest.raises(ValueError):
            nonconvexity_witness(worked_model, 1.0, 0.5)
        with pytest.raises(ValueError):
            nonconvexity_witness(worked_model, 0.5, 1.0, grid_points=1)


class TestTraceCSV:
    def test_round_trip(self, tmp_path, worked_trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, worked_trace)
        back = read_trace_csv(path, d_min=1.0, d_max=1.0)
        assert back == worked_trace

    def test_bounds_default_to_observed(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,d,c\n1,2,10\n2,4,10\n")
        trace = read_trace_csv(path)
        assert (trace.d_min, trace.d_max) == (2.0, 4.0)
        wide = read_trace_csv(path, d_min=1.0, d_max=8.0)
        assert (wide.d_min, wide.d_max) == (1.0, 8.0)

    def test_header_required(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("slot,d,c\n1,1,1\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_slot_numbering_required(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,d,c\n1,1,5\n3,1,5\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,d,c\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)


class TestRunCSV:
    def test_per_slot_report(self, tmp_path, worked_profiles, worked_model, worked_trace):
        result = run_policy("knowledge-distillation", worked_trace, worked_profiles, worked_model)
        path = tmp_path / "run.csv"
        write_run_csv(path, result, worked_trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,retrain_index,infer_index,u,perf,cum_perf,budget_used,capacity"
        assert lines[1] == "1,2,1,12,0.3,0.3,12,12"
        assert lines[2] == "2,1,2,5,0.8,1.1,5,5"

    def test_index_columns_are_the_run_csv_columns(self, tmp_path, worked_profiles, worked_model, worked_trace):
        rng = np.random.default_rng(73)
        instances = [(worked_trace, worked_profiles, worked_model)]
        for _ in range(30):
            ps = random_profileset(rng, max_m=5, max_n=5)
            instances.append((random_feasible_trace(rng, ps, int(rng.integers(1, 7))), ps, random_model(rng, 1.0)))
        for trace, ps, model in instances:
            for name, result in zip((*POLICIES, "oracle"), solve(trace, ps, model)):
                write_run_csv(tmp_path / "run.csv", result, trace)
                rows = [line.split(",") for line in (tmp_path / "run.csv").read_text().splitlines()[1:]]
                assert result.retrain_index == tuple(int(row[1]) for row in rows), name
                assert result.infer_index == tuple(int(row[2]) for row in rows), name
                # and they are the pairs the run was scored on: the per-slot reference rescores them to the result
                again = reference_objective(decision_pairs(result), trace, ps, model)
                assert again == replace(result, meta={}), name

    def test_templates_match_f_string_reference(self, tmp_path):
        # values where .12g output is easy to get wrong: signed zero, subnormals,
        # large integers, and both sides of the switch to exponent form
        special = [-0.0, 0.0, 5e-324, 2.5e-310, 1e12, 123456789012345.0, 999999999999.5,
                   1e15, 1e16, 1e17, 1e-5, 9.999999999995e-05, 1e-4, 0.30000000000000004]
        rng = np.random.default_rng(71)

        def mixed(size):
            # random doubles over many decades, about a third of them special
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
            pick = rng.random(size) < 0.35
            values[pick] = rng.choice(special, int(pick.sum()))
            return values

        for k in range(30):
            ps = random_profileset(rng, max_m=6, max_n=6)
            model = random_model(rng, 1.0)
            trace = random_feasible_trace(rng, ps, int(rng.integers(1, 400)))
            result = run_policy(POLICIES[k % len(POLICIES)], trace, ps, model)
            # (retrain, infer) pairs and the index array are the same scorer input, and the index columns hold ints
            pairs = decision_pairs(result)
            assert all(type(k) is int for k in result.retrain_index + result.infer_index)
            by_tuple = evaluate_objective(pairs, trace, ps, model)
            assert by_tuple == evaluate_objective(np.array(pairs), trace, ps, model)
            assert decision_pairs(by_tuple) == pairs

            horizon = trace.horizon
            d = rng.choice([1e-5, 0.1, 1.0, 3.0, 7.0, 1e12], horizon)
            c = np.abs(mixed(horizon))
            c[rng.random(horizon) < 0.2] = -0.0
            odd_trace = Trace(d=tuple(d), c=tuple(c), d_min=1e-5, d_max=1e12)
            for res, tr in ((result, trace), (replace(result, per_slot_perf=tuple(mixed(horizon).tolist()),
                                                      per_slot_budget_use=tuple(mixed(horizon).tolist())),
                                              odd_trace)):
                write_run_csv(tmp_path / "run.csv", res, tr)
                assert (tmp_path / "run.csv").read_bytes() == reference_run_csv(res, tr).encode()
            write_trace_csv(tmp_path / "trace.csv", odd_trace)
            assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(odd_trace).encode()

            weights = (mixed(horizon), mixed(horizon), mixed(horizon))
            _write_schedule_csv(tmp_path / "schedule.csv", weights)
            assert (tmp_path / "schedule.csv").read_bytes() == reference_schedule_csv(*weights).encode()


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", ["trace", "run", "schedule", "profiles", "model"])
    def test_failed_replace_keeps_old_file(
        self, tmp_path, monkeypatch, writer, worked_profiles, worked_model, worked_trace
    ):
        path = tmp_path / "out"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(atomic.os, "replace", fail)
        write = {
            "trace": lambda: write_trace_csv(path, worked_trace),
            "run": lambda: write_run_csv(
                path, run_policy("orric", worked_trace, worked_profiles, worked_model), worked_trace
            ),
            "schedule": lambda: _write_schedule_csv(path, _schedule(worked_trace, worked_profiles, worked_model)),
            "profiles": lambda: save_profiles(path, worked_profiles),
            "model": lambda: save_model(path, worked_model),
        }[writer]
        with pytest.raises(OSError, match="replace failed"):
            write()
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        monkeypatch.undo()
        write()
        assert path.read_text() != "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
