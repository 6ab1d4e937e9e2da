"""Closed-form worst-case ratios and the tight inference-only instance."""

from __future__ import annotations

import numpy as np
import pytest

from orric import (
    CRBounds,
    ProfileSet,
    ReplaySpec,
    bounds_report,
    build_io_tight_instance,
    build_replay,
    compute_bounds,
    generate_trace,
    make_model,
    offline_optimal,
    run_policy,
)
from conftest import random_feasible_trace, random_model, random_profileset


@pytest.fixture
def priced_model():
    # worked bound parameters: f0 = 0.5, f_at_max = 0.8, L priced at 0.01
    return make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=0.01)


class TestComputeBounds:
    def test_worked_values(self, priced_model, worked_profiles):
        b = compute_bounds(priced_model, worked_profiles, 1000.0, 1000.0, 2)
        # alpha = 0.01 * 1 * 1 * 0.6 / (0.8 * 1 * 1.0)
        assert b.alpha == pytest.approx(0.0075, abs=1e-15)
        assert b.cr_inference_only == pytest.approx(0.625, abs=1e-15)
        assert b.tight_cr_io_upper == pytest.approx(10.0 / 13.0, abs=1e-12)
        assert b.cr_orric_a == pytest.approx(0.6296875, abs=1e-12)
        assert b.cr_orric_b == pytest.approx(0.6279434850863422, abs=1e-12)
        assert b.cr_orric == b.cr_orric_a
        assert b.crossover_horizon == pytest.approx(80.0, abs=1e-9)

    def test_ordering_flips_past_crossover(self, priced_model, worked_profiles):
        for horizon in range(1, 201):
            b = compute_bounds(priced_model, worked_profiles, 1000.0, 1000.0, horizon)
            assert (b.cr_orric_b > b.tight_cr_io_upper) == (horizon > 80)

    def test_volume_spread_shrinks_alpha(self, priced_model, worked_profiles):
        tight = compute_bounds(priced_model, worked_profiles, 1000.0, 1000.0, 4)
        spread = compute_bounds(priced_model, worked_profiles, 500.0, 1000.0, 4)
        assert spread.alpha == pytest.approx(tight.alpha / 4.0, rel=1e-12)
        assert spread.cr_orric < tight.cr_orric

    def test_mismatched_domain_rejected(self, priced_model):
        ps = ProfileSet(retrain=[(0.0, 0.0), (0.5, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
        with pytest.raises(ValueError):
            compute_bounds(priced_model, ps, 1000.0, 1000.0, 2)

    def test_argument_validation(self, priced_model, worked_profiles):
        with pytest.raises(ValueError):
            compute_bounds(priced_model, worked_profiles, 1000.0, 1000.0, 0)
        with pytest.raises(ValueError):
            compute_bounds(priced_model, worked_profiles, 0.0, 1000.0, 2)
        with pytest.raises(ValueError):
            compute_bounds(priced_model, worked_profiles, 2000.0, 1000.0, 2)

    def test_guarantee_never_exceeds_one(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            ps = random_profileset(rng, max_m=4, max_n=4, min_m=2)
            model = random_model(rng, ps.max_gain)
            horizon = int(rng.integers(1, 50))
            d_min = float(rng.uniform(1.0, 10.0))
            d_max = d_min * float(rng.uniform(1.0, 3.0))
            b = compute_bounds(model, ps, d_min, d_max, horizon)
            assert 0.0 < b.cr_inference_only <= b.cr_orric <= 1.0 + 1e-9
            assert b.cr_inference_only <= b.tight_cr_io_upper + 1e-12


class TestDriftFreeLimit:
    def test_alpha_vanishes_with_L(self, worked_profiles):
        previous_alpha = None
        for L in (0.1, 0.01, 0.001, 1e-6):
            model = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=L)
            b = compute_bounds(model, worked_profiles, 1000.0, 1000.0, 10)
            if previous_alpha is not None:
                assert b.alpha < previous_alpha
                assert b.cr_orric < previous_cr
            previous_alpha, previous_cr = b.alpha, b.cr_orric

    def test_zero_L_degenerates_to_inference_only(self):
        ps = ProfileSet(retrain=[(0.0, 0.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
        with pytest.warns(UserWarning):
            flat = make_model("constant", {"value": 0.7}, 0.0)
        b = compute_bounds(flat, ps, 1000.0, 1000.0, 10)
        assert b.alpha == 0.0
        assert b.crossover_horizon is None
        assert b.cr_orric == b.cr_inference_only == 1.0


class TestBoundsReport:
    def test_mirrors_dataclass(self, priced_model, worked_profiles):
        report = bounds_report(priced_model, worked_profiles, 1000.0, 1000.0, 2)
        bounds = compute_bounds(priced_model, worked_profiles, 1000.0, 1000.0, 2)
        for name in CRBounds.__dataclass_fields__:
            assert report[name] == getattr(bounds, name)
        assert report["inputs"]["f0"] == 0.5
        assert report["inputs"]["horizon"] == 2


class TestTightInstance:
    def test_ratio_meets_closed_form(self, worked_profiles, worked_model):
        for horizon in (2, 4, 8):
            trace = build_io_tight_instance(worked_model, worked_profiles, horizon)
            io = run_policy("inference-only", trace, worked_profiles, worked_model)
            oracle = offline_optimal(trace, worked_profiles, worked_model)
            ratio = io.total / oracle.total
            closed = horizon * 0.5 / (0.5 + (horizon - 1) * 0.8)
            assert ratio == pytest.approx(closed, abs=1e-9)

    def test_two_slot_ratio_is_ten_thirteenths(self, worked_profiles, worked_model):
        trace = build_io_tight_instance(worked_model, worked_profiles, 2)
        io = run_policy("inference-only", trace, worked_profiles, worked_model)
        oracle = offline_optimal(trace, worked_profiles, worked_model)
        assert io.total / oracle.total == pytest.approx(10.0 / 13.0, abs=1e-9)

    def test_shape(self, worked_profiles, worked_model):
        trace = build_io_tight_instance(worked_model, worked_profiles, 3, d=500.0)
        assert trace.d == (500.0, 500.0, 500.0)
        assert trace.c == tuple([500.0 * worked_profiles.top_pair_cost] * 3)
        assert trace.d_min == trace.d_max == 500.0

    def test_requires_consistent_domain(self, worked_model):
        ps = ProfileSet(retrain=[(0.0, 0.0), (0.5, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
        with pytest.raises(ValueError):
            build_io_tight_instance(worked_model, ps, 2)

    def test_bound_is_respected_on_random_menus(self):
        # on the tight instance the realized ratio can only exceed the
        # horizon-free floor f0 / f_max
        rng = np.random.default_rng(47)
        for _ in range(10):
            ps = random_profileset(rng, max_m=3, max_n=3, min_m=2)
            model = random_model(rng, ps.max_gain)
            trace = build_io_tight_instance(model, ps, 4)
            io = run_policy("inference-only", trace, ps, model)
            oracle = offline_optimal(trace, ps, model)
            floor = model.eval(0.0) / model.f_at_max
            assert io.total / oracle.total >= floor - 1e-9


class TestLongHorizonGuarantees:
    """The closed-form floors against the exact oracle, far past the enumerable horizons."""

    @staticmethod
    def assert_floors(trace, ps, model):
        bounds = compute_bounds(model, ps, trace.d_min, trace.d_max, trace.horizon)
        oracle = offline_optimal(trace, ps, model)
        orric = run_policy("orric", trace, ps, model).total
        io = run_policy("inference-only", trace, ps, model).total
        assert orric / oracle.total >= bounds.cr_orric - 1e-9
        assert io / oracle.total >= bounds.cr_inference_only - 1e-9
        return oracle

    def test_random_instances(self):
        rng = np.random.default_rng(53)
        for horizon in (50, 200):
            for _ in range(10):
                ps = random_profileset(rng, max_m=4, max_n=4, min_m=2)
                model = random_model(rng, ps.max_gain)
                self.assert_floors(random_feasible_trace(rng, ps, horizon), ps, model)

    @pytest.mark.parametrize("corruption", ["fog", "gaussian noise"])
    def test_replays(self, corruption):
        ps, model, spec = build_replay(ReplaySpec(corruption=corruption, horizon=1000))
        oracle = self.assert_floors(generate_trace(spec, ps), ps, model)
        if corruption == "fog":
            # constant volumes make many states repeat; they must collapse
            assert oracle.meta["frontier_peak"] <= 128
