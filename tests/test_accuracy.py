"""Learning-curve families, shape validation, and the linear overestimate."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

import orric.accuracy as accuracy
from orric import (
    FAMILIES,
    linear_bound_holds,
    load_model,
    make_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from conftest import FAMILY_POOL, random_model


class TestFamilies:
    def test_known_families(self):
        assert set(FAMILY_POOL) <= set(FAMILIES)
        assert "constant" in FAMILIES

    def test_linear_worked(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        assert m.eval(0.0) == 0.5
        assert m.f_at_max == pytest.approx(0.8, abs=1e-15)
        assert m.L == 0.3
        assert m.g_at_max == pytest.approx(0.5, abs=1e-15)

    def test_exponential_saturation_frozen(self):
        m = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0)
        # limit - scale * exp(-rate * x) at x = 0, 0.25, 1
        assert m.eval(0.0) == pytest.approx(0.5, abs=1e-12)
        assert m.eval(0.25) == pytest.approx(0.61804080208621, abs=1e-12)
        assert m.f_at_max == pytest.approx(0.7593994150290162, abs=1e-12)
        assert m.L == pytest.approx(0.08120116994196762, abs=1e-12)

    def test_shifted_power_matches_formula(self):
        params = {"limit": 0.9, "scale": 0.4, "shift": 1.0, "power": 1.0}
        m = make_model("shifted-power", params, 1.0)
        for x in (0.0, 0.3, 1.0):
            assert m.eval(x) == pytest.approx(0.9 - 0.4 / (x + 1.0), abs=1e-12)

    def test_shifted_log_matches_formula(self):
        params = {"scale": 0.2, "shift": 1.0, "offset": 0.5}
        m = make_model("shifted-log", params, 1.0)
        for x in (0.0, 0.5, 1.0):
            assert m.eval(x) == pytest.approx(0.2 * math.log(x + 1.0) + 0.5, abs=1e-12)

    def test_constant_family_warns_and_is_flat(self):
        with pytest.warns(UserWarning):
            m = make_model("constant", {"value": 0.7}, 1.0)
        assert m.L == 0.0
        assert m.eval(0.0) == m.eval(1.0) == 0.7
        assert m.g_at_max == 0.7

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_model("cubic", {}, 1.0)

    def test_param_key_validation(self):
        with pytest.raises(ValueError):
            make_model("linear", {"intercept": 0.5}, 1.0)
        with pytest.raises(ValueError):
            make_model("linear", {"intercept": 0.5, "slope": 0.3, "bias": 1.0}, 1.0)


class TestShapeValidation:
    def test_nonpositive_at_zero_rejected(self):
        with pytest.raises(ValueError):
            make_model("exponential-saturation", {"limit": 0.5, "scale": 0.5, "rate": 1.0}, 1.0)
        with pytest.raises(ValueError):
            make_model("shifted-log", {"scale": 0.2, "shift": 0.5, "offset": 0.0}, 1.0)

    def test_flat_linear_redirected(self):
        with pytest.raises(ValueError, match="constant"):
            make_model("linear", {"intercept": 0.5, "slope": 0.0}, 1.0)

    def test_convex_rejected(self, monkeypatch):
        monkeypatch.setitem(
            accuracy._BUILDERS,
            "test-convex",
            lambda params: (lambda x: 0.5 + np.asarray(x) ** 2, lambda x: 2.0 * x),
        )
        with pytest.raises(ValueError, match="concave"):
            make_model("test-convex", {}, 1.0)

    def test_decreasing_rejected(self, monkeypatch):
        monkeypatch.setitem(
            accuracy._BUILDERS,
            "test-falling",
            lambda params: (lambda x: 1.0 - 0.5 * np.asarray(x), lambda x: -0.5),
        )
        with pytest.raises(ValueError, match="nondecreasing"):
            make_model("test-falling", {}, 1.0)

    @pytest.mark.parametrize("domain_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_domain_max_rejected(self, domain_max):
        # refused before the curve is evaluated on its grid, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^domain_max must be a finite number, got {domain_max}$"):
                make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, domain_max)

    def test_builder_parameter_guards(self):
        with pytest.raises(ValueError):
            make_model("shifted-power", {"limit": 0.9, "scale": -1.0, "shift": 1.0, "power": 1.0}, 1.0)
        with pytest.raises(ValueError):
            make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 0.0}, 1.0)
        with pytest.raises(ValueError):
            make_model("linear", {"intercept": 0.5, "slope": -0.1}, 1.0)
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^curve parameter 'scale' must be > 0, got {scale}$"):
                make_model("shifted-log", {"scale": scale, "shift": 1.0, "offset": 0.5}, 1.0)

    def test_negative_domain_rejected(self):
        with pytest.raises(ValueError, match=r"^domain_max must be >= 0, got -1\.0$"):
            make_model("linear", {"intercept": 0.5, "slope": 0.3}, -1.0)

    def test_overflowing_curve_rejected(self):
        # 1e308 * 10 overflows to inf on the validation grid
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^curve is not finite on its domain$"):
            make_model("linear", {"intercept": 0.5, "slope": 1e308}, 10.0)


class TestEndSlope:
    def test_default_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(40):
            m = random_model(rng, 1.0)
            approx = (m.eval(1.0) - m.eval(1.0 - h)) / h
            assert m.L == pytest.approx(approx, rel=1e-4)

    def test_override_below_slope_allowed(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=0.01)
        assert m.L == 0.01
        assert m.g_at_max == pytest.approx(0.79, abs=1e-15)

    def test_override_above_slope_rejected(self):
        with pytest.raises(ValueError):
            make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=0.31)

    def test_zero_override_needs_flat_curve(self):
        with pytest.raises(ValueError):
            make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=0.0)
        with pytest.raises(ValueError):
            make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0, L_override=-0.1)
        with pytest.warns(UserWarning):
            m = make_model("constant", {"value": 0.7}, 1.0, L_override=0.0)
        assert m.L == 0.0


class TestLinearBound:
    def test_holds_for_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            assert linear_bound_holds(random_model(rng, float(rng.uniform(0.5, 1.0))))

    def test_holds_with_looser_override(self):
        m = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0,
                       L_override=0.01)
        assert linear_bound_holds(m)

    def test_violated_by_inflated_slope(self):
        m = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0)
        bad = dataclasses.replace(m, L=0.5, g_at_max=m.f_at_max - 0.5 * m.domain_max)
        assert not linear_bound_holds(bad)


class TestEval:
    def test_array_and_scalar(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        out = m.eval(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert isinstance(m.eval(0.5), float)

    def test_domain_enforcement(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        with pytest.raises(ValueError):
            m.eval(1.5)
        with pytest.raises(ValueError):
            m.eval(-0.5)
        # roundoff-sized excursions clip instead of raising
        assert m.eval(-1e-13) == 0.5
        assert m.eval(1.0 + 1e-13) == pytest.approx(0.8, abs=1e-12)

    def test_family_function_matches_eval(self):
        # callers that clip x themselves call _fn, which must give eval's values to the bit
        rng = np.random.default_rng(73)
        params = {
            "linear": {"intercept": 0.5, "slope": 0.3},
            "shifted-power": {"limit": 0.9, "scale": 0.4, "shift": 1.0, "power": 1.5},
            "exponential-saturation": {"limit": 0.8, "scale": 0.3, "rate": 2.0},
            "shifted-log": {"scale": 0.2, "shift": 1.0, "offset": 0.5},
            "constant": {"value": 0.7},
        }
        assert set(params) == set(FAMILIES)
        for family in FAMILIES:
            for domain_max in (0.37, 1.0, 2.5):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    m = make_model(family, params[family], domain_max)
                x = np.concatenate(([0.0, domain_max], rng.uniform(0.0, domain_max, 64), [domain_max, 0.0]))
                assert (m._fn(x) == m.eval(x)).all(), (family, domain_max)
                # eval_clipped, the callers' entry, gives the same values and clips what strays out
                assert (m.eval_clipped(x) == m.eval(x)).all(), (family, domain_max)
                assert (m.eval_clipped(np.array([-1.0, domain_max + 1.0])) == m._fn(np.array([0.0, domain_max]))).all()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = make_model("exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0,
                       L_override=0.05)
        path = tmp_path / "model.json"
        save_model(path, m)
        back = load_model(path)
        assert back == m

    def test_dict_round_trip_default_L(self):
        m = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
        back = model_from_dict(model_to_dict(m))
        assert back == m

    def test_missing_key(self):
        with pytest.raises(ValueError):
            model_from_dict({"family": "linear", "params": {}})
