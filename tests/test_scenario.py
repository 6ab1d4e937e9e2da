"""Trace generation laws and the image-classification replay setup."""

from __future__ import annotations

import json

import numpy as np
import pytest

from orric import (
    InfeasibleError,
    ReplaySpec,
    TraceSpec,
    build_replay,
    corruption_labels,
    ensure_feasible,
    generate_trace,
    load_compute_table,
    load_replay_spec,
    run_policy,
)

NOISE = ("gaussian noise", "impulse noise", "shot noise", "speckle noise")


class TestComputeTable:
    def test_shape(self):
        rows = load_compute_table()
        assert len(rows) == 160
        combos = {(r["model"], r["resolution"]) for r in rows}
        assert len(combos) == 8
        assert {r["model"] for r in rows} == {"MobileNetV2", "ResNet50"}

    def test_labels(self):
        labels = corruption_labels()
        assert len(labels) == 20
        assert "original" in labels
        assert set(NOISE) <= set(labels)

    def test_key_compute_entries(self):
        rows = {
            (r["model"], r["resolution"]): r["macs_m"] for r in load_compute_table()
            if r["corruption"] == "original"
        }
        assert rows[("MobileNetV2", 32)] == 7.94
        assert rows[("MobileNetV2", 20)] == 6.35
        assert rows[("ResNet50", 32)] == 86.37

    def test_rows_are_read_only(self):
        # every caller shares the cached rows, so a write would leak into every later replay
        before = build_replay(ReplaySpec(corruption="fog"))
        row = next(r for r in load_compute_table() if r["model"] == "MobileNetV2" and r["corruption"] == "fog")
        with pytest.raises(TypeError):
            row["accuracy"] = 1.0
        assert build_replay(ReplaySpec(corruption="fog")) == before


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(horizon=0)
        with pytest.raises(ValueError):
            TraceSpec(horizon=2, d_law="poisson")
        with pytest.raises(ValueError):
            TraceSpec(horizon=2, c_law="bursty")
        with pytest.raises(ValueError):
            TraceSpec(horizon=2, d_lo=0.0)
        with pytest.raises(ValueError):
            TraceSpec(horizon=2, d_law="uniform", d_lo=5.0, d_hi=2.0)
        # bools are Integral, but a JSON true is no horizon or seed
        with pytest.raises(ValueError, match="horizon must be an integer"):
            TraceSpec(horizon=True)
        with pytest.raises(ValueError, match="seed must be an integer"):
            TraceSpec(horizon=2, seed=False)


class TestGenerateTrace:
    def test_deterministic_in_seed(self):
        spec = TraceSpec(horizon=50, d_law="uniform", d_lo=1.0, d_hi=2.0,
                         c_law="uniform", c_lo=10.0, c_hi=20.0, seed=123)
        assert generate_trace(spec) == generate_trace(spec)

    def test_seed_changes_draws(self):
        base = dict(horizon=50, d_law="uniform", d_lo=1.0, d_hi=2.0,
                    c_law="uniform", c_lo=10.0, c_hi=20.0)
        a = generate_trace(TraceSpec(seed=1, **base))
        b = generate_trace(TraceSpec(seed=2, **base))
        assert a.d != b.d and a.c != b.c

    def test_constant_laws(self):
        spec = TraceSpec(horizon=3, d_law="constant", d_lo=4.0, c_law="constant", c_lo=9.0)
        trace = generate_trace(spec)
        assert trace.d == (4.0, 4.0, 4.0)
        assert trace.c == (9.0, 9.0, 9.0)

    def test_uniform_bounds(self):
        spec = TraceSpec(horizon=200, d_law="uniform", d_lo=1.0, d_hi=3.0,
                         c_law="uniform", c_lo=5.0, c_hi=6.0, seed=7)
        trace = generate_trace(spec)
        assert all(1.0 <= d <= 3.0 for d in trace.d)
        assert all(5.0 <= c <= 6.0 for c in trace.c)
        assert (trace.d_min, trace.d_max) == (1.0, 3.0)

    def test_menu_laws(self, worked_profiles):
        sufficient = generate_trace(
            TraceSpec(horizon=4, d_lo=2.0, c_law="sufficient"), worked_profiles
        )
        assert sufficient.c == tuple([2.0 * 15.0] * 4)
        scarce = generate_trace(
            TraceSpec(horizon=4, d_lo=2.0, c_law="scarce"), worked_profiles
        )
        assert scarce.c == tuple([2.0 * 2.0] * 4)
        ensure_feasible(scarce, worked_profiles)

    def test_menu_laws_need_profiles(self):
        with pytest.raises(ValueError):
            generate_trace(TraceSpec(horizon=2, c_law="sufficient"))

    def test_infeasible_draw_rejected(self, worked_profiles):
        spec = TraceSpec(horizon=2, d_lo=1.0, c_law="constant", c_lo=1.0)
        with pytest.raises(InfeasibleError):
            generate_trace(spec, worked_profiles)

    def test_missing_law_parameters(self):
        with pytest.raises(ValueError):
            generate_trace(TraceSpec(horizon=2, c_law="constant"))
        with pytest.raises(ValueError):
            generate_trace(TraceSpec(horizon=2, c_law="uniform", c_lo=1.0))
        with pytest.raises(ValueError):
            generate_trace(TraceSpec(horizon=2, c_law="uniform", c_lo=2.0, c_hi=1.0))


class TestReplay:
    def test_noise_menu_and_ceiling(self):
        profiles, model, tspec = build_replay(ReplaySpec(corruption="gaussian noise"))
        # the most expensive input size is dominated under heavy noise
        assert profiles.n == 3
        assert model.f_at_max == pytest.approx(0.7329, abs=1e-12)
        assert max(cfg.cost for cfg in profiles.infer) == pytest.approx(7.45e6, abs=1.0)

    def test_default_menu_and_ceiling(self):
        profiles, model, tspec = build_replay(ReplaySpec(corruption="fog"))
        assert profiles.n == 4
        assert model.f_at_max == pytest.approx(0.7957, abs=1e-12)
        assert model.family == "linear"
        assert model.L == 0.01

    def test_all_noise_labels_share_ceiling(self):
        for label in NOISE:
            _, model, _ = build_replay(ReplaySpec(corruption=label))
            assert model.f_at_max == pytest.approx(0.7329, abs=1e-12)

    def test_default_ceilings_and_capacity_are_exact(self):
        # the clean accuracy at the costliest kept resolution, 28 under noise and 32 otherwise,
        # read exactly from the table's percentages; the capacity spans both models at 32
        for label in corruption_labels():
            _, model, tspec = build_replay(ReplaySpec(corruption=label))
            assert model.f_at_max == (0.7329 if label in NOISE else 0.7957), label
            assert (tspec.c_lo, tspec.c_hi) == (7.94e9, 86.37e9), label

    def test_retraining_menu_tracks_sampling_ratios(self):
        profiles, _, _ = build_replay(ReplaySpec(corruption="fog"))
        assert profiles.m == 6
        per_unit = (86.37 + 3.0 * 7.94) * 1e6
        ratios = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0)
        for cfg, ratio in zip(profiles.retrain, ratios):
            assert cfg.gain == pytest.approx(ratio, abs=1e-12)
            assert cfg.cost == pytest.approx(ratio * per_unit, rel=1e-12)
        assert profiles.max_gain == pytest.approx(1.0, abs=1e-12)

    def test_capacity_law_spans_student_to_teacher(self):
        _, _, tspec = build_replay(ReplaySpec(corruption="fog"))
        assert tspec.horizon == 100
        assert tspec.d_law == "constant" and tspec.d_lo == 1000.0
        assert tspec.c_law == "uniform"
        assert tspec.c_lo == pytest.approx(7.94e9, rel=1e-12)
        assert tspec.c_hi == pytest.approx(86.37e9, rel=1e-12)

    def test_every_corruption_is_feasible(self):
        for label in corruption_labels():
            profiles, model, tspec = build_replay(ReplaySpec(corruption=label, horizon=5))
            trace = generate_trace(tspec, profiles)
            result = run_policy("orric", trace, profiles, model)
            assert result.total > 0.0

    def test_train_cost_multiplier(self):
        profiles, _, _ = build_replay(ReplaySpec(corruption="fog", train_cost_multiplier=5.0))
        per_unit = (86.37 + 5.0 * 7.94) * 1e6
        assert max(cfg.cost for cfg in profiles.retrain) == pytest.approx(per_unit, rel=1e-12)

    def test_epochs_per_slot(self):
        profiles, _, _ = build_replay(ReplaySpec(corruption="fog", epochs_per_slot=2))
        per_unit = (86.37 + 2 * 3.0 * 7.94) * 1e6
        assert max(cfg.cost for cfg in profiles.retrain) == pytest.approx(per_unit, rel=1e-12)

    def test_ceiling_override(self):
        _, model, _ = build_replay(ReplaySpec(corruption="gaussian noise", f_at_max=0.9))
        assert model.f_at_max == pytest.approx(0.9, abs=1e-12)

    def test_drift_free_replay(self):
        with pytest.warns(UserWarning):
            _, model, _ = build_replay(ReplaySpec(corruption="fog", L=0.0))
        assert model.family == "constant"
        assert model.L == 0.0

    def test_unknown_corruption(self):
        with pytest.raises(ValueError):
            build_replay(ReplaySpec(corruption="rain"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", sampling_ratios=())
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", sampling_ratios=(0.0,))
        with pytest.raises(ValueError, match=r"^sampling_ratios entry 1 must be >= 0, got -0\.1$"):
            ReplaySpec(corruption="fog", sampling_ratios=(-0.1, 0.5))
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", train_cost_multiplier=0.0)
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", epochs_per_slot=0)
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", horizon=0)
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", L=-0.1)
        with pytest.raises(ValueError):
            ReplaySpec(corruption="fog", data_per_slot=0.0)

    def test_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({
            "corruption": "fog",
            "horizon": 10,
            "seed": 4,
            "train_cost_multiplier": 2.0,
        }))
        spec = load_replay_spec(path)
        assert spec == ReplaySpec(corruption="fog", horizon=10, seed=4, train_cost_multiplier=2.0)

    def test_spec_file_unknown_key(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"corruption": "fog", "epochs": 3}))
        with pytest.raises(ValueError):
            load_replay_spec(path)
