"""End-to-end command line behavior: artifacts, determinism, exit codes."""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

import orric.cli as cli
from orric import (
    POLICIES,
    ProfileSet,
    ReplaySpec,
    Trace,
    build_replay,
    generate_trace,
    load_model,
    load_profiles,
    make_model,
    offline_optimal,
    read_trace_csv,
    run_policy,
    save_model,
    save_profiles,
    write_trace_csv,
)
from orric.cli import main
from orric.policies import ORRIC, fit_table, table_decisions, weight_schedule
from conftest import reference_objective, reference_run_csv, reference_schedule_csv


@pytest.fixture(scope="module")
def worked_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("worked")
    profiles = ProfileSet(retrain=[(0.0, 0.0), (1.0, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
    model = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)
    trace = Trace(d=(1.0, 1.0), c=(12.0, 5.0), d_min=1.0, d_max=1.0)
    save_profiles(root / "profiles.json", profiles)
    save_model(root / "model.json", model)
    write_trace_csv(root / "trace.csv", trace)
    return root


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


class TestGenTrace:
    def test_constant_law(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["gen-trace", "--T", "3", "--law", "constant", "--d", "2", "--c", "8",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "t,d,c\n1,2,8\n2,2,8\n3,2,8\n"
        assert "3 slots" in capsys.readouterr().out

    def test_constant_law_capacity_defaults_to_volume(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["gen-trace", "--T", "2", "--law", "constant", "--d", "3", "--out", str(out)]) == 0
        assert out.read_text() == "t,d,c\n1,3,3\n2,3,3\n"

    def test_menu_law_requires_profiles(self, tmp_path, capsys):
        rc = main(["gen-trace", "--T", "3", "--law", "scarce", "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: c_law 'scarce' needs a profile set\n"

    def test_menu_law_with_profiles(self, tmp_path, worked_files):
        out = tmp_path / "trace.csv"
        rc = main(["gen-trace", "--T", "2", "--law", "scarce", "--d", "1",
                   "--profiles", str(worked_files / "profiles.json"), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "t,d,c\n1,1,2\n2,1,2\n"

    def test_deterministic_rerun(self, tmp_path):
        out = tmp_path / "trace.csv"
        argv = ["gen-trace", "--T", "20", "--d-law", "uniform", "--d", "1", "--d-hi", "2",
                "--law", "uniform", "--c", "5", "--c-hi", "9", "--seed", "11", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("seed", range(5))
    def test_scarce_uniform_trace_runs(self, tmp_path, capsys, seed):
        # scarce budgets sit exactly on d_t * (cheapest inference cost); the
        # written trace must read back on them, not a hair under
        save_profiles(tmp_path / "profiles.json",
                      ProfileSet(retrain=[(0.0, 0.0), (0.5, 0.7)], infer=[(0.6, 0.1), (1.0, 0.3)]))
        save_model(tmp_path / "model.json",
                   make_model("linear", {"intercept": 0.5, "slope": 0.3}, 0.5))
        trace = tmp_path / "trace.csv"
        assert main(["gen-trace", "--T", "20", "--d-law", "uniform", "--d", "1", "--d-hi", "10",
                     "--law", "scarce", "--seed", str(seed),
                     "--profiles", str(tmp_path / "profiles.json"), "--out", str(trace)]) == 0
        rc = main(["run", "--profiles", str(tmp_path / "profiles.json"),
                   "--model", str(tmp_path / "model.json"), "--trace", str(trace),
                   "--out", str(tmp_path / "run")])
        assert rc == 0, capsys.readouterr().err


class TestPrune:
    def test_removes_dominated(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({
            "retrain": [{"gain": 0.5, "cost": 3.0}],
            "infer": [
                {"profit": 42.97, "cost": 6.35},
                {"profit": 55.71, "cost": 6.71},
                {"profit": 64.53, "cost": 7.45},
                {"profit": 56.28, "cost": 7.94},
            ],
        }))
        out = tmp_path / "pruned.json"
        rc = main(["prune", "--profiles", str(raw), "--out", str(out)])
        assert rc == 0
        assert "1 dominated entries removed" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert [e["cost"] for e in data["infer"]] == [6.35, 6.71, 7.45]
        assert data["retrain"][0] == {"gain": 0.0, "cost": 0.0}

    def test_no_auto_zero(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({
            "retrain": [{"gain": 0.5, "cost": 3.0}],
            "infer": [{"profit": 1.0, "cost": 1.0}],
        }))
        rc = main(["prune", "--profiles", str(raw), "--no-auto-zero",
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1

    @pytest.mark.parametrize("menus", [
        {"retrain": [[0.0, 0.0], [0.5, 3.0]], "infer": [{"profit": 1.0, "cost": 1.0}]},
        {"retrain": [{"gain": 0.5}], "infer": [{"profit": 1.0, "cost": 1.0}]},
    ], ids=["list-entry", "missing-key"])
    def test_malformed_menu_json(self, tmp_path, capsys, menus):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(menus))
        rc = main(["prune", "--profiles", str(raw), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "retrain entry 1" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["retrain,0.5", "retrain,0.5,", "infer,,1.0", "retrain,0.5,3.0,99"],
                             ids=["short", "blank-cost", "blank-payoff", "extra-field"])
    def test_malformed_menu_csv_row(self, tmp_path, capsys, row):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"kind,gain_or_profit,cost\ninfer,1.0,1.0\n{row}\n")
        rc = main(["prune", "--profiles", str(raw), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "profile CSV line 3" in capsys.readouterr().err


class TestRun:
    def test_worked_instance_artifacts(self, tmp_path, worked_files, capsys):
        out = tmp_path / "run"
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--out", str(out)])
        assert rc == 0
        for name in ("orric", "inference-only", "inference-greedy",
                     "knowledge-distillation", "focus-shift", "oracle"):
            assert (out / f"{name}.csv").exists()
        assert (out / "schedule.csv").exists()

        summary = json.loads((out / "summary.json").read_text())
        assert summary["policies"]["orric"]["total"] == pytest.approx(1.0, abs=1e-12)
        assert summary["policies"]["knowledge-distillation"]["total"] == pytest.approx(1.1, abs=1e-12)
        assert summary["policies"]["knowledge-distillation"]["degraded_slot_count"] == 2
        assert summary["oracle"]["total"] == pytest.approx(1.1, abs=1e-12)
        assert summary["oracle"]["enumerated_sequences"] == 4
        assert summary["bounds"]["alpha"] == pytest.approx(0.225, abs=1e-12)

        stdout = capsys.readouterr().out
        assert "orric: 1" in stdout
        assert "oracle: 1.1" in stdout

    def test_ratio_consistency(self, tmp_path, worked_files):
        out = tmp_path / "run"
        main(["run",
              "--profiles", str(worked_files / "profiles.json"),
              "--model", str(worked_files / "model.json"),
              "--trace", str(worked_files / "trace.csv"),
              "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        for name, ratio in summary["ratios_vs_oracle"].items():
            expected = summary["policies"][name]["total"] / summary["oracle"]["total"]
            assert ratio == pytest.approx(expected, abs=1e-12)

    def test_byte_identical_rerun(self, tmp_path, worked_files):
        out = tmp_path / "run"
        argv = ["run",
                "--profiles", str(worked_files / "profiles.json"),
                "--model", str(worked_files / "model.json"),
                "--trace", str(worked_files / "trace.csv"),
                "--out", str(out)]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        assert read_tree(out) == first

    def test_declared_bounds(self, tmp_path, worked_files, capsys):
        # a drawn trace's volumes lie strictly inside the law's [1, 10], so the
        # declared bounds, not the observed range, must set the schedule and the bounds
        profiles_path, model_path = worked_files / "profiles.json", worked_files / "model.json"
        trace_path = tmp_path / "trace.csv"
        assert main(["gen-trace", "--T", "6", "--d-law", "uniform", "--d", "1", "--d-hi", "10",
                     "--law", "sufficient", "--seed", "3", "--profiles", str(profiles_path),
                     "--out", str(trace_path)]) == 0
        trace = read_trace_csv(trace_path)
        profiles, model = load_profiles(profiles_path), load_model(model_path)
        lo, hi = 1.0, 10.0
        declared = reference_schedule_csv(*weight_schedule(trace.horizon, model, lo, hi, profiles.min_profit))
        observed = reference_schedule_csv(*weight_schedule(trace.horizon, model, trace.d_min, trace.d_max,
                                                           profiles.min_profit))
        assert declared != observed
        out = tmp_path / "run"
        argv = ["run", "--profiles", str(profiles_path), "--model", str(model_path),
                "--trace", str(trace_path), "--out", str(out)]
        assert main([*argv, "--d-min", "1", "--d-max", "10"]) == 0
        assert (out / "schedule.csv").read_text() == declared
        bounds = json.loads((out / "summary.json").read_text())["bounds"]["inputs"]
        assert (bounds["d_min"], bounds["d_max"]) == (lo, hi)
        capsys.readouterr()
        declared = trace.d_min * 1.01
        assert main([*argv, "--d-min", repr(declared)]) == 1
        k, volume = next((k, volume) for k, volume in enumerate(trace.d, 1) if volume < declared)
        assert capsys.readouterr().err == (f"error: slot {k} volume must be >= {declared:g} "
                                           f"and <= {trace.d_max:g}, got {volume!r}\n")

    @pytest.mark.parametrize("extra", [["--T", "5"], ["--T", "50", "--law", "scarce", "--seed", "9"]],
                             ids=["T", "law"])
    def test_law_flags_refused(self, tmp_path, worked_files, capsys, extra):
        # a trace comes from --trace alone; gen-trace draws one from a law
        argv = ["run", "--profiles", str(worked_files / "profiles.json"),
                "--model", str(worked_files / "model.json"),
                "--trace", str(worked_files / "trace.csv"), "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, *extra]) == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err

    def test_schedule_csv(self, tmp_path, worked_files):
        out = tmp_path / "run"
        main(["run",
              "--profiles", str(worked_files / "profiles.json"),
              "--model", str(worked_files / "model.json"),
              "--trace", str(worked_files / "trace.csv"),
              "--out", str(out)])
        lines = (out / "schedule.csv").read_text().splitlines()
        assert lines[0] == "t,v,w,lambda"
        # v_1 = 0.3 * 0.6 * 1, w_1 = g = 0.5; v_2 = 0, w_2 = f(1) = 0.8
        assert lines[1] == "1,0.18,0.5,0.18"
        assert lines[2] == "2,0,0.8,0.09"

    def test_policy_subset(self, tmp_path, worked_files):
        out = tmp_path / "run"
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--policies", "orric,inference-only",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["policies"]) == {"orric", "inference-only"}
        assert not (out / "focus-shift.csv").exists()

    def test_repeated_policy_refused(self, tmp_path, worked_files, capsys):
        argv = ["run",
                "--profiles", str(worked_files / "profiles.json"),
                "--model", str(worked_files / "model.json"),
                "--trace", str(worked_files / "trace.csv")]
        assert main([*argv, "--policies", "orric,focus-shift", "--out", str(tmp_path / "once")]) == 0
        capsys.readouterr()
        out = tmp_path / "twice"
        assert main([*argv, "--policies", "orric,orric,focus-shift", "--out", str(out)]) == 1
        assert "error: policy 'orric' is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_cap_skips(self, tmp_path, worked_files, capsys):
        out = tmp_path / "run"
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--oracle-cap", "3",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "skipped" in summary["oracle"]
        assert not (out / "oracle.csv").exists()
        assert "oracle skipped" in capsys.readouterr().out

    def test_oracle_disabled(self, tmp_path, worked_files):
        out = tmp_path / "run"
        main(["run",
              "--profiles", str(worked_files / "profiles.json"),
              "--model", str(worked_files / "model.json"),
              "--trace", str(worked_files / "trace.csv"),
              "--oracle-cap", "0",
              "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle"] == {"skipped": "oracle disabled (cap 0)"}

    def test_replay_shortcut(self, tmp_path):
        # `replay` is the one entry point for the replay scenario
        out = tmp_path / "run"
        rc = main(["replay", "fog", "--T", "4", "--out", str(out)])
        assert rc == 0
        for name in ("profiles.json", "model.json", "trace.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["inputs"]["replay"]["corruption"] == "fog"
        assert summary["oracle"]["enumerated_sequences"] == 6**4

    def test_empty_policy_list(self, tmp_path, worked_files, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"), "--policies", ",", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: empty policy list\n"
        assert not out.exists()

    def test_bounds_skipped_off_the_curve_domain(self, tmp_path, worked_files):
        # the menus' top gain 1 lies inside a domain of 2, so the run scores, but the bounds need them equal
        wide = tmp_path / "wide.json"
        save_model(wide, make_model("linear", {"intercept": 0.5, "slope": 0.3}, 2.0))
        out = tmp_path / "run"
        assert main(["run", "--profiles", str(worked_files / "profiles.json"), "--model", str(wide),
                     "--trace", str(worked_files / "trace.csv"), "--out", str(out)]) == 0
        bounds = json.loads((out / "summary.json").read_text())["bounds"]
        assert bounds == {"skipped": "menu top gain 1.0 must equal the curve domain 2.0 for the closed-form bounds to apply"}

    def test_unknown_policy(self, tmp_path, worked_files, capsys):
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--policies", "greedy",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_missing_inputs(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path / "run")])
        assert rc == 1

    def test_budget_on_pair_cost(self, tmp_path, capsys):
        # capacity 0.7 + 0.1 = 0.7999999999999999 is exactly the top pair's cost
        save_profiles(tmp_path / "profiles.json",
                      ProfileSet(retrain=[(0.0, 0.0), (0.5, 0.7)], infer=[(1.0, 0.1)]))
        save_model(tmp_path / "model.json",
                   make_model("linear", {"intercept": 0.5, "slope": 0.3}, 0.5))
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t,d,c\n1,1,{0.7 + 0.1!r}\n2,1,{0.7 + 0.1!r}\n")
        out = tmp_path / "run"
        rc = main(["run", "--profiles", str(tmp_path / "profiles.json"),
                   "--model", str(tmp_path / "model.json"), "--trace", str(trace),
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle"]["total"] == 1.15
        for name, entry in summary["policies"].items():
            assert entry["total"] <= summary["oracle"]["total"], name

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trace(self, tmp_path, worked_files, capsys, value):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t,d,c\n1,1,12\n2,1,{value}\n")
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(trace),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("2,1", "trace CSV line 3: c is missing"),
        ("2,1,5,7", "trace CSV line 3: c must be the last field, got ['7'] after it"),
    ], ids=["short", "extra-field"])
    def test_malformed_trace_row(self, tmp_path, worked_files, capsys, row, message):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t,d,c\n1,1,12\n{row}\n")
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(trace),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_non_finite_L(self, tmp_path, worked_files, capsys):
        model = json.loads((worked_files / "model.json").read_text())
        (tmp_path / "model.json").write_text(json.dumps({**model, "L": float("nan")}))
        out = tmp_path / "run"
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(tmp_path / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


FLOAT_FLAGS = ["--d", "--d-hi", "--c", "--c-hi", "--d-min", "--d-max", "--kappa", "--f-at-max", "--y-lo", "--y-hi"]


def float_flag_command(flag, tmp_path, worked_files) -> list[str]:
    """A valid command that takes flag; the flag added last overrides any earlier value."""
    profiles, model = str(worked_files / "profiles.json"), str(worked_files / "model.json")
    gen_trace = ["gen-trace", "--T", "3", "--d-law", "uniform", "--d", "1", "--d-hi", "2",
                 "--law", "uniform", "--c", "20", "--c-hi", "30", "--out", str(tmp_path / "t.csv")]
    bounds = ["bounds", "--profiles", profiles, "--model", model, "--d-min", "1", "--d-max", "2", "--T", "4"]
    return {
        "--d": gen_trace, "--d-hi": gen_trace, "--c": gen_trace, "--c-hi": gen_trace,
        "--d-min": bounds, "--d-max": bounds,
        "--kappa": ["replay", "fog", "--T", "2", "--out", str(tmp_path / "r")],
        "--f-at-max": ["replay", "fog", "--T", "2", "--out", str(tmp_path / "r")],
        "--y-lo": ["witness", "--model", model, "--y-lo", "0.5", "--y-hi", "1"],
        "--y-hi": ["witness", "--model", model, "--y-lo", "0.5", "--y-hi", "1"],
    }[flag]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", FLOAT_FLAGS)
def test_non_finite_float_flag(tmp_path, worked_files, capsys, flag, value):
    command = float_flag_command(flag, tmp_path, worked_files)
    assert main(command) == 0
    capsys.readouterr()
    assert main([*command, flag, value]) == 1
    assert f"argument {flag}: value must be a finite number, got '{value}'" in capsys.readouterr().err


# valid documents and text files for each reader of numbers from outside the program
NUMBER_DOCS = {
    "menu-json": {"retrain": [{"gain": 0.5, "cost": 3.0}],
                  "infer": [{"profit": 0.6, "cost": 2.0}, {"profit": 1.0, "cost": 5.0}]},
    "curve-json": {"family": "linear", "params": {"intercept": 0.5, "slope": 0.3}, "domain_max": 1.0, "L": 0.3},
    "spec-json": {"corruption": "fog", "horizon": 2, "train_cost_multiplier": 3.0, "L": 0.01,
                  "data_per_slot": 1000.0, "f_at_max": 0.8},
}
NUMBER_TEXT = {
    "menu-csv": [["kind", "gain_or_profit", "cost"], ["retrain", "0.5", "3.0"], ["infer", "1.0", "1.0"]],
    "trace-csv": [["t", "d", "c"], ["1", "1", "12"], ["2", "1", "5"]],
}
# (reader, where the value goes, the field the error names)
NUMBERS_IN_JSON = [
    ("menu-json", ("retrain", 0, "gain"), "retrain entry 1: retraining gain"),
    ("menu-json", ("infer", 1, "profit"), "infer entry 2: inference profit"),
    ("menu-json", ("infer", 0, "cost"), "infer entry 1: inference cost"),
    ("curve-json", ("domain_max",), "domain_max"),
    ("curve-json", ("L",), "L"),
    ("curve-json", ("params", "slope"), "curve parameter 'slope'"),
    *(("spec-json", (name,), name) for name in ("train_cost_multiplier", "L", "data_per_slot", "f_at_max")),
]
NUMBERS_IN_TEXT = [
    ("menu-csv", (1, 1), "profile CSV line 2: gain_or_profit"),
    ("menu-csv", (2, 2), "profile CSV line 3: cost"),
    ("trace-csv", (2, 0), "trace CSV line 3: t"),
    ("trace-csv", (2, 1), "trace CSV line 3: d"),
    ("trace-csv", (1, 2), "trace CSV line 2: c"),
]
# JSON text -> the value json reads; the last is an integer past the float range
NOT_JSON_NUMBERS = {"true": True, "false": False, '"0.5"': "0.5", "null": None,
                    "NaN": float("nan"), "Infinity": float("inf"), "1e400-digits": 10**400}
# a JSON null there means the field's default
NULL_IS_DEFAULT = {("curve-json", ("L",)), ("spec-json", ("f_at_max",))}


def outside_number_cases():
    for reader, where, field in NUMBERS_IN_JSON:
        for text, value in NOT_JSON_NUMBERS.items():
            if value is not None or (reader, where) not in NULL_IS_DEFAULT:
                yield pytest.param(reader, where, value, f"{field} must be a finite number, got {value!r}",
                                   id=f"{reader}-{'.'.join(map(str, where))}-{text}")
    for value in ("abc", "nan", "1e400"):
        for reader, where, field in NUMBERS_IN_TEXT:
            row, column = where
            rule = "an integer >= 1" if field.endswith(": t") else "a finite number"  # a slot number is an integer
            yield pytest.param(reader, where, value, f"{field} must be {rule}, got {value!r}",
                               id=f"{reader}-line{row + 1}-{NUMBER_TEXT[reader][0][column]}-{value}")
        for flag in FLOAT_FLAGS:
            yield pytest.param("flag", flag, value, f"argument {flag}: value must be a finite number, got {value!r}",
                               id=f"flag{flag}-{value}")
    for value in ("2.0", "2e0"):  # numbers, but no slot number
        yield pytest.param("trace-csv", (2, 0), value, f"trace CSV line 3: t must be an integer >= 1, got {value!r}",
                           id=f"trace-csv-line3-t-{value}")


def reader_command(reader, path, tmp_path, worked_files) -> list[str]:
    """A command that reads the file at path with the named reader."""
    prune = ["prune", "--profiles", str(path), "--out", str(tmp_path / "pruned.json")]
    return {
        "menu-json": prune,
        "menu-csv": prune,
        "curve-json": ["witness", "--model", str(path), "--y-lo", "0.5", "--y-hi", "1", "--grid", "2"],
        "spec-json": ["replay", "--spec", str(path), "--out", str(tmp_path / "replay")],
        "trace-csv": ["run", "--profiles", str(worked_files / "profiles.json"),
                      "--model", str(worked_files / "model.json"), "--trace", str(path),
                      "--out", str(tmp_path / "run")],
    }[reader]


@pytest.mark.parametrize("reader, where, value, message", outside_number_cases())
def test_outside_number_refused(tmp_path, worked_files, capsys, reader, where, value, message):
    # a number from a file or a flag is a finite int or float: no bool, NaN, infinity, or string inside JSON
    path = tmp_path / reader.replace("-", ".")
    command = (float_flag_command(where, tmp_path, worked_files) if reader == "flag"
               else reader_command(reader, path, tmp_path, worked_files))
    refused = [*command, where, value] if reader == "flag" else command

    def write(with_value: bool):
        if reader in NUMBER_DOCS:
            doc = json.loads(json.dumps(NUMBER_DOCS[reader]))
            if with_value:
                *keys, last = where
                target = doc
                for key in keys:
                    target = target[key]
                target[last] = value
            path.write_text(json.dumps(doc))
        elif reader in NUMBER_TEXT:
            rows = [list(row) for row in NUMBER_TEXT[reader]]
            if with_value:
                rows[where[0]][where[1]] = value
            path.write_text("".join(",".join(row) + "\n" for row in rows))

    write(with_value=False)
    assert main(command) == 0, capsys.readouterr().err
    capsys.readouterr()
    write(with_value=True)
    assert main(refused) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("reader, kind", [
    ("menu-json", "profile JSON"), ("curve-json", "model spec"), ("spec-json", "replay spec"),
])
@pytest.mark.parametrize("damage", ["truncated", "empty", "list"])
def test_malformed_json_file_names_its_kind(tmp_path, worked_files, capsys, reader, kind, damage):
    # a file that is not JSON, or not a JSON object, exits 1 with an error that says which input it was
    path = tmp_path / reader.replace("-", ".")
    command = reader_command(reader, path, tmp_path, worked_files)
    text = json.dumps(NUMBER_DOCS[reader])
    path.write_text(text)
    assert main(command) == 0, capsys.readouterr().err
    capsys.readouterr()
    path.write_text({"truncated": text[:13], "empty": "", "list": f"[{text}]"}[damage])
    assert main(command) == 1
    (line,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    if damage == "list":
        assert line.startswith(f"error: {kind} must be ") and "object" in line
    else:
        assert line.startswith(f"error: bad {kind}: ") and "line 1 column" in line  # json's own position text


@pytest.mark.parametrize("command, flag, value, message", [
    ("run", "--oracle-cap", "-1", "must be >= 0, got -1"),
    ("replay", "--oracle-cap", "-1", "must be >= 0, got -1"),
    ("oracle", "--cap", "-1", "must be >= 0, got -1"),
    ("replay", "--seed", "-1", f"must be in 0..{2**128 - 1}, got -1"),
    ("gen-trace", "--seed", "-1", f"must be in 0..{2**128 - 1}, got -1"),
    ("replay", "--seed", str(2**128), f"must be in 0..{2**128 - 1}, got {2**128}"),
    ("replay", "--seed", "x", f"must be an integer in 0..{2**128 - 1}, got 'x'"),
    ("gen-trace", "--T", "0", "must be >= 1, got 0"),
    ("bounds", "--T", "0", "must be >= 1, got 0"),
    ("replay", "--T", "0", "must be >= 1, got 0"),
    ("replay", "--T", "abc", "must be an integer >= 1, got 'abc'"),
])
def test_out_of_range_int_flag(tmp_path, worked_files, capsys, command, flag, value, message):
    # each command is valid as given; the flag added last overrides any earlier value
    profiles, model, out = str(worked_files / "profiles.json"), str(worked_files / "model.json"), str(tmp_path / "o")
    argv = {
        "run": ["run", "--profiles", profiles, "--model", model,
                "--trace", str(worked_files / "trace.csv"), "--out", out],
        "replay": ["replay", "fog", "--T", "2", "--out", out],
        "oracle": ["oracle", "--profiles", profiles, "--model", model,
                   "--trace", str(worked_files / "trace.csv")],
        "gen-trace": ["gen-trace", "--T", "2", "--law", "constant", "--c", "2", "--out", out],
        "bounds": ["bounds", "--profiles", profiles, "--model", model, "--d-min", "1", "--d-max", "1", "--T", "2"],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, flag, value]) == 1
    # the integer rule's message, naming the flag's text "value"
    assert f"argument {flag}: value {message}" in capsys.readouterr().err


class TestSharedPlan:
    """Every file a run writes equals the public per-policy path's and an independent rebuild's."""

    @staticmethod
    def independent_csv(name, trace, profiles, model):
        # decisions from the raw trace tuples and a fresh schedule, scored slot by slot
        horizon = trace.horizon
        schedule = None
        if name == ORRIC:
            schedule = weight_schedule(horizon, model, trace.d_min, trace.d_max, profiles.min_profit)
        u = np.array(trace.c) / np.array(trace.d)
        indices = table_decisions(name, fit_table(trace.d, trace.c, profiles), np.arange(1, horizon + 1),
                                  horizon, u, profiles, schedule)
        decisions = tuple(map(tuple, indices.tolist()))
        return reference_run_csv(reference_objective(decisions, trace, profiles, model), trace)

    def check_run_dir(self, out, trace, profiles, model, oracle: bool):
        for name in POLICIES:
            written = (out / f"{name}.csv").read_text()
            assert written == reference_run_csv(run_policy(name, trace, profiles, model), trace), name
            assert written == self.independent_csv(name, trace, profiles, model), name
        assert (out / "oracle.csv").exists() == oracle
        if oracle:
            expected = reference_run_csv(offline_optimal(trace, profiles, model), trace)
            assert (out / "oracle.csv").read_text() == expected
        weights = weight_schedule(trace.horizon, model, trace.d_min, trace.d_max, profiles.min_profit)
        assert (out / "schedule.csv").read_text() == reference_schedule_csv(*weights)

    @pytest.mark.parametrize("label, horizon, oracle", [
        ("fog", 50, False), ("contrast", 50, False), ("speckle noise", 50, False),
        ("gaussian noise", 8, True),
    ])
    def test_replay(self, tmp_path, label, horizon, oracle):
        out = tmp_path / "replay"
        assert main(["replay", label, "--T", str(horizon), "--out", str(out)]) == 0
        profiles, model, trace_spec = build_replay(ReplaySpec(corruption=label, horizon=horizon))
        trace = generate_trace(trace_spec, profiles)
        assert load_profiles(out / "profiles.json") == profiles
        assert load_model(out / "model.json") == model
        self.check_run_dir(out, trace, profiles, model, oracle)

    def test_worked_run(self, tmp_path, worked_files):
        out = tmp_path / "run"
        assert main(["run", "--profiles", str(worked_files / "profiles.json"),
                     "--model", str(worked_files / "model.json"),
                     "--trace", str(worked_files / "trace.csv"), "--out", str(out)]) == 0
        self.check_run_dir(out, read_trace_csv(worked_files / "trace.csv"),
                           load_profiles(worked_files / "profiles.json"),
                           load_model(worked_files / "model.json"), oracle=True)


class TestOracle:
    def test_prints_total(self, tmp_path, worked_files, capsys):
        out = tmp_path / "oracle.csv"
        rc = main(["oracle",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "oracle: 1.1"
        assert out.read_text().splitlines()[1].startswith("1,2,1,")

    def test_cap_exceeded(self, tmp_path, worked_files, capsys):
        rc = main(["oracle",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"),
                   "--cap", "3"])
        assert rc == 1
        assert "exceed" in capsys.readouterr().err

    def test_cap_boundary(self, worked_files, capsys):
        # the worked trace has 2^2 retraining sequences: a cap of 4 admits them, 3 does not
        argv = ["oracle", "--profiles", str(worked_files / "profiles.json"),
                "--model", str(worked_files / "model.json"), "--trace", str(worked_files / "trace.csv")]
        assert main([*argv, "--cap", "4"]) == 0
        assert capsys.readouterr().out == "oracle: 1.1\n"
        assert main([*argv, "--cap", "3"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: 2^2 retraining sequences exceed the cap 3\n")

    def test_bound_flags_refused(self, worked_files, capsys):
        # the optimum does not depend on declared volume bounds, so oracle takes none
        rc = main(["oracle", "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(worked_files / "trace.csv"), "--d-min", "0.5", "--d-max", "50"])
        assert rc == 1
        assert "unrecognized arguments: --d-min 0.5 --d-max 50" in capsys.readouterr().err


class TestBounds:
    def test_report(self, tmp_path, worked_files, capsys):
        priced = tmp_path / "priced.json"
        save_model(priced, make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0,
                                      L_override=0.01))
        rc = main(["bounds",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(priced),
                   "--d-min", "1000", "--d-max", "1000", "--T", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] == 0.0075
        assert report["crossover_horizon"] == pytest.approx(80.0, abs=1e-9)
        assert report["cr_orric"] == pytest.approx(0.6296875, abs=1e-12)

    def test_out_file_holds_the_printed_report(self, tmp_path, worked_files, capsys):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--profiles", str(worked_files / "profiles.json"),
                     "--model", str(worked_files / "model.json"),
                     "--d-min", "1", "--d-max", "10", "--T", "100", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("target, code", [("missing/bounds.json", errno.ENOENT), ("existing-dir", errno.EISDIR)])
    def test_failed_write_names_the_target(self, tmp_path, worked_files, capsys, monkeypatch, target, code):
        # the temporary file's name is random, so a message naming it would differ between reruns
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing-dir").mkdir()
        profiles, model = str(worked_files / "profiles.json"), str(worked_files / "model.json")
        argv = ["bounds", "--profiles", profiles, "--model", model, "--d-min", "1", "--d-max", "10", "--T", "100",
                "--out", target]
        errors = []
        for _ in range(2):
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: [Errno {code}] {os.strerror(code)}: '{target}'\n"
        assert not [path for path in tmp_path.rglob("*") if path.name.endswith(".tmp")]

    def test_undefined_crossover(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.json"
        save_profiles(profiles, ProfileSet(retrain=[(0.0, 0.0)], infer=[(1.0, 5.0)]))
        flat = tmp_path / "flat.json"
        with pytest.warns(UserWarning):
            save_model(flat, make_model("constant", {"value": 0.7}, 0.0))
        with pytest.warns(UserWarning):
            rc = main(["bounds", "--profiles", str(profiles), "--model", str(flat),
                       "--d-min", "1", "--d-max", "1", "--T", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["crossover_horizon"] is None
        assert report["alpha"] == 0.0


class TestReplayCommand:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "replay"
        rc = main(["replay", "gaussian noise", "--T", "5", "--out", str(out)])
        assert rc == 0
        profiles = json.loads((out / "profiles.json").read_text())
        assert len(profiles["infer"]) == 3
        model = json.loads((out / "model.json").read_text())
        assert model["family"] == "linear"
        assert model["params"]["slope"] == 0.01
        summary = json.loads((out / "summary.json").read_text())
        assert summary["inputs"]["replay"]["corruption"] == "gaussian noise"
        assert "oracle" in summary

    def test_byte_identical_rerun(self, tmp_path):
        out = tmp_path / "replay"
        argv = ["replay", "fog", "--T", "6", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        assert read_tree(out) == first

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"corruption": "fog", "horizon": 3, "seed": 9}))
        out = tmp_path / "replay"
        rc = main(["replay", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["inputs"]["replay"]["horizon"] == 3

    def test_needs_label_or_spec(self, tmp_path, capsys):
        rc = main(["replay", "--out", str(tmp_path / "r")])
        assert rc == 1

    def test_label_and_spec_refused(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"corruption": "contrast", "horizon": 2}))
        out = tmp_path / "replay"
        assert main(["replay", "--spec", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["replay", "fog", "--spec", str(spec), "--out", str(tmp_path / "both")]) == 1
        err = capsys.readouterr().err
        assert "'fog'" in err and f"--spec {spec}" in err
        assert not (tmp_path / "both").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("sampling_ratios", 0.5, "sampling_ratios must be a list"),
        ("sampling_ratios", [0.0, float("nan")], "sampling_ratios entry 2 must be a finite number, got nan"),
        ("sampling_ratios", [0.0, True], "sampling_ratios entry 2 must be a finite number, got True"),
        ("sampling_ratios", [0.0, "0.5"], "sampling_ratios entry 2 must be a finite number, got '0.5'"),
        ("sampling_ratios", [0.0, -0.5], "sampling_ratios entry 2 must be >= 0, got -0.5"),
        ("horizon", 2.5, "horizon must be an integer >= 1, got 2.5"),
        ("horizon", "2", "horizon must be an integer >= 1, got '2'"),
        ("horizon", True, "horizon must be an integer >= 1, got True"),
        ("epochs_per_slot", 1.5, "epochs_per_slot must be an integer >= 1, got 1.5"),
        ("epochs_per_slot", True, "epochs_per_slot must be an integer >= 1, got True"),
        ("seed", -1, f"seed must be in 0..{2**128 - 1}, got -1"),
        ("seed", 2**128, f"seed must be in 0..{2**128 - 1}, got {2**128}"),
        ("seed", True, f"seed must be an integer in 0..{2**128 - 1}, got True"),
        ("train_cost_multiplier", float("nan"), "train_cost_multiplier must be a finite number, got nan"),
        ("L", float("inf"), "L must be a finite number, got inf"),
        ("L", False, "L must be a finite number, got False"),
        ("data_per_slot", float("-inf"), "data_per_slot must be a finite number, got -inf"),
        ("f_at_max", float("nan"), "f_at_max must be a finite number, got nan"),
        ("f_at_max", "high", "f_at_max must be a finite number, got 'high'"),
    ])
    def test_malformed_spec(self, tmp_path, capsys, field, value, message):
        # the spec is valid without the field; json writes NaN and infinities as bare tokens
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"corruption": "fog", "horizon": 2}))
        assert main(["replay", "--spec", str(spec), "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        spec.write_text(json.dumps({"corruption": "fog", "horizon": 2, field: value}))
        assert main(["replay", "--spec", str(spec), "--out", str(tmp_path / "r")]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_unknown_label(self, tmp_path, capsys):
        rc = main(["replay", "rain", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "unknown corruption" in capsys.readouterr().err


class TestWitness:
    def test_both_signs(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        save_model(model, make_model(
            "exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0))
        out = tmp_path / "witness.json"
        rc = main(["witness", "--model", str(model), "--y-lo", "0.5", "--y-hi", "1",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["positive"]["gap"] > 0.0
        assert report["negative"]["gap"] < 0.0

    @pytest.mark.parametrize("grid", ["-1", "0", "1", "65", "1000000"])
    def test_grid_out_of_bounds(self, tmp_path, monkeypatch, capsys, grid):
        # a rejected grid must never reach the search: it holds grid^3 doubles and visits up to grid^5 points
        def unreachable(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "nonconvexity_witness", unreachable)
        model = tmp_path / "model.json"
        save_model(model, make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0))
        rc = main(["witness", "--model", str(model), "--y-lo", "0.5", "--y-hi", "1", "--grid", grid])
        assert rc == 1
        assert f"argument --grid: value must be in 2..64, got {grid}" in capsys.readouterr().err

    def test_smallest_grid(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        save_model(model, make_model(
            "exponential-saturation", {"limit": 0.8, "scale": 0.3, "rate": 2.0}, 1.0))
        rc = main(["witness", "--model", str(model), "--y-lo", "0.5", "--y-hi", "1", "--grid", "2"])
        assert rc == 0
        assert set(json.loads(capsys.readouterr().out)) == {"positive", "negative"}

    def test_flat_curve_reports_nulls(self, tmp_path, capsys):
        model = tmp_path / "flat.json"
        with pytest.warns(UserWarning):
            save_model(model, make_model("constant", {"value": 0.7}, 1.0))
        with pytest.warns(UserWarning):
            rc = main(["witness", "--model", str(model), "--y-lo", "0.5", "--y-hi", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report == {"positive": None, "negative": None}
        assert "no witness" in captured.err

    @pytest.mark.parametrize("change, message", [
        (lambda doc: [doc], "model spec must be an object with keys 'family', 'params', 'domain_max' and optional "
                            "keys 'L', got [{'family': 'linear', 'params': {'intercept': 0.5, 'slope': 0.3}, "
                            "'domain_max': 1.0, 'L': 0.3}]"),
        (lambda doc: {**doc, "params": ["intercept", "slope"]},
         "curve params must be an object with keys 'intercept', 'slope', got ['intercept', 'slope']"),
        (lambda doc: {**doc, "family": ["linear"]}, "unknown curve family ['linear']"),
        (lambda doc: {**doc, "domain_max": None}, "domain_max must be a finite number, got None"),
        (lambda doc: {**doc, "params": {"intercept": None, "slope": 0.3}},
         "curve parameter 'intercept' must be a finite number, got None"),
        (lambda doc: {**doc, "L": [1]}, "L must be a finite number, got [1]"),
        (lambda doc: {**doc, "domain_max": True}, "domain_max must be a finite number, got True"),
    ], ids=["list", "params-list", "family-list", "domain-max-null", "param-null", "L-list", "domain-max-true"])
    def test_malformed_curve_json(self, tmp_path, capsys, change, message):
        doc = {"family": "linear", "params": {"intercept": 0.5, "slope": 0.3}, "domain_max": 1.0, "L": 0.3}
        model = tmp_path / "model.json"
        argv = ["witness", "--model", str(model), "--y-lo", "0.5", "--y-hi", "1", "--grid", "2"]
        model.write_text(json.dumps(doc))
        assert main(argv) == 0
        capsys.readouterr()
        model.write_text(json.dumps(change(doc)))
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(["oracle", "--profiles", str(tmp_path / "nope.json"),
                   "--model", str(tmp_path / "nope.json"),
                   "--trace", str(tmp_path / "nope.csv")])
        assert rc == 1

    def test_infeasible_is_two(self, tmp_path, worked_files, capsys):
        trace = tmp_path / "starved.csv"
        trace.write_text("t,d,c\n1,1,12\n2,1,1\n")
        rc = main(["run",
                   "--profiles", str(worked_files / "profiles.json"),
                   "--model", str(worked_files / "model.json"),
                   "--trace", str(trace),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["run"]) == 1
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    @pytest.mark.parametrize("command, full, abbreviated", [
        ("run", ["--oracle-cap", "0"], ["--oracle", "0"]),
        ("replay", ["--oracle-cap", "0"], ["--ora", "0"]),
        ("bounds", ["--d-min", "1", "--d-max", "2"], ["--d-mi", "1", "--d-ma", "2"]),
    ], ids=["run", "replay", "bounds"])
    def test_abbreviated_flag_refused(self, tmp_path, worked_files, capsys, command, full, abbreviated):
        # a prefix is not a flag: it would change meaning once a later flag shares it
        profiles, model = str(worked_files / "profiles.json"), str(worked_files / "model.json")
        argv = {
            "run": ["run", "--profiles", profiles, "--model", model, "--trace", str(worked_files / "trace.csv")],
            "replay": ["replay", "fog", "--T", "2"],
            "bounds": ["bounds", "--profiles", profiles, "--model", model, "--T", "4"],
        }[command]
        out = [] if command == "bounds" else ["--out", str(tmp_path / "full")]
        assert main([*argv, *full, *out]) == 0
        capsys.readouterr()
        out = [] if command == "bounds" else ["--out", str(tmp_path / "abbreviated")]
        assert main([*argv, *abbreviated, *out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "abbreviated").exists()

    def test_bad_flag_value(self, tmp_path, capsys):
        assert main(["gen-trace", "--T", "three", "--out", str(tmp_path / "t.csv")]) == 1
