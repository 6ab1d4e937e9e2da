"""Names the benchmark tracer wraps must exist in the package and keep covering the work they time."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import orric.engine as engine
from orric.policies import POLICIES

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def traced_names() -> dict[str, list[tuple[str, str]]]:
    """The tracer's TRACED table, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_traced_names_resolve():
    table = traced_names()
    assert table
    for layer, names in table.items():
        for module, path in names:
            obj = importlib.import_module(module)
            for attr in path.split("."):
                assert hasattr(obj, attr), f"{layer}: {module}.{path} does not resolve"
                obj = getattr(obj, attr)
            assert callable(obj), f"{layer}: {module}.{path} is not callable"


def test_scoring_calls_the_traced_name(monkeypatch, worked_profiles, worked_model, worked_trace):
    # the engine.score layer covers policy and oracle scoring only while both call this name
    assert ("orric.engine", "evaluate_objective") in traced_names()["engine.score"]
    calls = []
    score = engine.evaluate_objective

    def counting(*args, **kwargs):
        calls.append(args)
        return score(*args, **kwargs)

    monkeypatch.setattr(engine, "evaluate_objective", counting)
    for policy in POLICIES:
        calls.clear()
        engine.run_policy(policy, worked_trace, worked_profiles, worked_model)
        assert len(calls) == 1, policy
    calls.clear()
    engine.offline_optimal(worked_trace, worked_profiles, worked_model)
    assert len(calls) == 1
