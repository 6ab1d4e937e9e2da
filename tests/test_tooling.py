"""Names the benchmark tracer wraps must exist in the package."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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
