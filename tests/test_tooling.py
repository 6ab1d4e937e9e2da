"""Names the benchmark tracer wraps must exist in the package and keep covering the work they time;
the package's public names are its modules' __all__ lists, each name once; the mutation catalogue's
snippets and tests must exist too; the integer, volume-bound and finite-number rules, and the rules for
a JSON object's keys and a CSV file's cells, are stated once."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import shlex
import types
from pathlib import Path

import orric
import orric.cli as cli
import orric.engine as engine
import orric.policies as policies
from orric.policies import INFERENCE_GREEDY, POLICIES
from conftest import count_calls

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"
MUTANTS = ROOT / "tools" / "mutants.py"


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


def test_run_shares_its_inputs(monkeypatch, tmp_path):
    # a run scores and writes through the traced names, and builds the fit table
    # and the weight schedule once; at T = 8 the default cap lets the oracle run
    traced = {entry for names in traced_names().values() for entry in names}
    assert {("orric.engine", "evaluate_objective"), ("orric.engine", "write_run_csv")} <= traced
    calls = {
        fn.__name__: count_calls(monkeypatch, fn)
        for fn in (engine.evaluate_objective, engine.write_run_csv, policies.fit_table, policies.weight_schedule)
    }
    assert cli.main(["replay", "fog", "--T", "8", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "oracle.csv").exists()
    assert len(calls["evaluate_objective"]) == len(POLICIES) + 1
    assert len(calls["write_run_csv"]) == len(POLICIES) + 1
    # generate_trace's feasibility check builds the fit table the run reads
    assert len(calls["fit_table"]) == 1
    assert len(calls["weight_schedule"]) == 1


def test_cli_runs_through_the_traced_names(monkeypatch, tmp_path):
    # the engine.run_policy and engine.oracle layers see a CLI run's policies and oracle
    table = traced_names()
    assert table["engine.run_policy"] == [("orric.engine", "run_policy")]
    assert table["engine.oracle"] == [("orric.engine", "offline_optimal")]
    calls = {fn.__name__: count_calls(monkeypatch, fn) for fn in (engine.run_policy, engine.offline_optimal)}
    assert cli.main(["replay", "fog", "--T", "8", "--out", str(tmp_path)]) == 0
    assert [len(calls["run_policy"]), len(calls["offline_optimal"])] == [len(POLICIES), 1]


def test_readme_commands_parse():
    # every command line the README shows is accepted by the parser; nothing runs
    lines = [line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("orric ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_per_slot_names_read_the_table(monkeypatch, worked_profiles, worked_model):
    # the per-slot names the tracer wraps are one-slot views of the run's own rule
    calls = {
        fn.__name__: count_calls(monkeypatch, fn)
        for fn in (policies.fit_table, policies.table_decisions, policies.weight_schedule)
    }
    steps = {
        "orric_step": lambda: policies.orric_step(0.5, 1.0, 12.0, worked_profiles),
        "heuristic_step": lambda: policies.heuristic_step(INFERENCE_GREEDY, 1, 2, 12.0, worked_profiles),
    }
    for name, step in steps.items():
        for log in calls.values():
            log.clear()
        step()
        assert [len(calls["fit_table"]), len(calls["table_decisions"])] == [1, 1], name
    calls["weight_schedule"].clear()
    policies.compute_weights(1, 2, worked_model, 1.0, 1.0, 0.6)
    assert len(calls["weight_schedule"]) == 1


EXPORTING = ("accuracy", "analysis", "engine", "errors", "policies", "profiles", "scenario")


def test_public_names_resolve():
    modules = [importlib.import_module(f"orric.{info.name}") for info in pkgutil.iter_modules(orric.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"
    assert orric.__all__
    for name in orric.__all__:
        assert hasattr(orric, name), f"orric.{name} does not resolve"


def test_package_exports_each_module_all_once():
    # a name listed by two modules would shadow the other silently under the star imports
    modules = [importlib.import_module(f"orric.{name}") for name in EXPORTING]
    assert list(orric.__all__) == [name for module in modules for name in module.__all__]
    assert len(set(orric.__all__)) == len(orric.__all__)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(orric, name) is obj, f"orric.{name} is not {module.__name__}.{name}"
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == module.__name__, f"{module.__name__} lists {obj.__module__}.{name}"
    # the package itself names no public name: it star-imports the modules and joins their lists
    tree = ast.parse(Path(orric.__file__).read_text())
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported <= {"*", *EXPORTING}
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(orric.__all__)


def test_mutant_catalogue_points_at_the_code():
    # a refactor that moves a catalogued snippet or renames its tests must update the catalogue
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in (ROOT / "src").rglob("*.py")}
    assert mutants.CATALOGUE
    for name, mutant in mutants.CATALOGUE.items():
        hits = {path: text.count(mutant.snippet) for path, text in sources.items() if mutant.snippet in text}
        assert hits == {mutant.path: 1}, name
        assert mutant.tests, name
        for test in mutant.tests:
            path, *nodes = test.split("::")
            text = (ROOT / path).read_text()
            for node in nodes:
                assert f"def {node}(" in text or f"class {node}:" in text, f"{name}: {test}"


def rule_statements(path: Path) -> set[str]:
    """Which of the two input rules the module states: a numbers.Integral test, a d_min/d_max comparison."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if "Integral" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
            found.add("Integral")
        if isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            names = {getattr(operand, "id", getattr(operand, "attr", None)) for operand in operands}
            if names & {"d_min", "d_lo"} and names & {"d_max", "d_hi"}:
                found.add("d_min <= d_max")
    return found


def test_integer_and_volume_bound_rules_are_stated_once():
    # errors.integer and errors.volume_bounds are the one statement of each rule; every other module calls them
    errors = ROOT / "src" / "orric" / "errors.py"
    assert rule_statements(errors) == {"Integral", "d_min <= d_max"}
    for path in sorted(errors.parent.glob("*.py")):
        if path != errors:
            assert not rule_statements(path), path.name


# the one finiteness test that errors.finite_number does not serve: a curve's values computed on its validation grid
ISFINITE_EXEMPT = {("accuracy.py", "make_model")}


def isfinite_sites(path: Path) -> set[str]:
    """The qualified names of the functions in the module that name isfinite, as a call or a reference."""
    sites = set()

    def visit(node, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if "isfinite" in {getattr(node, "id", None), getattr(node, "attr", None)}:
            sites.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return sites


def test_finite_number_rule_is_stated_once():
    # a scalar input's finiteness is tested by errors.finite_number alone; every other module calls it
    errors = ROOT / "src" / "orric" / "errors.py"
    assert isfinite_sites(errors) == {"finite_number"}
    found = {(path.name, site) for path in sorted(errors.parent.glob("*.py")) if path != errors
             for site in isfinite_sites(path)}
    assert found == ISFINITE_EXEMPT


def file_field_sites(path: Path) -> set[str]:
    """Which of the file rules' statements the module makes: importing csv, or wording a message about an
    object or its keys (any string but a docstring that names either)."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and "csv" in {alias.name for alias in node.names}:
            found.add("import csv")
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.add("import csv")
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            if re.search(r"\b(object|keys?)\b", node.value):
                found.add("object message")
    return found


def test_file_field_rules_are_stated_once():
    # errors.read_csv reads every CSV file and errors.json_object checks and words every JSON object's keys
    errors = ROOT / "src" / "orric" / "errors.py"
    assert file_field_sites(errors) == {"import csv", "object message"}
    for path in sorted(errors.parent.glob("*.py")):
        if path != errors:
            assert not file_field_sites(path), path.name
