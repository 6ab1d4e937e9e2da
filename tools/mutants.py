"""Rerun the mutation catalogue: every test named for a mutant must fail under it.

    python tools/mutants.py            # every catalogued mutant
    python tools/mutants.py NAME ...   # only the named ones

Each mutant replaces one source snippet, which occurs exactly once under
src/, with a broken variant. The script copies src/, tests/ and
pyproject.toml into a temporary directory and first checks that the
named tests pass there unmutated. It then applies one mutant at a time to
the copy and runs each of its tests on its own, with PYTHONPATH pointing
at the copy. It prints one line per mutant and test, and exits 1 when a
test passes under its mutant (a survivor) or a run cannot tell. The
working tree is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    path: str  # the file holding the snippet, relative to the repository root
    snippet: str  # source text that occurs exactly once under src/
    replacement: str  # the broken variant
    tests: tuple[str, ...]  # pytest node ids, each of which must fail under the mutant


CATALOGUE = {
    # orric's ties must go to the lowest retraining index
    "table-last-maximum": Mutant(
        "src/orric/policies.py",
        "i = np.argmax(value, axis=1)",
        "i = value.shape[1] - 1 - np.argmax(value[:, ::-1], axis=1)",
        (
            "tests/test_acceptance.py::test_criterion_01_step_rule_equals_enumeration",
            "tests/test_policies.py::TestFitTable::test_decisions_match_pair_enumeration",
            "tests/test_policies.py::TestOrricStep::test_tie_keeps_scan_order_first",
        ),
    ),
    # a NaN price poisons every score of the slot
    "orric-step-finite-prices": Mutant(
        "src/orric/policies.py",
        'v, w = finite_number(v, "v", lo=0.0), finite_number(w, "w", above=0.0)',
        "v, w = float(v), float(w)",
        ("tests/test_policies.py::TestStepInputs::test_non_finite_rejected",),
    ),
    # a NaN budget reads as infeasible, an infinite one fits every pair
    "one-slot-finite-budget": Mutant(
        "src/orric/policies.py",
        'u = finite_number(u, "per-sample budget u")',
        "u = float(u)",
        ("tests/test_policies.py::TestStepInputs::test_non_finite_rejected",),
    ),
    # x strays past domain_max by roundoff, and the clip is the curve's only guard
    "curve-unclipped": Mutant(
        "src/orric/accuracy.py",
        "return self._fn(np.minimum(np.maximum(x, 0.0), self.domain_max))",
        "return self._fn(x)",
        ("tests/test_engine.py::TestCurveCalls",),
    ),
    # a budget exactly on a pair's cost affords it
    "fit-table-strict-budget": Mutant(
        "src/orric/policies.py",
        "(rc[:, None] + ic) <= c[:, None, None]",
        "(rc[:, None] + ic) < c[:, None, None]",
        (
            "tests/test_policies.py::TestFitTable",
            "tests/test_engine.py::TestBudgetBoundary",
        ),
    ),
    # focus-shift must read its own slot's budget
    "focus-shift-other-slot": Mutant(
        "src/orric/policies.py",
        "share = rho * (u - profiles.min_infer_cost)",
        "share = rho * (np.roll(u, 1) - profiles.min_infer_cost)",
        (
            "tests/test_engine.py::TestRunPolicy::test_worked_totals",
            "tests/test_policies.py::TestFitTable::test_decisions_match_pair_enumeration",
        ),
    ),
    # a kept schedule built for another curve must not be reused
    "kept-first-input-only": Mutant(
        "src/orric/engine.py",
        "if kept is None or kept[0] != inputs:",
        "if kept is None or kept[0][0] != inputs[0]:",
        ("tests/test_engine.py::TestSharedPlan",),
    ),
    # the witness reports the first hit in the whole lattice's C scan order
    "witness-rows-reversed": Mutant(
        "src/orric/engine.py",
        "for i1 in range(grid_points):",
        "for i1 in reversed(range(grid_points)):",
        ("tests/test_engine.py::TestWitness",),
    ),
    # one bit coarser, the tail units no longer hold 1/t exactly
    "schedule-tail-unit-coarser": Mutant(
        "src/orric/policies.py",
        "scale = 52 + horizon.bit_length()",
        "scale = 51 + horizon.bit_length()",
        ("tests/test_policies.py::TestComputeWeights",),
    ),
    # 73.29 / 100 is an ulp away from the 0.7329 the table's digits spell
    "ceiling-by-division": Mutant(
        "src/orric/scenario.py",
        "f_at_max = float(f\"{clean['accuracy']!r}e-2\")",
        "f_at_max = clean[\"accuracy\"] / 100",
        ("tests/test_scenario.py::TestReplay::test_default_ceilings_and_capacity_are_exact",),
    ),
    # the last slot has no tail: starting at t = horizon adds 1/horizon to every tail
    "schedule-tail-from-horizon": Mutant(
        "src/orric/policies.py",
        "for t in range(horizon - 1, 0, -1):",
        "for t in range(horizon, 0, -1):",
        ("tests/test_cli.py::TestRun::test_worked_instance_artifacts",),
    ),
    # a perf in exponent form must print as %.12g does, lower-case
    "run-csv-perf-upper-case": Mutant(
        "src/orric/engine.py",
        '_RUN_ROW = f"%d,%d,%d,%s,{_SIG},{_SIG},{_SIG},%s"',
        '_RUN_ROW = f"%d,%d,%d,%s,%.12G,{_SIG},{_SIG},%s"',
        ("tests/test_engine.py::TestRunCSV::test_templates_match_f_string_reference",),
    ),
    # the scorer's gain sums go through the Kahan prefix sum, not numpy's plain one
    "scorer-plain-cumsum": Mutant(
        "src/orric/engine.py",
        "z = _kahan_cumsum((d * menus.gain[i]).tolist())",
        "z = np.cumsum(d * menus.gain[i]).tolist()",
        ("tests/test_engine.py::TestEvaluateObjective::test_matches_per_slot_reference",),
    ),
    # a pair must fit the budget itself, not 5 % more
    "fit-table-loose-budget": Mutant(
        "src/orric/policies.py",
        "(rc[:, None] + ic) <= c[:, None, None]",
        "(rc[:, None] + ic) <= 1.05 * c[:, None, None]",
        ("tests/test_acceptance.py::test_criterion_01_step_rule_equals_enumeration",),
    ),
    # a module that lists a name it imports exports it twice, and the star imports hide which wins
    "scenario-lists-trace": Mutant(
        "src/orric/scenario.py",
        '    "SAMPLING_RATIOS",\n]',
        '    "SAMPLING_RATIOS",\n    "Trace",\n]',
        ("tests/test_tooling.py::test_package_exports_each_module_all_once",),
    ),
    # a cap of exactly m^T admits the oracle
    "cli-cap-strict": Mutant(
        "src/orric/cli.py",
        "if m**horizon > cap else None",
        "if m**horizon >= cap else None",
        ("tests/test_cli.py::TestOracle::test_cap_boundary",),
    ),
    # a CSV input with another header must be refused, not read by whatever columns it happens to have
    "csv-reader-any-header": Mutant(
        "src/orric/errors.py",
        'if reader.fieldnames != header.split(","):',
        "if False:",
        (
            "tests/test_engine.py::TestTraceCSV::test_header_required",
            "tests/test_profiles.py::TestIO::test_wrong_csv_header",
        ),
    ),
    # a short row or one with extra fields must be refused with its line
    "csv-reader-any-row": Mutant(
        "src/orric/errors.py",
        "if None in row or None in row.values():",
        "if False:",
        (
            "tests/test_cli.py::TestRun::test_malformed_trace_row",
            "tests/test_cli.py::TestPrune::test_malformed_menu_csv_row",
        ),
    ),
    # every CSV the package writes ends with a newline
    "csv-writer-no-final-newline": Mutant(
        "src/orric/atomic.py",
        'write_atomic(path, "\\n".join(lines) + "\\n")',
        'write_atomic(path, "\\n".join(lines))',
        ("tests/test_engine.py::TestRunCSV::test_templates_match_f_string_reference",),
    ),
    # a bool is an Integral, but True is no horizon, seed or slot
    "integer-accepts-bool": Mutant(
        "src/orric/errors.py",
        "if not isinstance(number, Integral) or isinstance(number, bool):",
        "if not isinstance(number, Integral):",
        (
            "tests/test_boundaries.py::test_each_entry_point_refuses_with_its_rule",
            "tests/test_scenario.py::TestTraceSpec::test_validation",
            "tests/test_cli.py::TestReplayCommand::test_malformed_spec",
        ),
    ),
    # an infinite d_max passes 0 < d_min <= d_max, and an infinite d_min turns the bounds into NaN
    "volume-bounds-unchecked": Mutant(
        "src/orric/errors.py",
        'd_min, d_max = finite_number(d_min, "d_min"), finite_number(d_max, "d_max")',
        "d_min, d_max = float(d_min), float(d_max)",
        (
            "tests/test_boundaries.py::test_each_entry_point_refuses_with_its_rule",
            "tests/test_engine.py::TestTrace::test_non_finite_rejected",
            "tests/test_policies.py::TestComputeWeights::test_argument_validation",
        ),
    ),
    # equal bounds are the declared range of every constant trace
    "volume-bounds-strict": Mutant(
        "src/orric/errors.py",
        "if not 0.0 < d_min <= d_max:",
        "if not 0.0 < d_min < d_max:",
        (
            "tests/test_boundaries.py::test_equal_bounds_pass",
            "tests/test_engine.py::TestRunPolicy::test_worked_totals",
        ),
    ),
    # an open bound refuses the bound itself: an inference profit or cost of 0 is no operating point
    "number-open-bound-closed": Mutant(
        "src/orric/errors.py",
        "(above is not None and not number > above)",
        "(above is not None and not number >= above)",
        (
            "tests/test_boundaries.py::test_each_entry_point_refuses_with_its_rule",
            "tests/test_profiles.py::TestValidation::test_infer_positive",
        ),
    ),
    # without the range test every signed input passes on its finiteness alone
    "number-range-unchecked": Mutant(
        "src/orric/errors.py",
        "if outside or (hi is not None and number > hi):",
        "if False:",
        (
            "tests/test_boundaries.py::test_each_entry_point_refuses_with_its_rule",
            "tests/test_profiles.py::TestValidation::test_gain_range",
            "tests/test_accuracy.py::TestShapeValidation::test_negative_domain_rejected",
        ),
    ),
    # an infinite y_hi passes y_lo < y_hi, and the search then runs on NaN gaps
    "witness-y-hi-unchecked": Mutant(
        "src/orric/engine.py",
        'finite_number(y_hi, "y_hi")',
        "float(y_hi)",
        (
            "tests/test_boundaries.py::test_each_entry_point_refuses_with_its_rule",
            "tests/test_engine.py::TestWitness::test_bounds_refused",
        ),
    ),
}


def pytest_run(root: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=root, env=env, capture_output=True).returncode


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in CATALOGUE]
    if unknown:
        print(f"unknown mutant(s) {unknown}; known: {list(CATALOGUE)}", file=sys.stderr)
        return 2
    chosen = {name: CATALOGUE[name] for name in argv or CATALOGUE}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, root / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, root / item)
        tests = sorted({test for mutant in chosen.values() for test in mutant.tests})
        if pytest_run(root, tests) != 0:
            print("the named tests do not pass on the unmutated copy", file=sys.stderr)
            return 2
        for name, mutant in chosen.items():
            target = root / mutant.path
            original = target.read_text()
            if original.count(mutant.snippet) != 1:
                print(f"{name}: snippet does not occur exactly once in {mutant.path}", file=sys.stderr)
                return 2
            target.write_text(original.replace(mutant.snippet, mutant.replacement))
            for test in mutant.tests:
                code = pytest_run(root, [test])
                # pytest exits 1 when a test failed; 0 is a survivor, anything else a broken run
                status = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
                failed += code != 1
                print(f"{name}: {status}  {test}")
            target.write_text(original)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
