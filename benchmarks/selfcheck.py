"""Self-check of the benchmark at tiny sizes; kept out of the test suite.

    python3 benchmarks/selfcheck.py

Checks that every workload, untraced and traced, prints every metric that
BENCHMARK.json names, with its unit, and passes its correctness gate; that
a perturbed reference total is reported as a failure; and that the
benchmark refuses to run without the repository's sources. Exits 1 on
any failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("replay-long", "ratio-sweep", "cli-short")
TIMEOUT_S = 170


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", workload, "--trace", str(trace))
            if proc.returncode != 0:
                check(False, f"{workload} trace {trace} exits 0: {proc.stderr.strip()[-300:]}")
                continue
            result = last_json(proc)
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == declared, f"{workload} trace {trace} prints every {section} metric with its unit")
            check(result["correct"] and result["failed"] == 0, f"{workload} trace {trace} outputs are correct")

    references = json.loads((BENCH_DIR / "references.json").read_text())
    for workload in WORKLOADS:
        perturbed = json.loads(json.dumps(references))
        entry = perturbed["tiny"][workload]["0"]
        label = sorted(entry)[0]
        key = sorted(entry[label])[0]
        entry[label][key] *= 1.0 + 1e-6
        path = OUT_DIR / f"perturbed-{workload}.json"
        path.write_text(json.dumps(perturbed))
        proc = bench(ROOT, "--workload", workload, "--trace", "1", "--seed", "0", "--references", str(path))
        result = last_json(proc) if proc.returncode == 0 else {"correct": True, "failed": 0}
        check(not result["correct"] and result["failed"] >= 1,
              f"{workload} reports a perturbed reference ({label}/{key}) as a failure")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", WORKLOADS[0], "--trace", "0")
    check(proc.returncode != 0 and not proc.stdout.strip(), "exits non-zero, printing no result, without src/")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
