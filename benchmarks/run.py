"""orric benchmark: closed-loop workloads, end-to-end metrics and a traced per-layer run.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                              [--size full|tiny] [--references PATH] [--json PATH]

Run from the repository root. Each workload runs in fresh child
interpreters that import this checkout's src/ (nothing is installed):
first SETUP_REPEATS set-up-only children, whose median wall time is
setup_s, then one measured child. With --trace 0 the last line of
output is a JSON object carrying every end-to-end metric of
BENCHMARK.json; with --trace 1 it carries every per-layer metric.
--workload all (the default) runs every workload untraced, then traced.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("replay-long", "ratio-sweep", "cli-short")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150

# per-workload names for the shared end-to-end metrics, printed too: name -> (metric, scale, unit)
ALIASES = {
    "replay-long": {"slots_per_s": ("slots_per_s", 1.0, "1/s")},
    "ratio-sweep": {
        "instances_per_s": ("ops_per_s", 1.0, "1/s"),
        "instance_p50_ms": ("op_p50_ms", 1.0, "ms"),
        "instance_tail_ms": ("op_tail_ms", 1.0, "ms"),
    },
    "cli-short": {
        "cmd_p50_s": ("op_p50_ms", 1e-3, "s"),
        "cmd_tail_s": ("op_tail_ms", 1e-3, "s"),
    },
}


def _child(args: list[str]) -> subprocess.CompletedProcess:
    """Run workloads.py; on timeout, kill its whole process group (its commands too)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), *args]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _fail(f"{' '.join(args)} did not finish within {CHILD_TIMEOUT_S} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str, references: str) -> dict:
    base = [workload, "--seed", str(seed), "--size", size, "--references", references]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = _child([*base, "--seconds", "0", "--setup-only"])
            setups.append(time.perf_counter() - start)
            if proc.returncode != 0:
                _fail(f"{workload} set-up failed:\n{proc.stderr}")
    proc = _child([*base, "--seconds", str(seconds), "--trace", str(trace)])
    if proc.returncode != 0:
        _fail(f"{workload} run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, result: dict, trace: int) -> dict:
    """Print the run's metrics by name and unit; return the run's result object."""
    units = _declared(trace)
    missing = set(units) - set(result["metrics"])
    if missing:
        _fail(f"{workload} did not measure {sorted(missing)}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{workload:12s} {name:26s} {entry['value']:>16.6g} {entry['unit']}")
    if not trace:
        for name, (metric, scale, unit) in ALIASES[workload].items():
            print(f"{workload:12s} {name:26s} {scale * result['metrics'][metric]:>16.6g} {unit}")
        print(f"{workload:12s} {'failed_frac':26s} {result['failed'] / result['attempted']:>16.6g} frac")
        print(f"{workload:12s} tail = p{result['tail_percentile']:g} of {result['attempted']} ops")
    for error in result["errors"]:
        print(f"{workload:12s} FAILED {error}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced per-layer run; default 0, or both for --workload all")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs, for the self-check")
    parser.add_argument("--references", default=str(BENCH_DIR / "references.json"),
                        help="reference values for the correctness gate")
    parser.add_argument("--json", default=None, help="also write every result, with the platform, to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orric").is_dir():
        _fail(f"no orric sources under {ROOT / 'src'}; run from a checkout of the repository")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None and args.workload == "all" else (args.trace or 0,)
    results = {}
    for trace in modes:
        for workload in workloads:
            raw = run_workload(workload, args.seed, args.seconds, trace, args.size, args.references)
            results[f"{workload}/trace{trace}"] = report(workload, raw, trace)

    if args.json:
        record = {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "seconds": args.seconds,
            "size": args.size,
            "results": results,
        }
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{key}/{name}": m for key, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
