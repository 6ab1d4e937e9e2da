"""Workload inputs, closed-loop operations and correctness checks.

run.py starts this file in a fresh interpreter, with src/ on PYTHONPATH,
once per set-up sample and once per measured run:

    python benchmarks/workloads.py WORKLOAD --seed N --seconds S --trace 0|1
                                   [--size full|tiny] [--setup-only] [--references PATH]

A measured run prints one JSON object as its last line. One caller issues
each operation only after the previous one returned (a closed loop in one
process); the run repeats whole passes of its workload, so every run does
the same mix of work.
"""

import time

# Importing the package is part of set-up; time it before anything else loads numpy.
_IMPORT_START = time.perf_counter()
import orric.cli  # noqa: E402
_IMPORT_END = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import orric  # noqa: E402
from tracer import IMPORT_LAYER, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

# Inputs come from seed % REFERENCE_SEEDS, so every input has a recorded reference.
REFERENCE_SEEDS = 32
# Totals may move in the last bits (array model.eval, reordered sums); nothing more.
REL_TOL = 1e-9
# Ratio floors and oracle dominance, as acceptance criteria 02 and 03 state them.
RATIO_SLACK = 1e-9
COMMAND_TIMEOUT_S = 120

RISING_FAMILIES = ("linear", "shifted-power", "exponential-saturation", "shifted-log")

# replay_T keeps a replay command near one second, so a run's median is over
# tens of commands; at T = 10^4 a run held three and its median was unsteady.
SIZES = {
    "full": {"replay_T": 2_000, "sweep_T": 8},
    "tiny": {"replay_T": 200, "sweep_T": 4},
}


@dataclass
class Op:
    """One closed-loop operation: a command, a policy-and-oracle instance."""

    label: str
    seconds: float
    slots: int
    error: str | None = None


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _guard(check, *args) -> str | None:
    """Run an output check; unreadable or malformed output is a failure, not a crash."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _csv_rows(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh) - 1


def _ascending(rng, k: int, lo: float, hi: float) -> np.ndarray:
    steps = rng.uniform(0.1, 1.0, k)
    cum = np.cumsum(steps)
    return lo + (hi - lo) * cum / cum[-1]


def random_menus(rng, m: int, n: int) -> orric.ProfileSet:
    """Strictly ascending menus with the free no-op retraining entry first."""
    gains = _ascending(rng, m - 1, 0.0, float(rng.uniform(0.3, 1.0)))
    costs = _ascending(rng, m - 1, 0.0, float(rng.uniform(1.0, 20.0)))
    profits = _ascending(rng, n, 0.0, 1.0)
    icosts = _ascending(rng, n, 0.0, float(rng.uniform(1.0, 10.0)))
    return orric.ProfileSet(
        retrain=[(0.0, 0.0)] + [(float(g), float(c)) for g, c in zip(gains, costs)],
        infer=[(float(p), float(c)) for p, c in zip(profits, icosts)],
    )


def random_model(rng, family: str, domain_max: float) -> orric.AccuracyModel:
    """A rising concave curve of the given family with f(0) in [0.3, 0.7]."""
    f0 = float(rng.uniform(0.3, 0.7))
    if family == "linear":
        params = {"intercept": f0, "slope": float(rng.uniform(0.01, (1.0 - f0) / domain_max))}
    elif family == "shifted-power":
        shift, power = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        limit = float(rng.uniform(f0 + 0.1, 1.2))
        params = {"limit": limit, "scale": (limit - f0) * shift**power, "shift": shift, "power": power}
    elif family == "exponential-saturation":
        limit = float(rng.uniform(f0 + 0.1, 1.2))
        params = {"limit": limit, "scale": limit - f0, "rate": float(rng.uniform(0.5, 3.0))}
    else:
        shift, scale = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.3))
        params = {"scale": scale, "shift": shift, "offset": f0 - scale * float(np.log(shift))}
    return orric.make_model(family, params, domain_max)


def random_trace(rng, profiles: orric.ProfileSet, horizon: int) -> orric.Trace:
    """Volumes in [1, 10]; capacities from scarce to more than sufficient."""
    d = rng.uniform(1.0, 10.0, horizon)
    c = d * rng.uniform(profiles.min_infer_cost, 1.2 * profiles.top_pair_cost, horizon)
    return orric.Trace(d=tuple(d), c=tuple(c), d_min=1.0, d_max=10.0)


def ratio_floor_error(totals: dict, oracle: float, cr_orric: float, cr_io: float) -> str | None:
    """Oracle dominance and the paper's two ratio guarantees."""
    for name, total in totals.items():
        if total > oracle + RATIO_SLACK * abs(oracle):
            return f"{name} total {total!r} exceeds the oracle {oracle!r}"
    if totals[orric.ORRIC] / oracle < cr_orric - RATIO_SLACK:
        return f"orric ratio {totals[orric.ORRIC] / oracle!r} below cr_orric {cr_orric!r}"
    if totals[orric.INFERENCE_ONLY] / oracle < cr_io - RATIO_SLACK:
        return f"inference-only ratio {totals[orric.INFERENCE_ONLY] / oracle!r} below {cr_io!r}"
    return None


class Workload:
    """Set-up in the constructor; ``run_pass`` runs one pass of operations."""

    name = ""
    # percentile of op latency reported as the tail; min_ops keeps ten samples beyond it
    tail_percentile = 100.0
    min_ops = 1

    def __init__(self, seed: int, size: str, references: dict | None) -> None:
        self.seed = seed % REFERENCE_SEEDS
        self.size = SIZES[size]
        self.references = references
        self.recorded: dict[str, dict[str, float]] = {}
        self.tracer: Tracer | None = None
        self.next_op = 0
        self.workdir = OUT_DIR / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def _timed(self, label: str, slots: int, fn):
        if self.tracer is not None:
            self.tracer.current_op = self.next_op
        self.next_op += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted and the loop goes on
            return Op(label, time.perf_counter() - start, slots, f"{type(exc).__name__}: {exc}"), None
        return Op(label, time.perf_counter() - start, slots), result

    def check_reference(self, label: str, values: dict[str, float]) -> str | None:
        """Record the values and compare them with the reference of this seed."""
        self.recorded[label] = values
        if self.references is None:
            return None
        expected = self.references.get(label)
        if expected is None or set(expected) != set(values):
            return f"{label}: no reference for {sorted(values)}"
        for key, want in expected.items():
            if not math.isclose(values[key], want, rel_tol=REL_TOL, abs_tol=0.0):
                return f"{label}/{key}: {values[key]!r} differs from the reference {want!r}"
        return None


def _check_run_dir(out: Path, horizon: int) -> tuple[dict, str | None]:
    """Summary of a run/replay output directory and its per-slot row counts."""
    summary = json.loads((out / "summary.json").read_text())
    for name in orric.POLICIES:
        rows = _csv_rows(out / summary["policies"][name]["csv"])
        if rows != horizon:
            return summary, f"{name}.csv has {rows} rows, expected {horizon}"
    return summary, None


class ReplayLong(Workload):
    """`orric replay fog` over a long horizon, oracle off, all artefacts written."""

    name = "replay-long"
    tail_percentile = 75.0
    min_ops = 40

    def __init__(self, seed: int, size: str, references: dict | None) -> None:
        super().__init__(seed, size, references)
        self.horizon = self.size["replay_T"]
        self.out = self.workdir / "replay"
        self.argv = ["replay", "fog", "--T", str(self.horizon), "--seed", str(self.seed),
                     "--oracle-cap", "0", "--out", str(self.out)]
        self.first_summary: bytes | None = None

    def run_pass(self) -> list[Op]:
        op, code = self._timed("replay-fog", len(orric.POLICIES) * self.horizon,
                               lambda: _quiet(orric.cli.main, self.argv))
        if op.error is None:
            op.error = _guard(self._check, code)
        return [op]

    def _check(self, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        summary, error = _check_run_dir(self.out, self.horizon)
        if error:
            return error
        for name in ("schedule.csv", "trace.csv"):
            if _csv_rows(self.out / name) != self.horizon:
                return f"{name} does not have {self.horizon} rows"
        raw = (self.out / "summary.json").read_bytes()
        if self.first_summary is None:
            self.first_summary = raw
        elif raw != self.first_summary:
            return "summary.json differs from the first run's"
        totals = {name: summary["policies"][name]["total"] for name in orric.POLICIES}
        return self.check_reference("replay-fog", totals)


class RatioSweep(Workload):
    """Random small instances: every policy, the exact oracle and the bounds."""

    name = "ratio-sweep"
    tail_percentile = 98.0
    min_ops = 500

    def __init__(self, seed: int, size: str, references: dict | None) -> None:
        super().__init__(seed, size, references)
        rng = np.random.default_rng(self.seed)
        # every pass holds each (family, m, T) cell once; only n and the numbers are drawn
        self.instances = []
        for family in RISING_FAMILIES:
            for m in range(2, 7):
                for horizon in range(1, self.size["sweep_T"] + 1):
                    profiles = random_menus(rng, m, int(rng.integers(2, 7)))
                    model = random_model(rng, family, profiles.max_gain)
                    self.instances.append((profiles, model, random_trace(rng, profiles, horizon)))

    @staticmethod
    def _solve(profiles, model, trace):
        totals = {name: orric.run_policy(name, trace, profiles, model).total for name in orric.POLICIES}
        oracle = orric.offline_optimal(trace, profiles, model).total
        bounds = orric.compute_bounds(model, profiles, trace.d_min, trace.d_max, trace.horizon)
        return totals, oracle, bounds

    def run_pass(self) -> list[Op]:
        ops = []
        sums: dict[str, list[float]] = {name: [] for name in (*orric.POLICIES, "oracle")}
        for profiles, model, trace in self.instances:
            op, result = self._timed("instance", len(orric.POLICIES) * trace.horizon,
                                     lambda: self._solve(profiles, model, trace))
            ops.append(op)
            if op.error is not None:
                continue
            totals, oracle, bounds = result
            op.error = ratio_floor_error(totals, oracle, bounds.cr_orric, bounds.cr_inference_only)
            for name, total in (*totals.items(), ("oracle", oracle)):
                sums[name].append(total)
        # one reference per pass: the per-policy sums of the instance totals
        error = self.check_reference("pass", {name: math.fsum(v) for name, v in sums.items()})
        if error:
            for op in ops:
                op.error = op.error or error
        return ops


class CliShort(Workload):
    """A fixed mix of short CLI commands, each in a fresh interpreter."""

    name = "cli-short"
    tail_percentile = 85.0
    min_ops = 67

    def __init__(self, seed: int, size: str, references: dict | None) -> None:
        super().__init__(seed, size, references)
        rng = np.random.default_rng(self.seed)
        profiles = random_menus(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        model = random_model(rng, "exponential-saturation", profiles.max_gain)
        w = self.workdir
        menus, curve, trace = str(w / "profiles.json"), str(w / "curve.json"), str(w / "trace6.csv")
        orric.save_profiles(menus, profiles)
        orric.save_model(curve, model)
        orric.write_trace_csv(trace, random_trace(rng, profiles, 6))
        s = str(self.seed)
        self.commands = [
            ("replay-fog", 500, ["replay", "fog", "--T", "100", "--seed", s, "--out", str(w / "fog")]),
            ("replay-gaussian-noise", 500,
             ["replay", "gaussian noise", "--T", "100", "--seed", s, "--out", str(w / "noise")]),
            ("gen-trace", 0, ["gen-trace", "--T", "1000", "--d-law", "uniform", "--d", "1", "--d-hi", "10",
                              "--law", "sufficient", "--profiles", menus, "--seed", s,
                              "--out", str(w / "gen.csv")]),
            ("run", 30, ["run", "--profiles", menus, "--model", curve, "--trace", trace,
                         "--out", str(w / "run")]),
            ("oracle", 0, ["oracle", "--profiles", menus, "--model", curve, "--trace", trace]),
            ("bounds", 0, ["bounds", "--profiles", menus, "--model", curve,
                           "--d-min", "1", "--d-max", "10", "--T", "100"]),
            ("witness", 0, ["witness", "--model", curve, "--y-lo", "0.5", "--y-hi", "1.0"]),
        ]
        self.spans = w / "command-spans.npz"

    def _command(self, argv: list[str]):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "orric.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(self.spans), *argv]
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)

    def run_pass(self) -> list[Op]:
        ops = []
        run_oracle = None
        for label, slots, argv in self.commands:
            op, proc = self._timed(label, slots, lambda: self._command(argv))
            ops.append(op)
            if op.error is not None:
                continue
            if self.tracer is not None:
                self.tracer.merge(self.spans)
            if proc.returncode != 0:
                op.error = f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
                continue
            try:
                values, op.error = self._outcome(label, proc.stdout, run_oracle)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                op.error = f"malformed output: {type(exc).__name__}: {exc}"
                continue
            if label == "run":
                run_oracle = values["oracle"]
            if op.error is None:
                op.error = self.check_reference(label, values)
        return ops

    def _outcome(self, label: str, stdout: str, run_oracle: float | None):
        w = self.workdir
        if label.startswith("replay"):
            summary, error = _check_run_dir(w / ("fog" if label == "replay-fog" else "noise"), 100)
            if "skipped" not in summary["oracle"]:
                error = error or "oracle ran at T=100"
            return {name: summary["policies"][name]["total"] for name in orric.POLICIES}, error
        if label == "gen-trace":
            trace = orric.read_trace_csv(w / "gen.csv")
            error = None if trace.horizon == 1000 else f"{trace.horizon} rows, expected 1000"
            return {"d_sum": math.fsum(trace.d), "c_sum": math.fsum(trace.c)}, error
        if label == "run":
            summary, error = _check_run_dir(w / "run", 6)
            totals = {name: summary["policies"][name]["total"] for name in orric.POLICIES}
            oracle = summary["oracle"]["total"]
            bounds = summary["bounds"]
            error = error or ratio_floor_error(totals, oracle, bounds["cr_orric"], bounds["cr_inference_only"])
            return {**totals, "oracle": oracle}, error
        if label == "oracle":
            oracle = float(stdout.split("oracle:")[1])
            same = run_oracle is not None and math.isclose(oracle, run_oracle, rel_tol=REL_TOL)
            return {"oracle": oracle}, None if same else f"oracle {oracle!r} differs from run's {run_oracle!r}"
        if label == "bounds":
            report = json.loads(stdout)
            keys = ("alpha", "cr_inference_only", "cr_orric", "tight_cr_io_upper")
            return {key: report[key] for key in keys}, None
        report = json.loads(stdout)
        if report["positive"] is None or report["negative"] is None:
            return {}, "witness search missed a sign"
        return {"positive_gap": report["positive"]["gap"], "negative_gap": report["negative"]["gap"]}, None


WORKLOADS = {w.name: w for w in (ReplayLong, RatioSweep, CliShort)}


def measure(workload: Workload, seconds: float, min_ops: int) -> list[Op]:
    """Whole passes until both the time and the op count are reached."""
    ops: list[Op] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        ops += workload.run_pass()
    return ops


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    index = max(math.ceil(percentile / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[index]


def end_to_end(workload: Workload, ops: list[Op]) -> dict:
    seconds = sorted(op.seconds for op in ops)
    busy = math.fsum(seconds)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "ops_per_s": len(ops) / busy,
        "slots_per_s": sum(op.slots for op in ops) / busy,
        "op_p50_ms": 1e3 * nearest_rank(seconds, 50.0),
        "op_tail_ms": 1e3 * nearest_rank(seconds, workload.tail_percentile),
        "peak_rss_mb": peak_kb / 1024.0,
    }


# per-layer metric -> (layer, what): "s" self seconds, "calls", or a counter name
PER_LAYER = {
    "policies.weights_s": ("policies.weights", "s"),
    "policies.weights_calls": ("policies.weights", "calls"),
    "policies.step_s": ("policies.step", "s"),
    "policies.step_calls": ("policies.step", "calls"),
    "engine.run_policy_self_s": ("engine.run_policy", "s"),
    "engine.run_policy_calls": ("engine.run_policy", "calls"),
    "engine.score_s": ("engine.score", "s"),
    "engine.score_calls": ("engine.score", "calls"),
    "accuracy.eval_s": ("accuracy.eval", "s"),
    "accuracy.eval_calls": ("accuracy.eval", "calls"),
    "engine.oracle_s": ("engine.oracle", "s"),
    "engine.oracle_calls": ("engine.oracle", "calls"),
    "engine.oracle_sequences": (None, "engine.oracle_sequences"),
    "engine.io_s": ("engine.io", "s"),
    "engine.io_bytes": (None, "engine.io_bytes"),
    "profiles.io_s": ("profiles.io", "s"),
    "scenario.build_s": ("scenario.build", "s"),
    "accuracy.model_build_s": ("accuracy.model_build", "s"),
    "cli.import_s": (IMPORT_LAYER, "s"),
    "analysis.bounds_s": ("analysis.bounds", "s"),
    "engine.witness_s": ("engine.witness", "s"),
    "cli.self_s": ("cli.main", "s"),
}


def per_layer(tracer: Tracer, untraced: list[Op], traced: list[Op]) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for metric, (layer, what) in PER_LAYER.items():
        if layer is None:
            metrics[metric] = tracer.counts.get(what, 0)
        else:
            self_s, calls = totals.get(layer, (0.0, 0))
            metrics[metric] = self_s if what == "s" else calls
    traced_s = statistics.fmean(op.seconds for op in traced)
    metrics["trace.overhead_frac"] = traced_s / statistics.fmean(op.seconds for op in untraced) - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--references", default=str(REFERENCES))
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    references = json.loads(Path(args.references).read_text())[args.size][args.workload]
    seed_refs = references[str(args.seed % REFERENCE_SEEDS)]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.add_span(IMPORT_LAYER, _IMPORT_START, _IMPORT_END)
        tracer.install()
    workload = workload_cls(args.seed, args.size, seed_refs)
    if args.setup_only:
        return 0

    if tracer is None:
        ops = measure(workload, args.seconds, workload.min_ops)
        metrics = end_to_end(workload, ops)
    else:
        # untraced passes for half the time, then one traced pass of the same work
        tracer.uninstall()
        untraced = measure(workload, args.seconds / 2, 1)
        tracer.install()
        workload.tracer = tracer
        traced = workload.run_pass()
        tracer.uninstall()
        tracer.dump(OUT_DIR / f"spans-{workload.name}.npz")
        ops = untraced + traced
        metrics = per_layer(tracer, untraced, traced)

    errors = [f"{op.label}: {op.error}" for op in ops if op.error]
    print(json.dumps({
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
        "tail_percentile": workload.tail_percentile,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
