"""Command line front end.

Subcommands: gen-trace, prune, run, oracle, bounds, replay, witness.
Emitted numbers carry 12 significant digits (trace CSVs keep exact
values) and every output is a pure function of the flags, so reruns are
byte-identical. Exit codes:
0 success, 1 validation error, 2 infeasibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .accuracy import load_model, save_model
from .analysis import bounds_report
from .atomic import write_atomic, write_csv
from .engine import (
    _SIG,
    _schedule,
    ensure_feasible,
    nonconvexity_witness,
    offline_optimal,
    read_trace_csv,
    run_policy,
    write_run_csv,
    write_trace_csv,
)
from .errors import InfeasibleError, finite_number, integer
from .policies import KNOWLEDGE_DISTILLATION, POLICIES
from .profiles import load_profiles, prune_dominated, read_menus, save_profiles
from .scenario import C_LAWS, D_LAWS, SEED_MAX, ReplaySpec, TraceSpec, build_replay, generate_trace, load_replay_spec

# the default largest retraining-sequence space m^T for which a command runs the oracle
_ORACLE_CAP = 10_000_000
_CAP_HELP = "largest retraining-sequence space m^T the oracle accepts; 0 disables"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for infeasibility here.
    # A flag must be spelled in full: a prefix would change meaning once a later flag shares it
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _flag(rule, *bounds):
    """argparse type reading a flag through an errors rule (finite_number or integer); a refusal is a usage error."""

    def parse(text: str):
        try:
            return rule(text, "value", *bounds, text=True)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_finite = _flag(finite_number)
_non_negative = _flag(integer, 0)
_seed = _flag(integer, 0, SEED_MAX)
_horizon = _flag(integer, 1)
# nonconvexity_witness holds one lattice row, grid^3 doubles (2 MiB at 64); the cap
# bounds worst-case time, since a search that finds no witness visits grid^5 points
_grid_points = _flag(integer, 2, 64)


def _fmt(x: float) -> str:
    return _SIG % x


def _sig(x: float) -> float:
    return float(_fmt(x))


def _rounded(obj):
    if isinstance(obj, float):
        return _sig(obj)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def _json_text(payload) -> str:
    """The payload as sorted, indented JSON lines with its floats at 12 significant digits."""
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def _write_schedule_csv(path: Path, weights) -> None:
    """Write the (v, w, lam) weight_schedule arrays as t,v,w,lambda rows."""
    columns = [values.tolist() for values in weights]
    write_csv(path, "t,v,w,lambda", f"%d,{_SIG},{_SIG},{_SIG}", (range(1, len(columns[0]) + 1), *columns))


def _parse_policies(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError("empty policy list")
    for k, name in enumerate(names):
        if name not in POLICIES:
            raise ValueError(f"unknown policy {name!r}; known: {list(POLICIES)}")
        if name in names[:k]:
            raise ValueError(f"policy {name!r} is listed more than once")
    return names


def _over_cap(profiles, trace, cap: int) -> str | None:
    """Why a command does not run the oracle: its m^T retraining sequences exceed cap; None when they do not."""
    m, horizon = profiles.m, trace.horizon
    return f"{m}^{horizon} retraining sequences exceed the cap {cap}" if m**horizon > cap else None


def _execute_run(out_dir: Path, profiles, model, trace, policies, oracle_cap: int, inputs: dict) -> None:
    """Run the policies and the oracle, write every artefact and print the totals."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {"inputs": inputs, "policies": {}}
    totals: dict[str, float] = {}
    for name in policies:
        result = run_policy(name, trace, profiles, model)
        csv_name = f"{name}.csv"
        write_run_csv(out_dir / csv_name, result, trace)
        entry: dict = {"total": result.total, "csv": csv_name}
        if name == KNOWLEDGE_DISTILLATION:  # the slots that run any pair but the top one
            pairs = list(zip(result.retrain_index, result.infer_index))
            entry["degraded_slot_count"] = trace.horizon - pairs.count((profiles.m, profiles.n))
        summary["policies"][name] = entry
        totals[name] = result.total

    skipped = "oracle disabled (cap 0)" if oracle_cap == 0 else _over_cap(profiles, trace, oracle_cap)
    if skipped:
        summary["oracle"] = {"skipped": skipped}
    else:
        oracle = offline_optimal(trace, profiles, model)
        write_run_csv(out_dir / "oracle.csv", oracle, trace)
        summary["oracle"] = {
            "total": oracle.total,
            "csv": "oracle.csv",
            "enumerated_sequences": oracle.meta["enumerated_sequences"],
        }
        # ratios of the emitted (rounded) totals, so the report is self-consistent
        summary["ratios_vs_oracle"] = {
            name: _sig(total) / _sig(oracle.total) for name, total in totals.items()
        }

    _write_schedule_csv(out_dir / "schedule.csv", _schedule(trace, profiles, model))
    summary["schedule_csv"] = "schedule.csv"
    try:
        summary["bounds"] = bounds_report(model, profiles, trace.d_min, trace.d_max, trace.horizon)
    except ValueError as exc:
        summary["bounds"] = {"skipped": str(exc)}
    write_atomic(out_dir / "summary.json", _json_text(summary))
    for name in policies:
        print(f"{name}: {_fmt(totals[name])}")
    oracle = summary["oracle"]
    print(f"oracle: {_fmt(oracle['total'])}" if "total" in oracle else f"oracle skipped: {oracle['skipped']}")


def cmd_gen_trace(args) -> int:
    c_lo = args.d if args.law == "constant" and args.c is None else args.c  # a unit per-sample budget
    spec = TraceSpec(horizon=args.T, d_law=args.d_law, d_lo=args.d, d_hi=args.d_hi,
                     c_law=args.law, c_lo=c_lo, c_hi=args.c_hi, seed=args.seed)
    profiles = load_profiles(args.profiles) if args.profiles else None
    trace = generate_trace(spec, profiles)
    write_trace_csv(args.out, trace)
    print(f"wrote {args.out} ({trace.horizon} slots)")
    return 0


def cmd_prune(args) -> int:
    retrain, infer = read_menus(args.profiles)
    profiles = prune_dominated(retrain, infer)
    save_profiles(args.out, profiles)
    inserted = profiles.retrain[0] not in retrain  # a pruned menu starts with the no-op entry, inserted if missing
    removed = len(retrain) + inserted + len(infer) - (profiles.m + profiles.n)
    print(f"wrote {args.out} ({profiles.m} retrain, {profiles.n} infer; {removed} dominated entries removed)")
    return 0


def cmd_run(args) -> int:
    policies = _parse_policies(args.policies)
    profiles = load_profiles(args.profiles)
    model = load_model(args.model)
    trace = read_trace_csv(args.trace, d_min=args.d_min, d_max=args.d_max)
    inputs = {
        "profiles": str(args.profiles),
        "model": str(args.model),
        "policies": policies,
        "oracle_cap": args.oracle_cap,
        "trace": args.trace,
    }
    _execute_run(Path(args.out), profiles, model, trace, policies, args.oracle_cap, inputs)
    return 0


def cmd_oracle(args) -> int:
    profiles = load_profiles(args.profiles)
    model = load_model(args.model)
    trace = read_trace_csv(args.trace)
    # an infeasible trace exits 2 before the cap is checked
    ensure_feasible(trace, profiles)
    if skipped := _over_cap(profiles, trace, args.cap):
        raise ValueError(skipped)
    result = offline_optimal(trace, profiles, model)
    if args.out:
        write_run_csv(args.out, result, trace)
    print(f"oracle: {_fmt(result.total)}")
    return 0


def cmd_bounds(args) -> int:
    profiles = load_profiles(args.profiles)
    model = load_model(args.model)
    text = _json_text(bounds_report(model, profiles, args.d_min, args.d_max, args.T))
    if args.out:
        write_atomic(args.out, text)
    print(text, end="")
    return 0


def cmd_replay(args) -> int:
    if args.spec is not None and args.corruption is not None:
        raise ValueError(f"got both the corruption label {args.corruption!r} and --spec {args.spec}; give one")
    if args.spec is not None:
        spec = load_replay_spec(args.spec)
    elif args.corruption is not None:
        spec = ReplaySpec(corruption=args.corruption)
    else:
        raise ValueError("need a corruption name or --spec")
    overrides = {"horizon": args.T, "seed": args.seed, "train_cost_multiplier": args.kappa, "f_at_max": args.f_at_max}
    spec = dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    profiles, model, trace_spec = build_replay(spec)
    trace = generate_trace(trace_spec, profiles)
    policies = _parse_policies(args.policies)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_profiles(out_dir / "profiles.json", profiles)
    save_model(out_dir / "model.json", model)
    write_trace_csv(out_dir / "trace.csv", trace)
    inputs = {"replay": dataclasses.asdict(spec), "policies": policies, "oracle_cap": args.oracle_cap}
    _execute_run(out_dir, profiles, model, trace, policies, args.oracle_cap, inputs)
    return 0


def cmd_witness(args) -> int:
    model = load_model(args.model)
    report = nonconvexity_witness(model, args.y_lo, args.y_hi, grid_points=args.grid)
    payload = {
        "positive": None if report.positive is None else dataclasses.asdict(report.positive),
        "negative": None if report.negative is None else dataclasses.asdict(report.negative),
    }
    text = _json_text(payload)
    if args.out:
        write_atomic(args.out, text)
    print(text, end="")
    if not report.complete:
        print("note: no witness for at least one sign (gap may be identically zero)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orric", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="draw a trace from a law and write it as CSV")
    p.add_argument("--T", type=_horizon, required=True, help="number of slots")
    p.add_argument("--d-law", choices=D_LAWS, default="constant",
                   help="data volume law (default constant)")
    p.add_argument("--d", type=_finite, default=1000.0, help="data volume, or its lower bound under the uniform law")
    p.add_argument("--d-hi", type=_finite, default=None, help="upper volume bound for the uniform law")
    p.add_argument("--law", choices=C_LAWS,
                   default="sufficient", help="capacity law (default sufficient)")
    p.add_argument("--c", type=_finite, default=None,
                   help="capacity, or its lower bound under the uniform law (constant law default: the --d value)")
    p.add_argument("--c-hi", type=_finite, default=None, help="upper capacity bound for the uniform law")
    p.add_argument("--seed", type=_seed, default=0, help="trace seed (default 0)")
    p.add_argument("--profiles", default=None, help="profile file, needed for menu-derived capacity laws")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("prune", help="dominance-prune a profile file")
    p.add_argument("--profiles", required=True)
    p.add_argument("--out", required=True, help="output profile JSON")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("run", help="run policies over a trace and write per-slot CSVs plus a summary")
    p.add_argument("--profiles", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True, help="trace CSV, e.g. from gen-trace")
    p.add_argument("--d-min", type=_finite, default=None,
                   help="declared volume lower bound (default: the trace's least volume)")
    p.add_argument("--d-max", type=_finite, default=None,
                   help="declared volume upper bound (default: the trace's largest volume)")
    p.add_argument("--policies", default=",".join(POLICIES), help="comma-separated policy names")
    p.add_argument("--oracle-cap", type=_non_negative, default=_ORACLE_CAP, help=_CAP_HELP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="exact offline optimum for a trace")
    p.add_argument("--profiles", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--cap", type=_non_negative, default=_ORACLE_CAP,
                   help="largest retraining-sequence space m^T the oracle accepts; a larger one exits 1")
    p.add_argument("--out", default=None, help="optional per-slot CSV")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", help="closed-form worst-case ratio report")
    p.add_argument("--profiles", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--d-min", type=_finite, required=True)
    p.add_argument("--d-max", type=_finite, required=True)
    p.add_argument("--T", type=_horizon, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("replay", help="build the replay scenario, run all policies, write a summary")
    p.add_argument("corruption", nargs="?", default=None, help="corruption label from the shipped table")
    p.add_argument("--spec", default=None, help="replay spec JSON (alternative to the label)")
    p.add_argument("--T", type=_horizon, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--kappa", type=_finite, default=None,
                   help="train_cost_multiplier: student training passes per retraining sample (spec default 3)")
    p.add_argument("--f-at-max", type=_finite, default=None)
    p.add_argument("--policies", default=",".join(POLICIES))
    p.add_argument("--oracle-cap", type=_non_negative, default=_ORACLE_CAP, help=_CAP_HELP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("witness", help="search for curvature witnesses of both signs")
    p.add_argument("--model", required=True)
    p.add_argument("--y-lo", type=_finite, required=True)
    p.add_argument("--y-hi", type=_finite, required=True)
    p.add_argument("--grid", type=_grid_points, default=32, help="lattice points per axis, 2..64 (default 32)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return int(args.func(args) or 0)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
