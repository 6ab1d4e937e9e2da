"""Every entry point that takes an integer, a signed or ranged number or a pair of declared volume bounds
refuses a misfit with its rule's message: errors.integer for integers, errors.finite_number for numbers
and errors.volume_bounds for (d_min, d_max)."""

from __future__ import annotations

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from orric import (
    INFERENCE_GREEDY,
    InferConfig,
    ProfileSet,
    ReplaySpec,
    RetrainConfig,
    Trace,
    TraceSpec,
    compute_bounds,
    compute_weights,
    heuristic_step,
    make_model,
    nonconvexity_witness,
    normalize_profits,
    orric_step,
    prune_dominated,
    save_model,
    save_profiles,
    write_trace_csv,
)
from orric.cli import main
from orric.errors import integer, volume_bounds
from orric.policies import weight_schedule
from orric.scenario import SEED_MAX

PROFILES = ProfileSet(retrain=[(0.0, 0.0), (1.0, 10.0)], infer=[(0.6, 2.0), (1.0, 5.0)])
MODEL = make_model("linear", {"intercept": 0.5, "slope": 0.3}, 1.0)

# entry point: (call with the value, the field's name, lo, hi)
INTEGER_ENTRIES = {
    "TraceSpec.horizon": (lambda v: TraceSpec(horizon=v), "horizon", 1, None),
    "TraceSpec.seed": (lambda v: TraceSpec(horizon=2, seed=v), "seed", 0, SEED_MAX),
    "ReplaySpec.horizon": (lambda v: ReplaySpec("fog", horizon=v), "horizon", 1, None),
    "ReplaySpec.seed": (lambda v: ReplaySpec("fog", seed=v), "seed", 0, SEED_MAX),
    "ReplaySpec.epochs_per_slot": (lambda v: ReplaySpec("fog", epochs_per_slot=v), "epochs_per_slot", 1, None),
    "weight_schedule.horizon": (lambda v: weight_schedule(v, MODEL, 1.0, 1.0, 0.6), "horizon", 1, None),
    "compute_bounds.horizon": (lambda v: compute_bounds(MODEL, PROFILES, 1.0, 1.0, v), "horizon", 1, None),
    "nonconvexity_witness.grid_points": (
        lambda v: nonconvexity_witness(MODEL, 0.5, 1.0, grid_points=v), "grid_points", 2, None),
    "compute_weights.t": (lambda v: compute_weights(v, 4, MODEL, 1.0, 1.0, 0.6), "slot t", 1, 4),
    "compute_weights.horizon": (lambda v: compute_weights(1, v, MODEL, 1.0, 1.0, 0.6), "horizon", 1, None),
    "heuristic_step.t": (lambda v: heuristic_step(INFERENCE_GREEDY, v, 4, 12.0, PROFILES), "slot t", 1, 4),
    "heuristic_step.horizon": (
        lambda v: heuristic_step(INFERENCE_GREEDY, 1, v, 12.0, PROFILES), "horizon", 1, None),
}

CURVES = {
    "linear": {"intercept": 0.5, "slope": 0.3},
    "shifted-power": {"limit": 0.9, "scale": 0.5, "shift": 1.0, "power": 1.0},
    "exponential-saturation": {"limit": 0.8, "scale": 0.3, "rate": 2.0},
    "shifted-log": {"scale": 0.1, "shift": 1.0, "offset": 0.5},
}


def curve_with(family: str, name: str):
    """A call that builds the family's curve with the named parameter set to its argument."""
    return lambda v: make_model(family, {**CURVES[family], name: v}, 1.0)


def drift_free(**kwargs):
    with warnings.catch_warnings():  # a constant curve's zero end slope warns
        warnings.simplefilter("ignore", UserWarning)
        return make_model("constant", {"value": 0.7}, 1.0, **kwargs)


# a range and the values just outside it: 0 for an open bound, a negative number for a closed one
POSITIVE = ("> 0", [0, 0.0, -1.0])
NON_NEGATIVE = (">= 0", [-1.0, -5e-324])
ANY = (None, [])
# entry point: (call with the value, the field's name, (the rule's bound text, values just outside it))
NUMBER_ENTRIES = {
    "linear.slope": (curve_with("linear", "slope"), "curve parameter 'slope'", NON_NEGATIVE),
    **{f"{family}.{name}": (curve_with(family, name), f"curve parameter {name!r}", POSITIVE)
       for family, names in [("shifted-power", ("scale", "shift", "power")),
                             ("exponential-saturation", ("scale", "rate")), ("shifted-log", ("scale", "shift"))]
       for name in names},
    "make_model.domain_max": (lambda v: make_model("linear", CURVES["linear"], v), "domain_max", NON_NEGATIVE),
    "make_model.L": (lambda v: drift_free(L_override=v), "L", NON_NEGATIVE),
    "RetrainConfig.gain": (lambda v: RetrainConfig(v, 1.0), "retraining gain", (">= 0 and <= 1", [-1.0, 1.5])),
    "RetrainConfig.cost": (lambda v: RetrainConfig(0.5, v), "retraining cost", NON_NEGATIVE),
    "InferConfig.profit": (lambda v: InferConfig(v, 1.0), "inference profit", POSITIVE),
    "InferConfig.cost": (lambda v: InferConfig(0.5, v), "inference cost", POSITIVE),
    "prune_dominated.gain": (lambda v: prune_dominated([(v, 2.0)], [(1.0, 1.0)]), "retraining gain",
                             (">= 0 and <= 1", [-1.0, 1.5])),
    "ProfileSet.profit": (lambda v: ProfileSet([(0.0, 0.0)], [(v, 1.0)]), "inference profit", POSITIVE),
    "normalize_profits": (lambda v: normalize_profits([v, 1.0]), "accuracy", POSITIVE),
    "ReplaySpec.sampling_ratios": (lambda v: ReplaySpec("fog", sampling_ratios=(v, 1.0)), "sampling_ratios entry 1",
                                   NON_NEGATIVE),
    "ReplaySpec.train_cost_multiplier": (lambda v: ReplaySpec("fog", train_cost_multiplier=v),
                                         "train_cost_multiplier", POSITIVE),
    "ReplaySpec.L": (lambda v: ReplaySpec("fog", L=v), "L", NON_NEGATIVE),
    "ReplaySpec.data_per_slot": (lambda v: ReplaySpec("fog", data_per_slot=v), "data_per_slot", POSITIVE),
    "TraceSpec.c_lo": (lambda v: TraceSpec(horizon=2, c_law="uniform", c_lo=v, c_hi=5.0), "c_lo", NON_NEGATIVE),
    "TraceSpec.c_hi": (lambda v: TraceSpec(horizon=2, c_law="uniform", c_lo=0.0, c_hi=v), "c_hi", NON_NEGATIVE),
    "weight_schedule.a_min_infer": (lambda v: weight_schedule(4, MODEL, 1.0, 1.0, v), "a_min_infer", POSITIVE),
    "orric_step.v": (lambda v: orric_step(v, 1.0, 12.0, PROFILES), "v", NON_NEGATIVE),
    "orric_step.w": (lambda v: orric_step(0.5, v, 12.0, PROFILES), "w", POSITIVE),
    "orric_step.u": (lambda v: orric_step(0.5, 1.0, v, PROFILES), "per-sample budget u", ANY),
    "heuristic_step.u": (lambda v: heuristic_step(INFERENCE_GREEDY, 1, 4, v, PROFILES), "per-sample budget u", ANY),
    "nonconvexity_witness.y_lo": (lambda v: nonconvexity_witness(MODEL, v, 2.0, grid_points=2), "y_lo", POSITIVE),
    "nonconvexity_witness.y_hi": (lambda v: nonconvexity_witness(MODEL, 0.5, v, grid_points=2), "y_hi", ANY),
}
# each closed bound's own value passes the rule: 0 and -0.0 where lo = 0, and a retraining gain of 1
BOUNDARY_VALUES = [(entry, value) for entry, (_, _, (bound, _)) in NUMBER_ENTRIES.items()
                   if bound and bound.startswith(">= 0") for value in (0, 0.0, -0.0)]
BOUNDARY_VALUES += [("RetrainConfig.gain", 1), ("RetrainConfig.gain", 1.0), ("prune_dominated.gain", 1.0)]

# (command, flag): (lo, hi); argparse prefixes the rule's message, whose field is the flag's value
CLI_INTEGER_FLAGS = {
    ("gen-trace", "--T"): (1, None),
    ("gen-trace", "--seed"): (0, SEED_MAX),
    ("bounds", "--T"): (1, None),
    ("replay", "--T"): (1, None),
    ("replay", "--seed"): (0, SEED_MAX),
    ("replay", "--oracle-cap"): (0, None),
    ("run", "--oracle-cap"): (0, None),
    ("oracle", "--cap"): (0, None),
    ("witness", "--grid"): (2, 64),
}

# entry point: call with (d_min, d_max)
BOUND_ENTRIES = {
    "Trace": lambda lo, hi: Trace(d=(1.0,), c=(5.0,), d_min=lo, d_max=hi),
    "TraceSpec": lambda lo, hi: TraceSpec(horizon=2, d_lo=lo, d_hi=hi),
    "weight_schedule": lambda lo, hi: weight_schedule(4, MODEL, lo, hi, 0.6),
    "compute_bounds": lambda lo, hi: compute_bounds(MODEL, PROFILES, lo, hi, 2),
}

NEED = "need 0 < d_min <= d_max, got {!r} and {!r}"
BAD_BOUNDS = [
    (math.nan, 1.0, "d_min must be a finite number, got nan"),
    (1.0, math.nan, "d_max must be a finite number, got nan"),
    (1.0, math.inf, "d_max must be a finite number, got inf"),
    (-math.inf, 1.0, "d_min must be a finite number, got -inf"),
    (math.inf, math.inf, "d_min must be a finite number, got inf"),
    (True, True, "d_min must be a finite number, got True"),
    (1.0, True, "d_max must be a finite number, got True"),
    ("1", 2.0, "d_min must be a finite number, got '1'"),
    (0.0, 1.0, NEED.format(0.0, 1.0)),
    (0, 1, NEED.format(0.0, 1.0)),
    (-1.0, 1.0, NEED.format(-1.0, 1.0)),
    (2.0, 1.0, NEED.format(2.0, 1.0)),
    (2.5, 2.0, NEED.format(2.5, 2.0)),
]

# the cases each rule was written for: every one passed, returned NaN or escaped as a TypeError before
MOTIVATION = {
    "compute_bounds-infinite-bounds": (lambda: compute_bounds(MODEL, PROFILES, math.inf, math.inf, 2),
                                       "d_min must be a finite number, got inf"),
    "compute_bounds-float-horizon": (lambda: compute_bounds(MODEL, PROFILES, 1.0, 1.0, 2.5),
                                     "horizon must be an integer >= 1, got 2.5"),
    "compute_bounds-bool-horizon": (lambda: compute_bounds(MODEL, PROFILES, 1.0, 1.0, True),
                                    "horizon must be an integer >= 1, got True"),
    "Trace-bool-bounds": (lambda: Trace(d=(1.0,), c=(5.0,), d_min=True, d_max=True),
                          "d_min must be a finite number, got True"),
    "TraceSpec-nan-d_lo": (lambda: TraceSpec(horizon=2, d_lo=math.nan), "d_min must be a finite number, got nan"),
    "weight_schedule-float-horizon": (lambda: weight_schedule(2.5, MODEL, 1.0, 1.0, 0.6),
                                      "horizon must be an integer >= 1, got 2.5"),
    "witness-float-grid": (lambda: nonconvexity_witness(MODEL, 0.5, 1.0, grid_points=2.5),
                           "grid_points must be an integer >= 2, got 2.5"),
    "InferConfig-bools": (lambda: InferConfig(True, True), "inference profit must be a finite number, got True"),
    "ProfileSet-text-pair": (lambda: ProfileSet(retrain=[(0, 0), ("1", "2")], infer=[(1.0, 1.0)]),
                             "retraining gain must be a finite number, got '1'"),
    "normalize_profits-nan": (lambda: normalize_profits([math.nan, 1.0]), "accuracy must be a finite number, got nan"),
    "orric_step-bool-v": (lambda: orric_step(True, 1.0, 12.0, PROFILES), "v must be a finite number, got True"),
    "witness-bool-y_lo": (lambda: nonconvexity_witness(MODEL, True, 2.0), "y_lo must be a finite number, got True"),
    "witness-infinite-y_hi": (lambda: nonconvexity_witness(MODEL, 0.5, math.inf),
                              "y_hi must be a finite number, got inf"),
    "witness-text-y_lo": (lambda: nonconvexity_witness(MODEL, "0.5", 2.0), "y_lo must be a finite number, got '0.5'"),
    "TraceSpec-nan-c_lo": (lambda: TraceSpec(horizon=2, c_law="uniform", c_lo=math.nan, c_hi=5),
                           "c_lo must be a finite number, got nan"),
    # a bad capacity law fails where the spec is made, not when a trace is drawn
    "TraceSpec-constant-without-c_lo": (lambda: TraceSpec(horizon=2, c_law="constant"),
                                        "c_law 'constant' needs c_lo"),
    "TraceSpec-uniform-without-c_hi": (lambda: TraceSpec(horizon=2, c_law="uniform", c_lo=1.0),
                                       "c_law 'uniform' needs c_lo and c_hi"),
    "TraceSpec-uniform-falling": (lambda: TraceSpec(horizon=2, c_law="uniform", c_lo=5.0, c_hi=1.0),
                                  "c_hi must be >= c_lo"),
}

# (command, flags): the refusal; each flag's value reaches an entry point's number rule
CLI_NUMBERS = {
    ("witness", "--y-lo=0"): "y_lo must be > 0, got 0.0",
    ("gen-trace", "--law=uniform", "--c=-1", "--c-hi=5"): "c_lo must be >= 0, got -1.0",
    ("gen-trace", "--law=uniform", "--c=1"): "c_law 'uniform' needs c_lo and c_hi",
}


def number_misfits(outside: list) -> list:
    """A bool, a string, NaN and the infinities, then the values just outside the range."""
    return [True, False, "0.5", math.nan, math.inf, -math.inf, *outside]


def number_message(name: str, bound: str | None, value) -> str:
    """The number rule's message: a finite number outside its bound is out of range, anything else no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"{name} must be a finite number, got {value!r}"
    return f"{name} must be {bound}, got {float(value)!r}"


def integer_message(name: str, lo: int, hi: int | None, value, text: bool = False) -> str:
    """The integer rule's message: an integer outside lo..hi is out of range, anything else is no integer."""
    bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    number = int(value) if text and value.lstrip("-").isdigit() else value
    if isinstance(number, int) and not isinstance(number, bool):
        return f"{name} must be {bound}, got {number}"
    return f"{name} must be an integer {bound}, got {value!r}"


def integer_misfits(lo: int, hi: int | None) -> list:
    """A bool, a float, a string, NaN, the infinities, 0 where it is out of range, and the integers just outside."""
    values = [True, False, 2.5, float(lo + 1), "3", math.nan, math.inf, -math.inf, lo - 1]
    if lo > 1:
        values.append(0)
    if hi is not None:
        values.append(hi + 1)
    return values


def raised(call, *args):
    """A check that returns the message of the ValueError call(*args) raises; it fails when call raises none."""
    def refuse(files):
        with pytest.raises(ValueError) as info:
            call(*args)
        return str(info.value)
    return refuse


def cli_error(command: str, *flags: str):
    """A check that returns the one line the command prints after "error: " with flags added last; it must exit 1."""
    def refuse(files):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([*command_argv(files, command), *flags]) == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return err.getvalue().removeprefix("error: ").removesuffix("\n")
    return refuse


def command_argv(files, command: str) -> list[str]:
    profiles, model, trace, out = (str(files / name) for name in ("profiles.json", "model.json", "trace.csv", "out"))
    return {
        "gen-trace": ["gen-trace", "--T", "2", "--law", "constant", "--c", "2", "--out", out],
        "bounds": ["bounds", "--profiles", profiles, "--model", model, "--d-min", "1", "--d-max", "1", "--T", "2"],
        "replay": ["replay", "fog", "--T", "2", "--out", out],
        "run": ["run", "--profiles", profiles, "--model", model, "--trace", trace, "--out", out],
        "oracle": ["oracle", "--profiles", profiles, "--model", model, "--trace", trace],
        "witness": ["witness", "--model", model, "--y-lo", "0.5", "--y-hi", "1"],
    }[command]


def boundary_cases():
    for entry, (call, name, lo, hi) in INTEGER_ENTRIES.items():
        for value in integer_misfits(lo, hi):
            yield pytest.param(raised(call, value), integer_message(name, lo, hi, value), id=f"{entry}={value!r}")
    for entry, call in BOUND_ENTRIES.items():
        for lo, hi, message in BAD_BOUNDS:
            yield pytest.param(raised(call, lo, hi), message, id=f"{entry}({lo!r}, {hi!r})")
    for entry, (call, name, (bound, outside)) in NUMBER_ENTRIES.items():
        for value in number_misfits(outside):
            yield pytest.param(raised(call, value), number_message(name, bound, value), id=f"{entry}={value!r}")
    for (command, flag), (lo, hi) in CLI_INTEGER_FLAGS.items():
        for text in [str(value) for value in integer_misfits(lo, hi) if value != "3"]:
            # one token, so that argparse reads "-inf" as the flag's value, not as another flag
            message = f"argument {flag}: {integer_message('value', lo, hi, text, text=True)}"
            yield pytest.param(cli_error(command, f"{flag}={text}"), message, id=f"{command} {flag} {text}")
    for command in ("bounds", "run"):
        for lo, hi in [("0", "1"), ("-1", "1"), ("2", "1")]:
            yield pytest.param(cli_error(command, "--d-min", lo, "--d-max", hi), NEED.format(float(lo), float(hi)),
                               id=f"{command} --d-min {lo} --d-max {hi}")
    for (command, *flags), message in CLI_NUMBERS.items():
        yield pytest.param(cli_error(command, *flags), message, id=" ".join((command, *flags)))
    for name, (call, message) in MOTIVATION.items():
        yield pytest.param(raised(call), message, id=f"motivation-{name}")


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    save_profiles(root / "profiles.json", PROFILES)
    save_model(root / "model.json", MODEL)
    write_trace_csv(root / "trace.csv", Trace(d=(1.0, 1.0), c=(12.0, 5.0), d_min=1.0, d_max=1.0))
    return root


@pytest.mark.parametrize("refuse, message", boundary_cases())
def test_each_entry_point_refuses_with_its_rule(boundary_files, refuse, message):
    assert refuse(boundary_files) == message


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1, 1), (np.float64(1.0), np.float64(1.0)), (0.5, 1.0)], ids=str)
@pytest.mark.parametrize("entry", BOUND_ENTRIES)
def test_equal_bounds_pass(entry, lo, hi):
    # d_min == d_max is the declared range of every constant trace
    BOUND_ENTRIES[entry](lo, hi)
    assert volume_bounds(lo, hi) == (lo, hi)


@pytest.mark.parametrize("entry, value", BOUNDARY_VALUES, ids=str)
def test_closed_bounds_pass(entry, value):
    call = NUMBER_ENTRIES[entry][0]
    if entry == "linear.slope":  # the rule passes a flat slope, and the relational check after it redirects
        with pytest.raises(ValueError, match="^flat linear curve; use the constant family instead$"):
            call(value)
    else:
        call(value)


def test_rules_return_plain_numbers():
    trace = Trace(d=(2.0,), c=(5.0,), d_min=2, d_max=np.float64(2.0))
    assert (type(trace.d_min), type(trace.d_max)) == (float, float)
    assert all(map(math.isfinite, vars(compute_bounds(MODEL, PROFILES, 2, 2, 3)).values()))
    for value, text in [(np.int64(3), False), (3, False), ("3", True)]:
        assert type(integer(value, "n", 1, text=text)) is int and integer(value, "n", 1, text=text) == 3
