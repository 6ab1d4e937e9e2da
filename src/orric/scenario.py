"""Synthetic trace laws and the image-classification replay setup.

Traces are drawn from small declarative specs so batch experiments stay
reproducible: volumes and capacities come from named laws seeded with a
counter-based generator. The replay turns the shipped compute/accuracy
table into menus, a drift curve pinned by its end value and end slope,
and a capacity law spanning the per-slot compute of the deployed
(student) and labeling (teacher) models at full input resolution.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from .accuracy import AccuracyModel, make_model
from .engine import Trace, ensure_feasible
from .errors import finite_number, integer, read_json, volume_bounds
from .profiles import InferConfig, ProfileSet, RetrainConfig, normalize_profits, prune_dominated

__all__ = [
    "TraceSpec",
    "ReplaySpec",
    "generate_trace",
    "build_replay",
    "load_compute_table",
    "corruption_labels",
    "load_replay_spec",
    "SAMPLING_RATIOS",
]

D_LAWS = ("constant", "uniform")
C_LAWS = ("constant", "uniform", "sufficient", "scarce")
# the trace generator's Philox key is a 128-bit unsigned integer
SEED_MAX = 2**128 - 1

STUDENT_MODEL = "MobileNetV2"
TEACHER_MODEL = "ResNet50"
CLEAN_LABEL = "original"
MACS_PER_MILLION = 1e6
# the shipped table's columns, each with the type its cells are read as
TABLE_COLUMNS = {
    "model": str, "resolution": int, "macs_m": float,
    "latency_us": float, "corruption": str, "accuracy": float,
}

SAMPLING_RATIOS = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0)


@dataclass(frozen=True)
class TraceSpec:
    """Declarative trace description.

    d_law: constant (value d_lo) or uniform on [d_lo, d_hi].
    c_law: constant (value c_lo), uniform on [c_lo, c_hi], or derived
    from the menus: sufficient affords the top pair every slot, scarce
    affords exactly the cheapest inference.
    """

    horizon: int
    d_law: str = "constant"
    d_lo: float = 1000.0
    d_hi: float | None = None
    c_law: str = "sufficient"
    c_lo: float | None = None
    c_hi: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        integer(self.horizon, "horizon", 1)
        integer(self.seed, "seed", 0, SEED_MAX)
        if self.d_law not in D_LAWS:
            raise ValueError(f"unknown d_law {self.d_law!r}; known: {list(D_LAWS)}")
        if self.c_law not in C_LAWS:
            raise ValueError(f"unknown c_law {self.c_law!r}; known: {list(C_LAWS)}")
        volume_bounds(self.d_lo, self.d_lo if self.d_hi is None else self.d_hi)  # its traces' declared bounds
        for name in ("c_lo", "c_hi"):
            if getattr(self, name) is not None:
                finite_number(getattr(self, name), name, lo=0.0)
        if self.c_law == "constant" and self.c_lo is None:
            raise ValueError("c_law 'constant' needs c_lo")
        if self.c_law == "uniform" and None in (self.c_lo, self.c_hi):
            raise ValueError("c_law 'uniform' needs c_lo and c_hi")
        if self.c_law == "uniform" and self.c_hi < self.c_lo:
            raise ValueError("c_hi must be >= c_lo")


def generate_trace(spec: TraceSpec, profiles: ProfileSet | None = None) -> Trace:
    """Draw the trace a TraceSpec describes, deterministically in the seed.

    The menu-derived laws (sufficient, scarce) require profiles; when
    profiles are given the result is also checked to afford the cheapest
    inference configuration in every slot.
    """
    # counter-based generator so concurrent batch runs stay reproducible
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    horizon = spec.horizon
    d_hi = spec.d_lo if spec.d_hi is None else spec.d_hi
    if spec.d_law == "constant":
        d = np.full(horizon, spec.d_lo)
    else:
        d = rng.uniform(spec.d_lo, d_hi, horizon)

    if spec.c_law in ("sufficient", "scarce"):
        if profiles is None:
            raise ValueError(f"c_law {spec.c_law!r} needs a profile set")
        per_sample = profiles.top_pair_cost if spec.c_law == "sufficient" else profiles.min_infer_cost
        c = d * per_sample
    elif spec.c_law == "constant":
        c = np.full(horizon, spec.c_lo)
    else:
        c = rng.uniform(spec.c_lo, spec.c_hi, horizon)

    trace = Trace(d=tuple(d), c=tuple(c), d_min=spec.d_lo, d_max=d_hi)
    if profiles is not None:
        ensure_feasible(trace, profiles)
    return trace


@dataclass(frozen=True)
class ReplaySpec:
    """Replay of the image-classification deployment.

    Retraining cost per sample is ratio * (teacher labeling pass plus
    train_cost_multiplier student passes per epoch) at full resolution;
    gains are those costs normalized so the top entry buys gain 1.
    f_at_max, the accuracy that full retraining reaches, defaults to the
    student's clean accuracy at the costliest inference entry the
    corruption's menu keeps (see build_replay); L is the end-slope price
    of retraining.
    """

    corruption: str
    sampling_ratios: tuple[float, ...] = SAMPLING_RATIOS
    train_cost_multiplier: float = 3.0
    epochs_per_slot: int = 1
    f_at_max: float | None = None
    L: float = 0.01
    horizon: int = 100
    data_per_slot: float = 1000.0
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            entries = list(enumerate(self.sampling_ratios, 1))
        except TypeError:
            raise ValueError(f"sampling_ratios must be a list of finite numbers, got {self.sampling_ratios!r}") from None
        ratios = tuple(finite_number(r, f"sampling_ratios entry {k}", lo=0.0) for k, r in entries)
        object.__setattr__(self, "sampling_ratios", ratios)
        if not ratios or max(ratios) <= 0.0:
            raise ValueError("sampling_ratios needs at least one positive entry")
        finite_number(self.train_cost_multiplier, "train_cost_multiplier", above=0.0)
        integer(self.epochs_per_slot, "epochs_per_slot", 1)
        if self.f_at_max is not None:  # None picks the corruption's default
            finite_number(self.f_at_max, "f_at_max")
        finite_number(self.L, "L", lo=0.0)
        integer(self.horizon, "horizon", 1)
        finite_number(self.data_per_slot, "data_per_slot", above=0.0)
        integer(self.seed, "seed", 0, SEED_MAX)


@lru_cache(maxsize=1)
def load_compute_table() -> tuple[MappingProxyType, ...]:
    """Rows of the shipped compute/accuracy table, read-only since every caller shares the cached rows."""
    with resources.files("orric").joinpath("data/cifar10c_profiles.csv").open() as fh:
        return tuple(
            MappingProxyType({key: read(row[key]) for key, read in TABLE_COLUMNS.items()})
            for row in csv.DictReader(fh)
        )


def corruption_labels() -> tuple[str, ...]:
    return tuple(sorted({row["corruption"] for row in load_compute_table()}))


def _student_rows(corruption: str) -> list[MappingProxyType]:
    """The student's table rows for one label, cheapest first."""
    rows = [row for row in load_compute_table() if row["model"] == STUDENT_MODEL and row["corruption"] == corruption]
    return sorted(rows, key=lambda row: row["macs_m"])


def build_replay(spec: ReplaySpec) -> tuple[ProfileSet, AccuracyModel, TraceSpec]:
    """Assemble menus, drift curve, and capacity law for a replay run.

    Inference menus are the student rows for the corruption with
    accuracies normalized to the best one; dominated resolutions drop
    out. Capacity per slot is uniform between the student's and the
    teacher's full-resolution compute, each model's compute at its
    largest resolution, for one slot of data. Unless the spec sets
    f_at_max, the ceiling is the student's clean (original) accuracy at
    the resolution of the costliest inference entry the pruning keeps.
    """
    rows = _student_rows(spec.corruption)
    if not rows:
        raise ValueError(
            f"unknown corruption {spec.corruption!r}; known: {list(corruption_labels())}"
        )
    profits = normalize_profits([row["accuracy"] for row in rows])
    infer = [
        InferConfig(profit=p, cost=row["macs_m"] * MACS_PER_MILLION)
        for p, row in zip(profits, rows)
    ]

    # in resolution order each model's last row, the one the dict keeps, is at its largest resolution
    full_macs = {
        row["model"]: row["macs_m"] * MACS_PER_MILLION
        for row in sorted(load_compute_table(), key=lambda row: row["resolution"])
    }
    student_full, teacher_full = full_macs[STUDENT_MODEL], full_macs[TEACHER_MODEL]
    per_unit = teacher_full + spec.epochs_per_slot * spec.train_cost_multiplier * student_full
    costs = [ratio * per_unit for ratio in spec.sampling_ratios]
    beta = 1.0 / max(costs)
    retrain = [RetrainConfig(gain=cost * beta, cost=cost) for cost in costs]

    profile_set = prune_dominated(retrain, infer)
    f_at_max = spec.f_at_max
    if f_at_max is None:
        top = rows[infer.index(profile_set.infer[-1])]
        clean = next(row for row in _student_rows(CLEAN_LABEL) if row["resolution"] == top["resolution"])
        # the table holds percentages: reading the digits at exponent -2 rounds
        # once, where dividing by 100 can land an ulp away (73.29 / 100 != 0.7329)
        f_at_max = float(f"{clean['accuracy']!r}e-2")

    domain_max = profile_set.max_gain
    if spec.L == 0.0:
        model = make_model("constant", {"value": f_at_max}, domain_max)
    else:
        # the minimal curve pinned by its end value and end slope
        model = make_model(
            "linear",
            {"intercept": f_at_max - spec.L * domain_max, "slope": spec.L},
            domain_max,
        )

    trace_spec = TraceSpec(
        horizon=spec.horizon,
        d_law="constant",
        d_lo=spec.data_per_slot,
        c_law="uniform",
        c_lo=spec.data_per_slot * student_full,
        c_hi=spec.data_per_slot * teacher_full,
        seed=spec.seed,
    )
    return profile_set, model, trace_spec


def load_replay_spec(path) -> ReplaySpec:
    """Read a ReplaySpec from JSON mirroring its fields."""
    data = read_json(path, "replay spec")
    if not isinstance(data, dict):
        raise ValueError("replay spec must be a JSON object of ReplaySpec fields")
    try:
        return ReplaySpec(**data)
    except TypeError as exc:
        raise ValueError(f"bad replay spec: {exc}") from exc
