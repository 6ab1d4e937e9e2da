"""Configuration menus for colocated retraining and inference.

A menu is a discrete list of operating points, each buying accuracy with
per-sample compute. After dominance pruning both menus are strictly
ascending in cost and in payoff, which is the shape the fit table in
:mod:`orric.policies` relies on: the inference entries that fit a budget
alongside a retraining entry form a prefix of the menu.

Costs are opaque compute units (MACs per sample in the shipped data set);
they are only ever compared, never converted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import finite_number, read_csv, read_json

__all__ = [
    "RetrainConfig",
    "InferConfig",
    "ProfileSet",
    "prune_dominated",
    "normalize_profits",
    "read_menus",
    "load_profiles",
    "save_profiles",
]

_TOL = 1e-9


@dataclass(frozen=True)
class RetrainConfig:
    """One retraining operating point: accuracy gain bought at a per-sample cost, each stored as a float."""

    gain: float
    cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", finite_number(self.gain, "retraining gain", 0.0, 1.0 + _TOL))
        object.__setattr__(self, "cost", finite_number(self.cost, "retraining cost", 0.0))


@dataclass(frozen=True)
class InferConfig:
    """One inference operating point: profit (accuracy) bought at a per-sample cost, each stored as a float."""

    profit: float
    cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "profit", finite_number(self.profit, "inference profit", above=0.0))
        object.__setattr__(self, "cost", finite_number(self.cost, "inference cost", above=0.0))


def _coerce(entry, cls):
    # accept ready-made configs or bare (payoff, cost) pairs, which the config's own rule reads
    if isinstance(entry, cls):
        return entry
    payoff, cost = entry
    return cls(payoff, cost)


def _check_strictly_monotone(pairs: Sequence[tuple[float, float]], label: str) -> None:
    for (p0, c0), (p1, c1) in zip(pairs, pairs[1:]):
        if not (c0 < c1 and p0 < p1):
            raise ValueError(
                f"{label} menu must be strictly ascending in cost and payoff; "
                f"offending pair ({p0}, {c0}) -> ({p1}, {c1})"
            )


class MenuArrays(NamedTuple):
    """Read-only numpy columns of a ProfileSet's menus, in menu order."""

    gain: np.ndarray
    retrain_cost: np.ndarray
    profit: np.ndarray
    infer_cost: np.ndarray


@dataclass(frozen=True)
class ProfileSet:
    """A pruned, validated pair of menus.

    Both menus are strictly ascending in cost and payoff, and the
    retraining menu starts with the free no-op configuration, so a
    higher index always means paying more for more. A pickle or copy
    holds the menus only and is rebuilt through the constructor, so its
    arrays are built afresh, read-only, on first use.
    """

    retrain: tuple[RetrainConfig, ...]
    infer: tuple[InferConfig, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "retrain", tuple(_coerce(e, RetrainConfig) for e in self.retrain))
        object.__setattr__(self, "infer", tuple(_coerce(e, InferConfig) for e in self.infer))
        if not self.retrain:
            raise ValueError("retraining menu is empty")
        if not self.infer:
            raise ValueError("inference menu is empty")
        head = self.retrain[0]
        if head.gain != 0.0 or head.cost != 0.0:
            raise ValueError("retraining menu must start with the (gain 0, cost 0) no-op entry")
        _check_strictly_monotone([(e.gain, e.cost) for e in self.retrain], "retraining")
        _check_strictly_monotone([(e.profit, e.cost) for e in self.infer], "inference")

    def __reduce__(self):
        return type(self), (self.retrain, self.infer)

    # Extrema fall out of the ordering: menus are ascending in both axes.
    @property
    def m(self) -> int:
        return len(self.retrain)

    @property
    def n(self) -> int:
        return len(self.infer)

    @property
    def max_gain(self) -> float:
        return self.retrain[-1].gain

    @property
    def min_profit(self) -> float:
        return self.infer[0].profit

    @property
    def max_profit(self) -> float:
        return self.infer[-1].profit

    @property
    def min_infer_cost(self) -> float:
        return self.infer[0].cost

    @property
    def top_pair_cost(self) -> float:
        """Per-sample cost of running both menus at their most expensive entry."""
        return self.retrain[-1].cost + self.infer[-1].cost

    @cached_property
    def arrays(self) -> MenuArrays:
        """The menus as read-only arrays, built on first use and shared by every reader."""
        retrain = np.array([[e.gain for e in self.retrain], [e.cost for e in self.retrain]])
        infer = np.array([[e.profit for e in self.infer], [e.cost for e in self.infer]])
        retrain.flags.writeable = infer.flags.writeable = False
        return MenuArrays(*retrain, *infer)


def _dominance_prune(configs, payoff):
    """Keep the maximal antichain: entries no other entry matches on cost and beats on payoff.

    Sorting by (cost asc, payoff desc) lets a single sweep keep exactly the
    entries whose payoff strictly exceeds everything cheaper or equal, which
    also collapses duplicates and resolves cost ties toward higher payoff.
    """
    ordered = sorted(configs, key=lambda e: (e.cost, -payoff(e)))
    kept = []
    best = float("-inf")
    for entry in ordered:
        p = payoff(entry)
        if p > best:
            kept.append(entry)
            best = p
    return tuple(kept)


def prune_dominated(
    raw_retrain: Iterable,
    raw_infer: Iterable,
    auto_insert_zero: bool = True,
) -> ProfileSet:
    """Drop dominated entries from both menus and assemble a ProfileSet.

    An entry is dominated when another entry costs no more and pays at
    least as much. With ``auto_insert_zero`` the free no-op retraining
    entry is added when missing; otherwise its absence is an error.
    """
    retrain = [_coerce(e, RetrainConfig) for e in raw_retrain]
    infer = [_coerce(e, InferConfig) for e in raw_infer]
    for entry in retrain:
        # such an entry would dominate the required no-op configuration
        if entry.cost == 0.0 and entry.gain > 0.0:
            raise ValueError(
                f"retraining gain must cost compute; got gain {entry.gain} at cost 0"
            )
    if not any(e.gain == 0.0 and e.cost == 0.0 for e in retrain):
        if not auto_insert_zero:
            raise ValueError(
                "retraining menu lacks the (gain 0, cost 0) entry and auto-insertion is disabled"
            )
        retrain.append(RetrainConfig(0.0, 0.0))
    return ProfileSet(
        retrain=_dominance_prune(retrain, lambda e: e.gain),
        infer=_dominance_prune(infer, lambda e: e.profit),
    )


def normalize_profits(raw_accuracies: Iterable[float]) -> list[float]:
    """Scale raw accuracies so the best one becomes 1.0."""
    values = [finite_number(a, "accuracy", above=0.0) for a in raw_accuracies]
    if not values:
        raise ValueError("no accuracies to normalize")
    top = max(values)
    return [a / top for a in values]


def read_menus(path) -> tuple[list[RetrainConfig], list[InferConfig]]:
    """Read raw menus from a JSON or CSV file, without pruning.

    JSON: {"retrain": [{"gain": g, "cost": c}, ...], "infer": [{"profit": p, "cost": c}, ...]}
    CSV:  header "kind,gain_or_profit,cost" with kind in {retrain, infer}
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        retrain, infer = [], []
        for line, row in read_csv(path, "profile", "kind,gain_or_profit,cost", "a kind and two numbers"):
            kind = row["kind"].strip()
            payoff, cost = (finite_number(row[key], f"{line} {key}", text=True) for key in ("gain_or_profit", "cost"))
            if kind == "retrain":
                retrain.append(RetrainConfig(payoff, cost))
            elif kind == "infer":
                infer.append(InferConfig(payoff, cost))
            else:
                raise ValueError(f"unknown profile kind {kind!r}")
    else:
        data = read_json(path, "profile JSON")
        if not isinstance(data, dict):
            raise ValueError('profile JSON must be an object with "retrain" and "infer" lists')
        retrain = _json_menu(data, "retrain", RetrainConfig, "gain")
        infer = _json_menu(data, "infer", InferConfig, "profit")
    return retrain, infer


def _json_menu(data: dict, menu: str, cls, payoff: str) -> list:
    entries = data.get(menu, [])
    if not isinstance(entries, list):
        raise ValueError(f'profile JSON "{menu}" must be a list')
    configs = []
    for k, entry in enumerate(entries, 1):
        if not isinstance(entry, dict) or payoff not in entry or "cost" not in entry:
            raise ValueError(f'{menu} entry {k} must be an object with "{payoff}" and "cost", got {entry!r}')
        configs.append(cls(*(finite_number(entry[key], f"{menu} entry {k} {key}") for key in (payoff, "cost"))))
    return configs


def load_profiles(path) -> ProfileSet:
    """Read menus from a JSON or CSV file and return them pruned, with the no-op retraining entry."""
    retrain, infer = read_menus(path)
    return prune_dominated(retrain, infer)


def save_profiles(path, profiles: ProfileSet) -> None:
    """Write menus as JSON in the same layout load_profiles reads."""
    payload = {
        "retrain": [{"gain": e.gain, "cost": e.cost} for e in profiles.retrain],
        "infer": [{"profit": e.profit, "cost": e.cost} for e in profiles.infer],
    }
    write_atomic(path, json.dumps(payload, indent=2) + "\n")
