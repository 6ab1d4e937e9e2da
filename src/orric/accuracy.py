"""Learning curves: concave accuracy-versus-training models.

A curve f maps average historical retraining effort x in [0, domain_max]
to model accuracy. Every family is validated numerically at construction
(positive at zero, nondecreasing, concave on a dense grid), and each
model carries the end-slope bound L together with the intercept
g_at_max = f(domain_max) - L * domain_max of the linear overestimate
L * x + g_at_max that the scheduler prices retraining with.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .atomic import write_atomic
from .errors import finite_number, json_object, read_json

__all__ = [
    "FAMILIES",
    "AccuracyModel",
    "make_model",
    "linear_bound_holds",
    "load_model",
    "save_model",
]

_GRID_POINTS = 1024
_SHAPE_TOL = 1e-9
_DOMAIN_TOL = 1e-12
_POSITIVE = {"above": 0.0}


def _require_params(params: Mapping[str, float], **bounds: dict) -> list[float]:
    """The curve's parameters in order as floats; bounds maps each name to its finite_number range keywords."""
    json_object(params, "curve params", tuple(bounds))
    return [finite_number(params[name], f"curve parameter {name!r}", **keywords) for name, keywords in bounds.items()]


def _build_linear(params):
    intercept, slope = _require_params(params, intercept={}, slope={"lo": 0.0})
    if slope == 0.0:
        raise ValueError("flat linear curve; use the constant family instead")
    return (lambda x: intercept + slope * x), (lambda x: slope)


def _build_shifted_power(params):
    # limit - scale * (x + shift)^(-power); the shift keeps the value and
    # slope finite at x = 0, unlike a raw power law
    limit, scale, shift, power = _require_params(params, limit={}, scale=_POSITIVE, shift=_POSITIVE, power=_POSITIVE)
    return (
        lambda x: limit - scale * (x + shift) ** (-power),
        lambda x: scale * power * (x + shift) ** (-power - 1.0),
    )


def _build_exponential_saturation(params):
    limit, scale, rate = _require_params(params, limit={}, scale=_POSITIVE, rate=_POSITIVE)
    return (
        lambda x: limit - scale * np.exp(-rate * x),
        lambda x: scale * rate * np.exp(-rate * x),
    )


def _build_shifted_log(params):
    scale, shift, offset = _require_params(params, scale=_POSITIVE, shift=_POSITIVE, offset={})
    return (
        lambda x: scale * np.log(x + shift) + offset,
        lambda x: scale / (x + shift),
    )


def _build_constant(params):
    (value,) = _require_params(params, value={})
    return (lambda x: value + 0.0 * x), (lambda x: 0.0)


_BUILDERS: dict[str, Callable] = {
    "linear": _build_linear,
    "shifted-power": _build_shifted_power,
    "exponential-saturation": _build_exponential_saturation,
    "shifted-log": _build_shifted_log,
    "constant": _build_constant,
}
FAMILIES = tuple(_BUILDERS)


@dataclass(frozen=True)
class AccuracyModel:
    """A validated concave learning curve on [0, domain_max].

    L is a positive underestimate of the end slope, 0 < L <= f'(domain_max),
    which makes L * x + g_at_max an upper bound on the curve over the
    whole domain. The constant family is the one documented exception,
    carrying L = 0.

    eval is the checked entry for x from outside the package. Callers
    inside the package, whose x lies in [0, domain_max] but for roundoff,
    call eval_clipped, which clips x and calls the family function _fn
    unchecked; eval checks x and then does the same.
    """

    family: str
    params: dict
    domain_max: float
    f_at_max: float
    L: float
    g_at_max: float
    _fn: Callable = field(repr=False, compare=False)

    def eval(self, x):
        """Evaluate the curve at x (scalar or array), rejecting out-of-domain input.

        x may stray outside [0, domain_max] by roundoff, which is clipped;
        eval_clipped skips the check (see the class).
        """
        arr = np.asarray(x, dtype=float)
        if (arr < -_DOMAIN_TOL).any() or (arr > self.domain_max + _DOMAIN_TOL).any():
            raise ValueError(f"curve argument outside [0, {self.domain_max}]")
        out = self.eval_clipped(arr)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def eval_clipped(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the curve at x clipped to [0, domain_max], unchecked: the clip is the only guard."""
        return self._fn(np.minimum(np.maximum(x, 0.0), self.domain_max))


def make_model(
    family: str,
    params: Mapping[str, float],
    domain_max: float,
    L_override: float | None = None,
) -> AccuracyModel:
    """Construct and validate a learning curve.

    The default L is the analytic end slope f'(domain_max). An override
    below that slope is allowed (a looser price for retraining); one
    above it is rejected because the linear overestimate would dip under
    the curve.
    """
    if family not in list(_BUILDERS):  # a list compares by ==, so an unhashable family is unknown too
        raise ValueError(f"unknown curve family {family!r}; known: {list(_BUILDERS)}")
    domain_max = finite_number(domain_max, "domain_max", lo=0.0)
    fn, dfn = _BUILDERS[family](params)

    f0 = float(fn(0.0))
    if f0 <= 0.0:
        raise ValueError(f"curve must be positive at 0, got f(0) = {f0}")
    grid = np.linspace(0.0, domain_max, _GRID_POINTS)
    values = np.asarray(fn(grid), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("curve is not finite on its domain")
    first = np.diff(values)
    if first.size and float(first.min()) < -_SHAPE_TOL:
        raise ValueError("curve must be nondecreasing on its domain")
    second = np.diff(values, n=2)
    if second.size and float(second.max()) > _SHAPE_TOL:
        raise ValueError("curve must be concave on its domain")

    end_slope = float(dfn(domain_max))
    if L_override is None:
        L = end_slope
    else:
        L = finite_number(L_override, "L", lo=0.0)
        if L == 0.0 and end_slope != 0.0:
            raise ValueError("L must be positive for a rising curve")
        if L > end_slope + _SHAPE_TOL:
            raise ValueError(
                f"L = {L} exceeds the end slope f'(domain_max) = {end_slope}"
            )
    if L == 0.0:
        warnings.warn(
            "curve has zero end slope (drift-free); the scheduler degenerates to "
            "inference-only weighting",
            stacklevel=2,
        )

    f_at_max = float(fn(domain_max))
    return AccuracyModel(
        family=family,
        params=dict(params),
        domain_max=domain_max,
        f_at_max=f_at_max,
        L=L,
        g_at_max=f_at_max - L * domain_max,
        _fn=fn,
    )


def linear_bound_holds(model: AccuracyModel) -> bool:
    """Check f(x) <= L * x + g_at_max on a dense grid of the domain."""
    xs = np.linspace(0.0, model.domain_max, _GRID_POINTS)
    return bool(np.all(model.eval(xs) <= model.L * xs + model.g_at_max + _SHAPE_TOL))


def load_model(path) -> AccuracyModel:
    data = json_object(read_json(path, "model spec"), "model spec", ("family", "params", "domain_max"), ("L",))
    return make_model(data["family"], data["params"], data["domain_max"], L_override=data.get("L"))


def save_model(path, model: AccuracyModel) -> None:
    payload = {"family": model.family, "params": dict(model.params), "domain_max": model.domain_max, "L": model.L}
    write_atomic(path, json.dumps(payload, indent=2) + "\n")
