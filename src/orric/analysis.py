"""Closed-form worst-case guarantees and the matching adversarial trace.

All ratios compare a policy's total against the offline optimum on the
same instance; a bound of r means the policy never earns less than r
times the optimum on any feasible trace within the declared volume
bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .accuracy import AccuracyModel
from .engine import Trace
from .errors import integer, volume_bounds
from .profiles import ProfileSet
from .scenario import TraceSpec, generate_trace

__all__ = ["CRBounds", "compute_bounds", "bounds_report", "build_io_tight_instance"]

_GAIN_TOL = 1e-9


@dataclass(frozen=True)
class CRBounds:
    """Worst-case ratio quantities for a (curve, menus, volume bounds, horizon) tuple.

    alpha measures the guaranteed future value of one slot of full
    retraining relative to the best inference slot; it scales the
    advantage the scheduled policy holds over never retraining.
    cr_orric is the operative guarantee, the larger of the two valid
    expressions cr_orric_a and cr_orric_b. crossover_horizon is the
    horizon beyond which cr_orric_b strictly exceeds the ceiling
    tight_cr_io_upper that no inference-only schedule can beat; it is
    None when the end-slope bound L is zero (no drift to exploit).
    """

    alpha: float
    cr_inference_only: float
    tight_cr_io_upper: float
    cr_orric_a: float
    cr_orric_b: float
    cr_orric: float
    crossover_horizon: float | None


def _check_consistent(model: AccuracyModel, profiles: ProfileSet) -> None:
    scale = max(1.0, abs(model.domain_max))
    if abs(profiles.max_gain - model.domain_max) > _GAIN_TOL * scale:
        raise ValueError(
            f"menu top gain {profiles.max_gain} must equal the curve domain "
            f"{model.domain_max} for the closed-form bounds to apply"
        )


def compute_bounds(
    model: AccuracyModel,
    profiles: ProfileSet,
    d_min: float,
    d_max: float,
    horizon: int,
) -> CRBounds:
    """Evaluate the closed-form worst-case ratios.

    Requires the menu's top gain to coincide with the curve domain, so
    f_at_max really is the accuracy after one slot of full retraining.
    """
    horizon = integer(horizon, "horizon", 1)
    d_min, d_max = volume_bounds(d_min, d_max)
    _check_consistent(model, profiles)

    f0 = model.eval(0.0)
    f_max = model.f_at_max
    alpha = (
        model.L
        * profiles.max_gain
        * d_min**2
        * profiles.min_profit
        / (f_max * d_max**2 * profiles.max_profit)
    )
    cr_io = f0 / f_max
    tight = horizon * f0 / (f0 + (horizon - 1) * f_max)
    cr_a = (1.0 + alpha) * f0 / f_max
    cr_b = 1.0 / (f_max / f0 - alpha)
    crossover = None if alpha == 0.0 else (f_max - f0) / (alpha * f0)
    return CRBounds(
        alpha=alpha,
        cr_inference_only=cr_io,
        tight_cr_io_upper=tight,
        cr_orric_a=cr_a,
        cr_orric_b=cr_b,
        cr_orric=max(cr_a, cr_b),
        crossover_horizon=crossover,
    )


def bounds_report(
    model: AccuracyModel,
    profiles: ProfileSet,
    d_min: float,
    d_max: float,
    horizon: int,
) -> dict:
    """JSON-ready bounds report: every CRBounds field plus the inputs."""
    report = asdict(compute_bounds(model, profiles, d_min, d_max, horizon))
    report["inputs"] = {
        "f0": model.eval(0.0),
        "f_at_max": model.f_at_max,
        "L": model.L,
        "max_gain": profiles.max_gain,
        "min_profit": profiles.min_profit,
        "max_profit": profiles.max_profit,
        "d_min": d_min,
        "d_max": d_max,
        "horizon": horizon,
    }
    return report


def build_io_tight_instance(
    model: AccuracyModel,
    profiles: ProfileSet,
    horizon: int,
    d: float = 1000.0,
) -> Trace:
    """Constant trace on which inference-only meets its ratio ceiling.

    The sufficient law at constant volume d: capacity admits the most
    expensive retraining and inference pair in every slot, so the oracle
    buys full gain once and rides f(max_gain) afterwards while
    inference-only stays at f(0) forever. Requires the menu top gain to
    equal the curve domain, so that single purchase reaches the curve's
    end.
    """
    spec = TraceSpec(horizon=horizon, d_lo=d, c_law="sufficient")
    _check_consistent(model, profiles)
    return generate_trace(spec, profiles)
