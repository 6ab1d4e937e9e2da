"""Online allocation of edge compute between model retraining and inference.

The package models one device that must split each time slot's compute
budget between retraining a deployed model (to chase data drift) and
serving inference, each from a discrete menu of operating points. It
ships the scheduled online policy (orric), four fixed heuristics, an
exact offline oracle, closed-form worst-case ratio bounds with the
matching adversarial trace, trace laws, and a replay of an
image-classification deployment.
"""

from .accuracy import (
    FAMILIES,
    AccuracyModel,
    linear_bound_holds,
    load_model,
    make_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .analysis import CRBounds, bounds_report, build_io_tight_instance, compute_bounds
from .engine import (
    MixturePoint,
    RunResult,
    Trace,
    WitnessReport,
    ensure_feasible,
    evaluate_objective,
    mixture_gap,
    nonconvexity_witness,
    offline_optimal,
    read_trace_csv,
    run_policy,
    write_run_csv,
    write_trace_csv,
)
from .errors import CapExceededError, InfeasibleError
from .policies import (
    FOCUS_SHIFT,
    HEURISTICS,
    INFERENCE_GREEDY,
    INFERENCE_ONLY,
    KNOWLEDGE_DISTILLATION,
    ORRIC,
    POLICIES,
    Decision,
    compute_weights,
    heuristic_step,
    orric_step,
)
from .profiles import (
    InferConfig,
    ProfileSet,
    RetrainConfig,
    load_profiles,
    normalize_profits,
    prune_dominated,
    read_menus,
    save_profiles,
)
from .scenario import (
    SAMPLING_RATIOS,
    ReplaySpec,
    TraceSpec,
    build_replay,
    corruption_labels,
    generate_trace,
    load_compute_table,
    load_replay_spec,
)

__version__ = "0.1.0"
