"""Online allocation of edge compute between model retraining and inference.

The package models one device that must split each time slot's compute
budget between retraining a deployed model (to chase data drift) and
serving inference, each from a discrete menu of operating points. It
ships the scheduled online policy (orric), four fixed heuristics, an
exact offline oracle, closed-form worst-case ratio bounds with the
matching adversarial trace, trace laws, and a replay of an
image-classification deployment. Each module's __all__ lists its public
names once; the package exports them all.
"""

from . import accuracy, analysis, engine, errors, policies, profiles, scenario
from .accuracy import *
from .analysis import *
from .engine import *
from .errors import *
from .policies import *
from .profiles import *
from .scenario import *

__all__ = (
    accuracy.__all__ + analysis.__all__ + engine.__all__ + errors.__all__
    + policies.__all__ + profiles.__all__ + scenario.__all__
)

__version__ = "0.1.0"
