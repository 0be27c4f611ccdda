"""tunekit: derivative-free black-box optimization for hyperparameter tuning.

Multiple search methods run concurrently under one manager, sharing an
evaluation cache and, optionally, each other's results. Includes a benchmark
harness, an objective suite, and a worker-allocation simulator.
"""

from .cache import canonical_key
from .manager import Solver, TuningManager
from .sampling import SampleRequest, lhs_design, lhs_sample, random_sample
from .schedsim import AllocationPlan, CostModel, best_allocation, fit_cost_model, makespan
from .space import (
    ArityMismatchError,
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    InvalidPointError,
    Point,
    SearchSpace,
    decode,
    distance,
    encode,
    is_valid,
    validate_point,
)
from .trials import (
    PENALTY_OBJECTIVE,
    Budget,
    EvaluationFailed,
    TrialRecord,
    TuningHistory,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "ArityMismatchError",
    "Budget",
    "CategoricalVariable",
    "ContinuousVariable",
    "CostModel",
    "EvaluationFailed",
    "IntegerVariable",
    "InvalidPointError",
    "PENALTY_OBJECTIVE",
    "Point",
    "SampleRequest",
    "SearchSpace",
    "Solver",
    "TrialRecord",
    "TuningHistory",
    "TuningManager",
    "best_allocation",
    "canonical_key",
    "decode",
    "distance",
    "encode",
    "fit_cost_model",
    "is_valid",
    "lhs_design",
    "lhs_sample",
    "makespan",
    "random_sample",
    "validate_point",
]
