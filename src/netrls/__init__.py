"""Distributed online least-squares estimation over a network.

Simulator, closed-form finite-time error bounds, and a planner for the
number of consensus steps and the communication stopping time.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    BurnIn,
    BurnInError,
    burn_in,
    comm_bound,
    global_bound,
    local_bound,
)
from .consensus import (
    WeightMatrix,
    WeightMatrixError,
    complete_weights,
    mixing_deficit,
    ring_weights,
    run_comm_phase,
    validate_weights,
)
from .local_estimator import AgentState
from .model_gen import (
    ConstantMean,
    ModelSpec,
    SeededStream,
    SinusoidMean,
    ZeroMean,
    difference_transform,
    differenced_model,
    mu_bar,
    mu_bar_lambda_min,
    mu_bar_pooled,
    sample_block,
)
from .planner import (
    PlanResult,
    Schedule,
    StoppingTimeNotReachable,
    plan,
    plan_S,
    plan_T,
)
from .simnet import ErrorTrace, SimConfig, run, spectral_norms

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "BoundInputs",
    "BoundReport",
    "BurnIn",
    "BurnInError",
    "ConstantMean",
    "ErrorTrace",
    "ModelSpec",
    "PlanResult",
    "Schedule",
    "SeededStream",
    "SimConfig",
    "SinusoidMean",
    "StoppingTimeNotReachable",
    "WeightMatrix",
    "WeightMatrixError",
    "ZeroMean",
    "burn_in",
    "comm_bound",
    "complete_weights",
    "difference_transform",
    "differenced_model",
    "global_bound",
    "local_bound",
    "mixing_deficit",
    "mu_bar",
    "mu_bar_lambda_min",
    "mu_bar_pooled",
    "plan",
    "plan_S",
    "plan_T",
    "ring_weights",
    "run",
    "run_comm_phase",
    "sample_block",
    "spectral_norms",
    "validate_weights",
]
