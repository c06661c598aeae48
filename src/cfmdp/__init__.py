"""Counterfactual inference for finite-horizon MDPs via Gumbel-max SCMs,
with k-step influence pruning and optimal (k, m)-constrained policies.

Importing cfmdp sets OPENBLAS_NUM_THREADS to 1, for this process and its
children, unless it is already set; numpy reads it when it is first
imported, which is below unless the caller imported numpy first. The
library's only BLAS calls are single-row dot products, far below OpenBLAS's
threading size, so a thread pool would only cost start-up time.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CfmdpError,
    EmptyPrunedMdp,
    InfeasibleBudget,
    InvalidConfig,
    InvariantViolated,
    OutOfMemory,
    UndefinedPolicyAction,
    UnknownEnvironment,
    ValidationFailed,
    ZeroProbabilityObservation,
)
from .mdp import (
    Mdp,
    ObservedPath,
    mdp_from_json,
    mdp_hash,
    mdp_to_json,
    path_from_json,
    path_hash,
    path_to_json,
    sample_path,
)
from .gumbel import (
    CfMdp,
    GumbelPosterior,
    build_cf_mdp,
    build_posterior,
    cf_transition,
    load_posterior,
    nominal_cf_mdp,
    save_posterior,
    topdown_noise,
)
from .influence import (
    PrunedCfMdp,
    SizeReport,
    prune_cf_mdp,
    pruned_size_report,
)
from .solver import (
    CfPolicy,
    RolloutSummary,
    SweepResult,
    check_sweep_monotonicity,
    rollout,
    solve_km,
    sweep,
)
from . import environments

__version__ = "0.1.0"
