"""Exception hierarchy shared across the package."""


class CfmdpError(Exception):
    """Base class for all cfmdp errors."""


class ValidationFailed(CfmdpError):
    """An input artifact (MDP JSON, path JSON, config) violates its contract."""


class InvalidConfig(ValidationFailed):
    """An environment configuration is out of range or inconsistent."""


class UnknownEnvironment(ValidationFailed):
    """Requested environment or policy preset does not exist."""


class UndefinedPolicyAction(CfmdpError):
    """A policy returned no action for a reached (state, time)."""


class ZeroProbabilityObservation(CfmdpError):
    """Posterior conditioning on a transition the kernel assigns probability 0."""


class EmptyPrunedMdp(CfmdpError):
    """Pruning eliminated the observed path itself (inconsistent inputs)."""


class InfeasibleBudget(CfmdpError):
    """No policy satisfies the action-change budget on the pruned MDP."""


class OutOfMemory(CfmdpError):
    """A working array (a posterior noise layer, the rollout uniforms, a
    sampled path's uniforms) could not be allocated."""


class InvariantViolated(CfmdpError):
    """A probability-one guarantee (replay, closure, change budget) failed."""
