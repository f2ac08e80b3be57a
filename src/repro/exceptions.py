"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library-specific failures without accidentally swallowing
built-in exceptions such as :class:`KeyboardInterrupt`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class InvalidServiceError(ReproError):
    """A service definition is malformed (negative cost, non-positive selectivity, ...)."""


class InvalidCostMatrixError(ReproError):
    """A communication-cost matrix is malformed (not square, negative entries, ...)."""


class InvalidProblemError(ReproError):
    """An ordering problem is inconsistent (matrix size mismatch, empty service set, ...)."""


class InvalidPlanError(ReproError):
    """A plan is not a valid linear ordering for its problem."""


class PrecedenceViolationError(InvalidPlanError):
    """A plan violates a precedence constraint of its problem."""


class PrecedenceCycleError(ReproError):
    """The precedence constraints contain a cycle, so no valid ordering exists."""


class OptimizationError(ReproError):
    """An optimizer could not produce a plan."""


class SearchLimitExceededError(OptimizationError):
    """An optimizer hit a configured node or time limit before completing."""


class ProblemTooLargeError(OptimizationError):
    """An exact algorithm was asked to solve an instance beyond its configured size guard."""


class KernelError(ReproError):
    """An evaluation kernel was misconfigured or unavailable (e.g. the vector
    kernel was requested explicitly but numpy is not installed)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload or scenario specification is invalid."""


class QueryError(ReproError):
    """A declarative query is malformed or references unknown services."""


class EstimationError(ReproError):
    """Parameter estimation was asked to work with insufficient or invalid observations."""


class ExperimentError(ReproError):
    """An experiment definition or harness invocation is invalid."""


class ParallelError(ReproError):
    """A multiprocessing start method is unsupported or a worker process died."""


class ServingError(ReproError):
    """The plan-serving subsystem was misconfigured or reached an invalid state."""


class AdmissionError(ServingError):
    """A request was rejected by the plan service's admission control (overload)."""


class ShardingError(ServingError):
    """The sharded serving tier was misconfigured or a shard failed."""


class ObservabilityError(ReproError):
    """The observability subsystem (metrics/tracing) was misconfigured."""
