"""Parameter estimation: service statistics, problem calibration, adaptive re-optimization."""

from repro.estimation.adaptive import (
    AdaptiveReoptimizer,
    DriftReference,
    ParameterDrift,
    ReoptimizationDecision,
    compute_drift,
)
from repro.estimation.calibration import LinkObservation, ProblemCalibrator, observe_simulation
from repro.estimation.sampling import (
    OnlineStatistics,
    SelectivityEstimate,
    ServiceObserver,
    estimate_selectivity,
)

__all__ = [
    "AdaptiveReoptimizer",
    "DriftReference",
    "LinkObservation",
    "OnlineStatistics",
    "ParameterDrift",
    "ProblemCalibrator",
    "ReoptimizationDecision",
    "SelectivityEstimate",
    "ServiceObserver",
    "compute_drift",
    "estimate_selectivity",
    "observe_simulation",
]
