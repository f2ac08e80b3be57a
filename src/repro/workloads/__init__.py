"""Workload substrate: parameter distributions, generators, scenarios and suites."""

from repro.workloads.distributions import (
    Constant,
    Discrete,
    Distribution,
    Exponential,
    LogUniform,
    Mixture,
    Normal,
    Uniform,
)
from repro.workloads.generator import WorkloadSpec, generate_problem, generate_suite
from repro.workloads.scenarios import (
    all_scenarios,
    credit_card_screening,
    federated_document_pipeline,
    sensor_quality_pipeline,
)
from repro.workloads.suites import (
    SelectivityRegime,
    default_spec,
    hard_problem,
    heterogeneity_suite,
    scaling_suite,
    selectivity_suite,
    simulation_suite,
)

__all__ = [
    "Constant",
    "Discrete",
    "Distribution",
    "Exponential",
    "LogUniform",
    "Mixture",
    "Normal",
    "SelectivityRegime",
    "Uniform",
    "WorkloadSpec",
    "all_scenarios",
    "credit_card_screening",
    "default_spec",
    "federated_document_pipeline",
    "generate_problem",
    "generate_suite",
    "hard_problem",
    "heterogeneity_suite",
    "scaling_suite",
    "selectivity_suite",
    "sensor_quality_pipeline",
    "simulation_suite",
]
