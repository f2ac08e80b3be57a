"""Reproducible workload suites for the experiments E1–E8.

Each function returns the list of problem instances (or the parameterised
specs) one experiment consumes.  Keeping the definitions here — rather than in
the benchmark scripts — means tests can assert properties of exactly the
workloads the benchmarks run on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.problem import OrderingProblem
from repro.network.matrix import clustered_matrix, interpolate_to_uniform
from repro.workloads.distributions import Mixture, Uniform
from repro.workloads.generator import WorkloadSpec, generate_problem, generate_suite

__all__ = [
    "SelectivityRegime",
    "default_spec",
    "hard_problem",
    "scaling_suite",
    "heterogeneity_suite",
    "selectivity_suite",
    "simulation_suite",
]


def default_spec(service_count: int = 8) -> WorkloadSpec:
    """The baseline workload family used across experiments.

    Selective services only, moderate cost spread, symmetric random transfer
    costs comparable in magnitude to processing costs (so neither component
    dominates trivially and the ordering decision genuinely depends on the
    pairwise communication costs).
    """
    return WorkloadSpec(
        service_count=service_count,
        cost=Uniform(0.2, 2.0),
        selectivity=Uniform(0.4, 1.0),
        transfer=Uniform(0.1, 3.0),
        name="baseline",
    )


def hard_problem(size: int, seed: int = 0) -> OrderingProblem:
    """A pruning-resistant instance for benchmarks and search-limit tests.

    Near-unit selectivities keep every prefix product close to 1, so the
    branch-and-bound bounds close few subtrees and exact searches have to
    explore (the default family's selective services let B&B finish in a
    couple of milliseconds, which is not a meaningful cold baseline).  The
    draw order — costs, selectivities, then the transfer matrix row by row —
    is fixed: committed ``BENCH_*.json`` instances depend on it.
    """
    rng = random.Random(seed)
    costs = [rng.uniform(1.0, 1.3) for _ in range(size)]
    selectivities = [rng.uniform(0.9, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.5, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, name=f"hard-n{size}-seed{seed}"
    )


def scaling_suite(
    sizes: tuple[int, ...] = (5, 6, 7, 8, 9, 10), instances_per_size: int = 5, seed: int = 7
) -> dict[int, list[OrderingProblem]]:
    """Instances for the optimization-time / pruning scaling sweeps (E2, E3)."""
    return {
        size: generate_suite(default_spec(size), instances_per_size, seed=seed + size)
        for size in sizes
    }


def heterogeneity_suite(
    service_count: int = 8,
    levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    instances_per_level: int = 5,
    seed: int = 11,
) -> dict[float, list[OrderingProblem]]:
    """Instances for the communication-heterogeneity sweep of experiment E4.

    Each level blends a clustered (LAN/WAN) transfer matrix with its uniform
    counterpart of equal mean; level 0 is the centralized special case, level 1
    the full decentralized setting.
    """
    suites: dict[float, list[OrderingProblem]] = {}
    for level in levels:
        problems = []
        for instance in range(instances_per_level):
            base = generate_problem(default_spec(service_count), seed=seed + instance)
            clustered = clustered_matrix(
                service_count,
                cluster_count=2,
                seed=seed + instance,
                intra_cost=0.1,
                inter_cost=3.0,
            )
            problems.append(base.with_transfer(interpolate_to_uniform(clustered, level)))
        suites[level] = problems
    return suites


@dataclass(frozen=True)
class SelectivityRegime:
    """A named selectivity regime of experiment E5."""

    name: str
    spec: WorkloadSpec


def selectivity_suite(service_count: int = 8) -> list[SelectivityRegime]:
    """The three selectivity regimes of experiment E5."""
    base = default_spec(service_count)
    return [
        SelectivityRegime(
            "highly-selective",
            WorkloadSpec(
                service_count=service_count,
                cost=base.cost,
                selectivity=Uniform(0.05, 0.4),
                transfer=base.transfer,
                name="highly-selective",
            ),
        ),
        SelectivityRegime(
            "weakly-selective",
            WorkloadSpec(
                service_count=service_count,
                cost=base.cost,
                selectivity=Uniform(0.6, 1.0),
                transfer=base.transfer,
                name="weakly-selective",
            ),
        ),
        SelectivityRegime(
            "mixed-proliferative",
            WorkloadSpec(
                service_count=service_count,
                cost=base.cost,
                selectivity=Mixture(Uniform(0.1, 0.8), Uniform(1.0, 2.5), first_weight=0.7),
                transfer=base.transfer,
                name="mixed-proliferative",
            ),
        ),
    ]


def simulation_suite(seed: int = 23, instances: int = 3, service_count: int = 6) -> list[OrderingProblem]:
    """Instances used by the cost-model validation experiment E7."""
    return generate_suite(default_spec(service_count), instances, seed=seed)
