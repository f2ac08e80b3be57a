"""E1 — Optimality of the branch-and-bound algorithm.

The paper claims the branch-and-bound algorithm "is guaranteed to find the
linear ordering of services which minimizes the query response time".  The
experiment draws random instances per problem size and cross-checks the
branch-and-bound cost against both exhaustive enumeration and the subset
dynamic programme; the table reports, per size, how many instances matched and
the largest relative deviation observed (which should be numerically zero).
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, optimize_suite
from repro.utils.tables import Table
from repro.workloads.suites import default_spec
from repro.workloads.generator import generate_suite

__all__ = ["run_e1_optimality"]


def run_e1_optimality(
    sizes: tuple[int, ...] = (4, 5, 6, 7, 8),
    instances_per_size: int = 5,
    seed: int = 101,
    workers: int | None = None,
) -> ExperimentResult:
    """Run the optimality cross-check and return its table.

    ``workers`` > 1 bulk-compiles each per-size suite on that many worker
    processes (identical results, less wall-clock on multi-core machines).
    """
    table = Table(
        ["n", "instances", "bb = exhaustive", "bb = dp", "max relative gap"],
        title="E1: branch-and-bound vs exact baselines",
    )
    all_match = True
    for size in sizes:
        problems = generate_suite(default_spec(size), instances_per_size, seed=seed + size)
        matches_exhaustive = 0
        matches_dp = 0
        worst_gap = 0.0
        exhaustive_results = optimize_suite(problems, "exhaustive", workers=workers)
        bb_results = optimize_suite(problems, "branch_and_bound", workers=workers)
        dp_results = optimize_suite(problems, "dynamic_programming", workers=workers)
        for optimal, bb, dp in zip(exhaustive_results, bb_results, dp_results):
            gap = abs(bb.cost - optimal.cost) / max(optimal.cost, 1e-12)
            worst_gap = max(worst_gap, gap)
            if gap <= 1e-9:
                matches_exhaustive += 1
            if abs(bb.cost - dp.cost) / max(dp.cost, 1e-12) <= 1e-9:
                matches_dp += 1
        if matches_exhaustive != len(problems) or matches_dp != len(problems):
            all_match = False
        table.add_row(size, len(problems), matches_exhaustive, matches_dp, worst_gap)

    notes = [
        "Every instance matches the exhaustive optimum, as the paper's optimality claim requires."
        if all_match
        else "MISMATCH DETECTED: the branch-and-bound result deviated from the exhaustive optimum.",
    ]
    return ExperimentResult(
        experiment_id="E1",
        title="Optimality of the branch-and-bound ordering",
        table=table,
        parameters={
            "sizes": list(sizes),
            "instances_per_size": instances_per_size,
            "seed": seed,
            "workers": workers,
        },
        notes=notes,
    )
