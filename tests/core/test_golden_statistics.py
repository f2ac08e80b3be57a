"""Golden search statistics of the scalar kernel, pinned to committed values.

The subset DP's cross-kernel parity test compares the scalar and vector
kernels with each other, so a change that moved both the same way would pass
it.  This test pins every search's plans, costs, ``optimal`` flags and search
counters on the scalar kernel, on fixed generated instances, so refactoring
an optimizer cannot silently change its search.

Regenerate the golden file (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/core/test_golden_statistics.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.beam_search import BeamSearchOptimizer
from repro.core.branch_and_bound import (
    BranchAndBoundOptimizer,
    BranchAndBoundOptions,
    SuccessorOrder,
)
from repro.core.dynamic_programming import DynamicProgrammingOptimizer
from repro.core.greedy import GreedyOptimizer, GreedyStrategy
from repro.core.local_search import HillClimbingOptimizer
from repro.workloads import WorkloadSpec, generate_problem
from repro.workloads.distributions import Uniform

GOLDEN_PATH = Path(__file__).with_name("golden_search_statistics.json")

SIZES = (6, 9, 12)
PRECEDENCE_DENSITIES = (0.0, 0.15)
SEED = 11

FAMILIES = {
    # The generator's defaults: strong pruning, short searches.
    "default": {},
    # Near-uniform costs and selectivities with asymmetric transfers: weak
    # pruning, so every branch-and-bound counter and hill-climbing step moves.
    "hard": {
        "cost": Uniform(1.0, 1.3),
        "selectivity": Uniform(0.9, 1.0),
        "transfer": Uniform(0.5, 4.0),
        "symmetric_transfer": False,
    },
}

OPTIMIZERS = {
    "greedy_min_term": lambda: GreedyOptimizer(GreedyStrategy.MIN_TERM),
    "beam_w1_residual": lambda: BeamSearchOptimizer(1, True),
    "beam_w1_plain": lambda: BeamSearchOptimizer(1, False),
    "beam_w16_residual": lambda: BeamSearchOptimizer(16, True),
    "beam_w16_plain": lambda: BeamSearchOptimizer(16, False),
    "hill_climbing": lambda: HillClimbingOptimizer(),
    "bnb_cheapest_transfer": lambda: BranchAndBoundOptimizer(
        BranchAndBoundOptions(successor_order=SuccessorOrder.CHEAPEST_TRANSFER)
    ),
    "bnb_cheapest_term": lambda: BranchAndBoundOptimizer(
        BranchAndBoundOptions(successor_order=SuccessorOrder.CHEAPEST_TERM, use_lemma3=False)
    ),
    "bnb_index": lambda: BranchAndBoundOptimizer(
        BranchAndBoundOptions(successor_order=SuccessorOrder.INDEX, use_lemma3=False)
    ),
    "dynamic_programming": lambda: DynamicProgrammingOptimizer(kernel="scalar"),
}

CASES = [
    (family, size, density, name)
    for family in FAMILIES
    for size in SIZES
    for density in PRECEDENCE_DENSITIES
    for name in OPTIMIZERS
]


def _problem(family: str, size: int, density: float):
    spec = WorkloadSpec(
        **FAMILIES[family],
        service_count=size,
        precedence_density=density,
        sink_transfer=Uniform(0.1, 2.0),
        name="golden",
    )
    return generate_problem(spec, seed=SEED)


def _case_id(family: str, size: int, density: float, name: str) -> str:
    return f"{family}-n{size}-prec{density}-{name}"


def _record(family: str, size: int, density: float, name: str) -> dict:
    result = OPTIMIZERS[name]().optimize(_problem(family, size, density))
    stats = result.statistics
    return {
        "order": list(result.plan.order),
        "cost": result.cost,
        "optimal": result.optimal,
        "nodes_expanded": stats.nodes_expanded,
        "plans_evaluated": stats.plans_evaluated,
        "incumbent_updates": stats.incumbent_updates,
        "pruned_by_bound": stats.pruned_by_bound,
        "lemma2_closures": stats.lemma2_closures,
        "lemma3_prunes": stats.lemma3_prunes,
        "dp_states": stats.extra.get("dp_states"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES, ids=[_case_id(*case) for case in CASES])
def test_scalar_search_statistics_match_golden(golden, case):
    # JSON round-trips floats exactly, so the cost comparison is bit-for-bit.
    assert _record(*case) == golden[_case_id(*case)]


if __name__ == "__main__":
    lines = [
        f"{json.dumps(_case_id(*case))}: {json.dumps(_record(*case))}" for case in CASES
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} records to {GOLDEN_PATH}")
