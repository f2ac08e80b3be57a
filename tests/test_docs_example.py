"""Keeps the worked example in ``docs/ALGORITHM.md`` consistent with the code.

If any of these assertions fails, the numbers in the documentation no longer
describe what the library computes and the document must be updated.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.core import (
    CommunicationCostMatrix,
    OrderingProblem,
    branch_and_bound,
    exhaustive_search,
)
from repro.core.bounds import max_residual_cost


@pytest.fixture
def documented_problem() -> OrderingProblem:
    """The four-service, two-site instance used in docs/ALGORITHM.md §4."""
    return OrderingProblem.from_parameters(
        costs=[1.0, 2.0, 0.5, 3.0],
        selectivities=[0.5, 0.8, 0.9, 0.4],
        transfer=CommunicationCostMatrix(
            [
                [0.0, 0.5, 4.0, 4.0],
                [0.5, 0.0, 4.0, 4.0],
                [4.0, 4.0, 0.0, 0.5],
                [4.0, 4.0, 0.5, 0.0],
            ]
        ),
        names=["A", "B", "C", "D"],
    )


class TestWorkedExample:
    def test_prefix_measures(self, documented_problem):
        prefix_a = documented_problem.evaluator().prefix((0,))
        assert prefix_a.epsilon == pytest.approx(1.0)
        assert max_residual_cost(prefix_a).value == pytest.approx(3.0)

        prefix_ab = documented_problem.evaluator().prefix((0, 1))
        assert prefix_ab.epsilon == pytest.approx(1.25)
        assert max_residual_cost(prefix_ab).value == pytest.approx(2.6)

        prefix_abc = documented_problem.evaluator().prefix((0, 1, 2))
        assert prefix_abc.epsilon == pytest.approx(2.6)
        assert prefix_abc.bottleneck_position == 1  # service B
        assert max_residual_cost(prefix_abc).value == pytest.approx(1.08)
        # Lemma 2 applies: every completion of (A, B, C) costs exactly 2.6.
        assert documented_problem.cost((0, 1, 2, 3)) == pytest.approx(2.6)

    def test_optimal_and_worst_plans(self, documented_problem):
        result = branch_and_bound(documented_problem)
        assert result.plan.service_names == ("B", "A", "C", "D")
        assert result.cost == pytest.approx(2.4)
        assert result.cost == pytest.approx(exhaustive_search(documented_problem).cost)
        worst = max(
            documented_problem.cost(order) for order in permutations(range(4))
        )
        assert worst == pytest.approx(5.2)

    def test_search_effort_as_documented(self, documented_problem):
        stats = branch_and_bound(documented_problem).statistics
        assert stats.nodes_expanded == 17
        assert stats.lemma2_closures == 1
        assert stats.lemma3_prunes == 1
        assert stats.incumbent_updates == 1
        assert stats.extra["seed_cost"] == pytest.approx(2.6)
