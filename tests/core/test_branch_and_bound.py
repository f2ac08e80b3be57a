"""Unit and integration tests for the branch-and-bound optimizer."""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    BranchAndBoundOptimizer,
    BranchAndBoundOptions,
    SuccessorOrder,
    branch_and_bound,
    exhaustive_search,
)
from repro.core.dynamic_programming import DynamicProgrammingOptimizer
from repro.exceptions import OptimizationError, SearchLimitExceededError


class TestOptions:
    def test_defaults_reproduce_paper_algorithm(self):
        options = BranchAndBoundOptions()
        assert options.use_bound_pruning and options.use_lemma2 and options.use_lemma3
        assert options.successor_order == SuccessorOrder.CHEAPEST_TRANSFER

    def test_lemma3_requires_lemma2(self):
        with pytest.raises(ValueError):
            BranchAndBoundOptions(use_lemma2=False, use_lemma3=True)

    def test_lemma3_requires_cheapest_transfer_order(self):
        with pytest.raises(ValueError):
            BranchAndBoundOptions(use_lemma3=True, successor_order=SuccessorOrder.INDEX)

    def test_unknown_successor_order_rejected(self):
        with pytest.raises(ValueError):
            BranchAndBoundOptions(successor_order="bogus")

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            BranchAndBoundOptions(node_limit=0)


class TestCorrectness:
    def test_two_services_hand_checked(self, two_service_problem):
        result = branch_and_bound(two_service_problem)
        assert result.order == (0, 1)
        assert result.cost == pytest.approx(2.5)
        assert result.optimal

    def test_matches_exhaustive_on_fixtures(
        self, three_service_problem, four_service_problem, proliferative_problem
    ):
        for problem in (three_service_problem, four_service_problem, proliferative_problem):
            assert branch_and_bound(problem).cost == pytest.approx(exhaustive_search(problem).cost)

    def test_matches_exhaustive_on_random_instances(self, make_random_problem):
        for seed in range(30):
            problem = make_random_problem(6, seed)
            assert branch_and_bound(problem).cost == pytest.approx(
                exhaustive_search(problem).cost
            )

    def test_matches_exhaustive_with_proliferative_services(self, make_random_problem):
        for seed in range(20):
            problem = make_random_problem(6, seed, selectivity_range=(0.3, 2.5))
            assert branch_and_bound(problem).cost == pytest.approx(
                exhaustive_search(problem).cost
            )

    def test_matches_exhaustive_with_precedence(self, constrained_problem):
        assert branch_and_bound(constrained_problem).cost == pytest.approx(
            exhaustive_search(constrained_problem).cost
        )

    def test_matches_exhaustive_with_sink_transfer(self, make_random_problem):
        for seed in range(10):
            problem = make_random_problem(5, seed).with_sink_transfer([0.5 * seed, 1.0, 2.0, 0.0, 3.0])
            assert branch_and_bound(problem).cost == pytest.approx(
                exhaustive_search(problem).cost
            )

    def test_every_rule_combination_is_optimal(self, make_random_problem):
        configurations = [
            BranchAndBoundOptions(),
            BranchAndBoundOptions(use_lemma3=False),
            BranchAndBoundOptions(use_lemma2=False, use_lemma3=False),
            BranchAndBoundOptions(use_bound_pruning=False, use_lemma2=False, use_lemma3=False),
            BranchAndBoundOptions(seed_incumbent=False),
            BranchAndBoundOptions(
                use_lemma2=False, use_lemma3=False, successor_order=SuccessorOrder.INDEX
            ),
            BranchAndBoundOptions(
                use_lemma2=True, use_lemma3=False, successor_order=SuccessorOrder.CHEAPEST_TERM
            ),
        ]
        for seed in range(10):
            problem = make_random_problem(6, seed, selectivity_range=(0.2, 1.6))
            reference = exhaustive_search(problem).cost
            for options in configurations:
                assert branch_and_bound(problem, options).cost == pytest.approx(reference)

    def test_single_service_problem(self, make_random_problem):
        problem = make_random_problem(1, 3)
        result = branch_and_bound(problem)
        assert result.order == (0,)
        assert result.cost == pytest.approx(problem.cost((0,)))

    def test_plan_is_valid_permutation(self, make_random_problem):
        problem = make_random_problem(7, 99)
        result = branch_and_bound(problem)
        assert sorted(result.order) == list(range(7))

    def test_credit_card_scenario_prefers_cheap_local_hops(self, credit_card_problem):
        result = branch_and_bound(credit_card_problem)
        assert result.cost == pytest.approx(exhaustive_search(credit_card_problem).cost)

    def test_document_scenario_respects_precedence(self, document_problem):
        result = branch_and_bound(document_problem)
        order = result.order
        decrypt = document_problem.service_index("decrypt")
        assert order.index(decrypt) < order.index(document_problem.service_index("pii_scrubber"))
        assert order.index(decrypt) < order.index(
            document_problem.service_index("content_classifier")
        )


class TestStatisticsAndLimits:
    def test_statistics_are_populated(self, four_service_problem):
        result = branch_and_bound(four_service_problem)
        stats = result.statistics
        assert stats.nodes_expanded > 0
        assert stats.elapsed_seconds >= 0.0
        assert "seed_cost" in stats.extra

    def test_pruning_reduces_explored_nodes(self, make_random_problem):
        totals = {"full": 0, "stripped": 0}
        for seed in range(8):
            problem = make_random_problem(7, seed, cost_range=(0.0, 1.0), transfer_range=(0.0, 3.0))
            totals["full"] += branch_and_bound(problem).statistics.nodes_expanded
            stripped = BranchAndBoundOptions(
                use_lemma2=False, use_lemma3=False, successor_order=SuccessorOrder.INDEX
            )
            totals["stripped"] += branch_and_bound(problem, stripped).statistics.nodes_expanded
        assert totals["full"] < totals["stripped"]

    def test_node_limit_enforced(self, make_random_problem):
        problem = make_random_problem(8, 5, cost_range=(0.0, 0.2), selectivity_range=(0.9, 1.0))
        options = BranchAndBoundOptions(node_limit=3, seed_incumbent=False)
        with pytest.raises(SearchLimitExceededError):
            BranchAndBoundOptimizer(options).optimize(problem)

    def test_node_limit_hands_back_the_incumbent(self, make_resistant_problem):
        problem = make_resistant_problem(12, 0)
        options = BranchAndBoundOptions(node_limit=50)
        with pytest.raises(SearchLimitExceededError) as raised:
            BranchAndBoundOptimizer(options).optimize(problem)
        incumbent = raised.value.incumbent
        assert incumbent is not None and not incumbent.optimal
        assert incumbent.algorithm == "branch_and_bound"
        assert incumbent.cost == problem.cost(incumbent.order)
        seed = incumbent.statistics.extra["seed_cost"]
        assert incumbent.cost <= seed

    def test_a_stopped_search_hands_back_at_least_the_greedy_seed(self, make_random_problem):
        problem = make_random_problem(10, 2)
        stop = threading.Event()
        stop.set()
        with pytest.raises(SearchLimitExceededError) as raised:
            BranchAndBoundOptimizer().optimize(problem, stop=stop)
        incumbent = raised.value.incumbent
        assert incumbent is not None and not incumbent.optimal
        assert incumbent.cost == incumbent.statistics.extra["seed_cost"]

    def test_without_a_plan_there_is_no_incumbent(self, make_random_problem):
        problem = make_random_problem(8, 5)
        options = BranchAndBoundOptions(node_limit=1, seed_incumbent=False)
        with pytest.raises(SearchLimitExceededError) as raised:
            BranchAndBoundOptimizer(options).optimize(problem)
        assert raised.value.incumbent is None

    def test_lemma2_closures_counted(self, make_random_problem):
        closures = 0
        for seed in range(10):
            problem = make_random_problem(6, seed)
            closures += branch_and_bound(problem).statistics.lemma2_closures
        assert closures >= 0  # counter exists; positive on most workloads

    def test_infeasible_constraints_surface_as_error(self, three_service_problem):
        # A precedence graph over a different size is rejected at problem build
        # time, so simulate infeasibility via a node limit of zero instead.
        with pytest.raises(ValueError):
            BranchAndBoundOptions(node_limit=-1)

    def test_convenience_wrapper_accepts_overrides(self, four_service_problem):
        result = branch_and_bound(four_service_problem, use_lemma3=False)
        assert result.optimal


class TestAgreesWithDynamicProgramming:
    """Branch-and-bound and the subset DP are independent exact searches."""

    @staticmethod
    def _assert_same_optimum(problem, **overrides):
        result = BranchAndBoundOptimizer(BranchAndBoundOptions(**overrides)).optimize(problem)
        exact = DynamicProgrammingOptimizer(kernel="scalar").optimize(problem)
        assert result.optimal
        assert result.cost == pytest.approx(exact.cost)
        problem.validate_plan(result.plan.order)

    def test_cheapest_transfer_finds_the_dp_optimum(self, make_random_problem):
        for seed in range(6):
            self._assert_same_optimum(make_random_problem(9, seed))

    def test_cheapest_term_finds_the_dp_optimum(self, make_random_problem):
        for seed in range(6):
            self._assert_same_optimum(
                make_random_problem(8, seed),
                successor_order=SuccessorOrder.CHEAPEST_TERM,
                use_lemma3=False,
            )

    def test_finds_the_dp_optimum_under_precedence_constraints(self, constrained_problem):
        self._assert_same_optimum(constrained_problem)
