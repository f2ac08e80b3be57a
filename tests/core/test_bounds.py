"""Unit tests for the epsilon-bar residual bound (Lemma 2's ingredient)."""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.core import epsilon_bar, initial_upper_bound, max_residual_cost


class TestResidualBound:
    def test_bound_is_zero_for_complete_plans(self, three_service_problem):
        partial = three_service_problem.evaluator().prefix((0, 1, 2))
        assert epsilon_bar(partial) == 0.0

    def test_bound_covers_every_completion(self, make_random_problem):
        """epsilon-bar upper-bounds the cost contribution of every not-yet-placed service."""
        for seed in range(15):
            problem = make_random_problem(5, seed)
            for prefix_length in range(1, 5):
                prefix = tuple(range(prefix_length))
                partial = problem.evaluator().prefix(prefix)
                bound = max(partial.epsilon, epsilon_bar(partial))
                remaining = [index for index in range(5) if index not in prefix]
                for completion in permutations(remaining):
                    cost = problem.cost(prefix + completion)
                    assert cost <= bound + 1e-9

    def test_bound_covers_completions_with_proliferative_services(self, make_random_problem):
        """The sigma > 1 modification keeps the bound valid."""
        for seed in range(15):
            problem = make_random_problem(5, seed, selectivity_range=(0.3, 2.0))
            prefix = (0, 1)
            partial = problem.evaluator().prefix(prefix)
            bound = max(partial.epsilon, epsilon_bar(partial))
            remaining = [index for index in range(5) if index not in prefix]
            for completion in permutations(remaining):
                cost = problem.cost(prefix + completion)
                assert cost <= bound + 1e-9

    def test_lemma2_closure_costs_are_exact(self, make_random_problem):
        """When epsilon >= epsilon-bar, every completion costs exactly epsilon (Lemma 2)."""
        closures_checked = 0
        for seed in range(40):
            problem = make_random_problem(5, seed)
            for prefix in permutations(range(5), 3):
                partial = problem.evaluator().prefix(prefix)
                if partial.epsilon < epsilon_bar(partial):
                    continue
                closures_checked += 1
                remaining = [index for index in range(5) if index not in prefix]
                for completion in permutations(remaining):
                    cost = problem.cost(prefix + completion)
                    assert cost == pytest.approx(partial.epsilon)
        assert closures_checked > 0, "the workload never triggered a Lemma-2 closure"

    def test_attribution_of_critical_service(self, three_service_problem):
        partial = three_service_problem.evaluator().prefix((1,))
        residual = max_residual_cost(partial)
        assert residual.value >= residual.last_service_bound
        assert residual.critical_service in (None, 0, 2)

    def test_last_service_bound_uses_worst_outgoing_transfer(self, three_service_problem):
        partial = three_service_problem.evaluator().prefix((0,))
        residual = max_residual_cost(partial)
        # Worst outgoing transfer of WS0 to {WS1, WS2} is t(0,2)=5: bound = 2 + 0.5*5 = 4.5.
        assert residual.last_service_bound == pytest.approx(4.5)

    def test_initial_upper_bound_dominates_every_plan(self, make_random_problem):
        for seed in range(10):
            problem = make_random_problem(5, seed, selectivity_range=(0.2, 1.8))
            bound = initial_upper_bound(problem)
            for order in permutations(range(5)):
                assert problem.cost(order) <= bound + 1e-9

    def test_sink_transfer_participates_in_bound(self, three_service_problem):
        problem = three_service_problem.with_sink_transfer([100.0, 100.0, 100.0])
        partial = problem.evaluator().prefix((0,))
        # Any remaining service could end up last and pay the huge sink hop,
        # so the bound must exceed it.
        assert epsilon_bar(partial) >= 0.5 * min(problem.costs[1:])  # sanity
        assert epsilon_bar(partial) >= 0.5 * (problem.costs[1] + problem.selectivities[1] * 100.0) - 1e-9
