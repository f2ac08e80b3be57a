"""Unit tests for complete plans and partial plans (prefixes)."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidPlanError


class TestPlan:
    def test_plan_cost_matches_problem_cost(self, three_service_problem):
        plan = three_service_problem.plan([0, 1, 2])
        assert plan.cost == pytest.approx(three_service_problem.cost([0, 1, 2]))

    def test_service_names_in_order(self, three_service_problem):
        plan = three_service_problem.plan([2, 0, 1])
        assert plan.service_names == ("WS2", "WS0", "WS1")

    def test_str_uses_arrows(self, three_service_problem):
        assert str(three_service_problem.plan([0, 1, 2])) == "WS0 -> WS1 -> WS2"

    def test_position_of(self, three_service_problem):
        plan = three_service_problem.plan([2, 0, 1])
        assert plan.position_of(0) == 1
        assert plan.position_of(2) == 0

    def test_position_of_unknown_service(self, three_service_problem):
        plan = three_service_problem.plan([0, 1, 2])
        with pytest.raises(InvalidPlanError):
            plan.position_of(7)

    def test_describe_marks_bottleneck(self, three_service_problem):
        plan = three_service_problem.plan([0, 1, 2])
        description = plan.describe()
        assert "bottleneck" in description
        assert "WS0" in description

    def test_len_and_iteration(self, three_service_problem):
        plan = three_service_problem.plan([1, 2, 0])
        assert len(plan) == 3
        assert list(plan) == [1, 2, 0]

    def test_bottleneck_stage(self, three_service_problem):
        plan = three_service_problem.plan([0, 1, 2])
        assert plan.bottleneck_stage().position == 0


class TestPartialPlan:
    """Partial plans (the paper's prefixes ``C``) as kernel :class:`PrefixState` objects."""

    def test_empty_plan(self, three_service_problem):
        partial = three_service_problem.evaluator().root()
        assert partial.is_empty
        assert partial.length == 0
        assert partial.epsilon == 0.0
        assert partial.output_rate == 1.0
        assert partial.remaining() == [0, 1, 2]
        assert partial.order == ()

    def test_extend_updates_rates(self, three_service_problem):
        partial = three_service_problem.evaluator().root().extend(0)
        assert partial.order == (0,)
        assert partial.output_rate == pytest.approx(0.5)
        assert partial.rate == 1.0
        # Only the processing part counts while the successor is unknown.
        assert partial.epsilon == pytest.approx(2.0)

    def test_extend_settles_previous_term(self, three_service_problem):
        partial = three_service_problem.evaluator().prefix((0, 1))
        # The term of service 0 is now settled: 2 + 0.5*t(0,1) = 2.5.
        assert partial.epsilon == pytest.approx(2.5)
        assert partial.bottleneck_position == 0

    def test_complete_partial_matches_problem_cost(self, three_service_problem):
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            partial = three_service_problem.evaluator().prefix(order)
            assert partial.is_complete
            assert partial.epsilon == three_service_problem.cost(order)

    def test_epsilon_monotone_under_extension(self, make_random_problem):
        for seed in range(20):
            problem = make_random_problem(6, seed)
            partial = problem.evaluator().root()
            previous = partial.epsilon
            for index in range(6):
                partial = partial.extend(index)
                assert partial.epsilon >= previous
                previous = partial.epsilon

    def test_allowed_extensions_respect_precedence(self, constrained_problem):
        partial = constrained_problem.evaluator().root()
        # Services 2 and 3 are blocked by their predecessors 0 and 1.
        assert partial.allowed_extensions() == [0, 1, 4]
        partial = partial.extend(0)
        assert partial.allowed_extensions() == [1, 2, 4]

    def test_sink_transfer_included_only_in_final_term(self, three_service_problem):
        problem = three_service_problem.with_sink_transfer([0.0, 0.0, 10.0])
        partial = problem.evaluator().prefix((0, 1, 2))
        assert partial.epsilon == problem.cost((0, 1, 2))
        # With the expensive sink hop on service 2 the final term dominates:
        # 0.45 * (4 + 0.3 * 10) = 3.15 > 2.5.
        assert partial.epsilon == pytest.approx(3.15)
