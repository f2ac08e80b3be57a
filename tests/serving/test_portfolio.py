"""Tests of deadline-budgeted portfolio optimization."""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.core import OptimizationResult, optimize
from repro.core.optimizer import ALGORITHMS
from repro.exceptions import ServingError
from repro.obs.trace import activate_trace
from repro.serving import PortfolioOptimizer, PortfolioOptions, run_portfolio


class TestOptions:
    def test_empty_portfolio_rejected(self):
        with pytest.raises(ServingError):
            PortfolioOptions(algorithms=())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ServingError):
            PortfolioOptions(algorithms=("branch_and_bound", "quantum_annealer"))

    def test_negative_budget_rejected(self):
        with pytest.raises(ServingError):
            PortfolioOptions(budget_seconds=-1.0)

    def test_duplicate_members_rejected(self):
        # Race results are keyed by member name; a duplicate would run the
        # same work twice and overwrite its twin's outcome.
        with pytest.raises(ServingError):
            PortfolioOptions(algorithms=("greedy_min_term", "exhaustive", "exhaustive"))


class TestRace:
    def test_best_result_is_at_least_as_good_as_every_member(self, four_service_problem):
        race = run_portfolio(four_service_problem, PortfolioOptions(budget_seconds=None))
        members = {"greedy_min_term", "beam_search", "branch_and_bound"}
        assert "greedy_min_term" in race.results
        # The race ends at the first proof: every member that had not
        # finished by then was stopped, none timed out or failed.
        assert set(race.stopped) == members - set(race.results)
        assert not race.timed_out and not race.errors
        for result in race.results.values():
            assert race.best.cost <= result.cost + 1e-9
        assert race.best.optimal  # some exact member completed and proved it

    def test_the_first_proof_ends_the_race(self, make_random_problem, monkeypatch):
        problem = make_random_problem(24, 3)
        beam_calls = []
        beam = ALGORITHMS["beam_search"]

        def tracked(problem, **options):
            beam_calls.append(problem)
            return beam(problem, **options)

        monkeypatch.setitem(ALGORITHMS, "beam_search", tracked)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "branch_and_bound", "beam_search"),
            budget_seconds=None,
            # Seconds of beam work; branch-and-bound proves in milliseconds.
            algorithm_options={"beam_search": {"width": 4096}},
        )
        race = run_portfolio(problem, options)
        assert race.best.algorithm == "branch_and_bound" and race.best.optimal
        # "stopped" means skipped: a member after the proof never starts.
        assert race.stopped == ("beam_search",)
        assert beam_calls == []
        assert "beam_search" not in race.results
        assert not race.timed_out

    @pytest.mark.parametrize("size", [8, 12, 16, 20, 24])
    def test_the_default_ladder_answers_with_the_proof(self, make_random_problem, size):
        for seed in range(2):
            problem = make_random_problem(size, seed)
            race = run_portfolio(problem, PortfolioOptions(budget_seconds=None))
            exact = optimize(problem, "branch_and_bound")
            assert race.best.cost == exact.cost
            assert race.best.optimal
            assert race.stopped == ("beam_search",)

    def test_a_race_starts_no_thread_and_nests_member_spans(self, make_random_problem):
        problem = make_random_problem(24, 1)
        before = set(threading.enumerate())
        with activate_trace() as active:
            race = run_portfolio(problem, PortfolioOptions(budget_seconds=1.0))
        assert set(threading.enumerate()) <= before
        assert race.best.optimal
        [race_span] = [span for span in active.spans if span.name == "portfolio.race"]
        members = [span for span in active.spans if span.name == "portfolio.member"]
        assert [span.annotations["algorithm"] for span in members] == [
            "greedy_min_term",
            "branch_and_bound",
        ]
        assert all(span.parent_id == race_span.span_id for span in members)

    def test_a_proof_cut_by_the_deadline_hands_back_its_incumbent(
        self, make_resistant_problem
    ):
        """Without pruning, branch-and-bound enumerates all 24! orders; cut at
        its half of the budget, it still yields its incumbent."""
        problem = make_resistant_problem(24, 1)
        optimize(problem, "greedy_min_term")  # builds the evaluator outside the race
        options = PortfolioOptions(
            budget_seconds=0.05,
            algorithm_options={
                "branch_and_bound": {
                    "use_bound_pruning": False,
                    "use_lemma2": False,
                    "use_lemma3": False,
                }
            },
        )
        race = run_portfolio(problem, options)
        assert "branch_and_bound" in race.timed_out
        assert "branch_and_bound" not in race.errors
        incumbent = race.results["branch_and_bound"]
        assert not incumbent.optimal
        problem.validate_plan(incumbent.order)
        assert incumbent.cost <= incumbent.statistics.extra["seed_cost"]
        assert not race.best.optimal and race.best.cost <= incumbent.cost

    def test_a_proof_cut_by_its_node_limit_is_an_error_with_a_result(
        self, make_resistant_problem
    ):
        problem = make_resistant_problem(24, 0)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "branch_and_bound"),
            budget_seconds=None,
            algorithm_options={"branch_and_bound": {"node_limit": 5}},
        )
        race = run_portfolio(problem, options)
        assert "node limit" in race.errors["branch_and_bound"]
        assert not race.timed_out
        assert not race.results["branch_and_bound"].optimal

    def test_cost_ties_go_to_the_earlier_ladder_member(self, four_service_problem, monkeypatch):
        optimum = optimize(four_service_problem, algorithm="exhaustive").order
        worst = max(itertools.permutations(range(4)), key=four_service_problem.cost)

        def member(name, delay, order):
            def runner(problem, **options):
                time.sleep(delay)
                plan = problem.plan(order)
                return OptimizationResult(plan=plan, cost=plan.cost, algorithm=name, optimal=False)

            return runner

        # Both later members return the optimal plan without proving it, so
        # both run; the earlier one also takes longer.
        monkeypatch.setitem(ALGORITHMS, "worse_seed", member("worse_seed", 0.0, worst))
        monkeypatch.setitem(ALGORITHMS, "early_member", member("early_member", 0.2, optimum))
        monkeypatch.setitem(ALGORITHMS, "late_member", member("late_member", 0.0, optimum))
        options = PortfolioOptions(
            algorithms=("worse_seed", "early_member", "late_member"), budget_seconds=None
        )
        race = run_portfolio(four_service_problem, options)
        assert race.results["early_member"].cost == race.results["late_member"].cost
        assert race.best.algorithm == "early_member"

    def test_zero_budget_still_returns_the_anytime_seed(self, four_service_problem):
        race = run_portfolio(four_service_problem, PortfolioOptions(budget_seconds=0.0))
        greedy = optimize(four_service_problem, algorithm="greedy_min_term")
        assert race.best.cost <= greedy.cost + 1e-9
        assert "greedy_min_term" in race.results

    def test_deadline_is_respected(self, four_service_problem, monkeypatch):
        slow_calls = []

        def slow_runner(problem, **options):
            slow_calls.append(problem)
            time.sleep(2.0)
            return optimize(problem, algorithm="exhaustive")

        monkeypatch.setitem(ALGORITHMS, "slow_exact", slow_runner)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "slow_exact"), budget_seconds=0.1
        )
        started = time.perf_counter()
        race = run_portfolio(four_service_problem, options)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, "the race must return at the budget, not wait for stragglers"
        assert race.timed_out == ("slow_exact",)
        assert "slow_exact" not in race.results
        assert race.best.algorithm == "greedy_min_term"

    def test_member_errors_are_recorded_not_fatal(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=None,
            algorithm_options={"exhaustive": {"max_size": 2}},
        )
        race = run_portfolio(four_service_problem, options)
        assert "exhaustive" in race.errors
        assert race.best.algorithm == "greedy_min_term"

    def test_invalid_member_options_are_recorded_not_raised(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "beam_search"),
            budget_seconds=None,
            algorithm_options={"beam_search": {"bogus_option": 1}},
        )
        race = run_portfolio(four_service_problem, options)
        assert "beam_search" in race.errors
        assert "bogus_option" in race.errors["beam_search"]
        assert race.best.algorithm == "greedy_min_term"

    def test_per_algorithm_options_are_forwarded(self, four_service_problem):
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "beam_search"),
            budget_seconds=None,
            algorithm_options={"beam_search": {"width": 1}},
        )
        race = run_portfolio(four_service_problem, options)
        assert "beam_search" in race.results

    def test_refinement_is_nonnegative(self, four_service_problem):
        race = run_portfolio(four_service_problem, PortfolioOptions(budget_seconds=None))
        assert race.refinement >= 0.0
        assert race.elapsed_seconds >= 0.0


class TestLifecycle:
    def test_closed_optimizer_rejects_new_races(self, four_service_problem):
        portfolio = PortfolioOptimizer(PortfolioOptions(budget_seconds=None))
        portfolio.close()
        with pytest.raises(ServingError):
            portfolio.optimize(four_service_problem)

    def test_context_manager_closes(self, four_service_problem):
        with PortfolioOptimizer(PortfolioOptions(budget_seconds=None)) as portfolio:
            race = portfolio.optimize(four_service_problem)
            assert race.best.cost > 0
        with pytest.raises(ServingError):
            portfolio.optimize(four_service_problem)

    def test_one_optimizer_serves_successive_races(
        self, four_service_problem, three_service_problem
    ):
        with PortfolioOptimizer(PortfolioOptions(budget_seconds=None)) as portfolio:
            first = portfolio.optimize(four_service_problem)
            second = portfolio.optimize(three_service_problem)
            assert first.best.plan.problem is four_service_problem
            assert second.best.plan.problem is three_service_problem

    def test_close_ends_a_race_in_flight(self, make_resistant_problem):
        problem = make_resistant_problem(12, 0)
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=None,
            algorithm_options={"exhaustive": {"max_size": 12}},
        )
        portfolio = PortfolioOptimizer(options)
        closer = threading.Timer(0.2, portfolio.close)
        closer.start()
        started = time.perf_counter()
        race = portfolio.optimize(problem)
        closer.join()
        assert time.perf_counter() - started < 2.0
        assert "exhaustive" in race.errors and not race.timed_out
        assert race.best.algorithm == "greedy_min_term"


class TestStopSignal:
    def test_over_budget_exact_member_is_terminated_at_the_deadline(
        self, make_resistant_problem
    ):
        """An over-size exhaustive member (11! plans, minutes of work) costs
        the race its budget, on the caller's own thread."""
        problem = make_resistant_problem(11)
        budget = 0.5
        options = PortfolioOptions(
            algorithms=("greedy_min_term", "exhaustive"),
            budget_seconds=budget,
            # Lift the size guard so exhaustive really starts chewing.
            algorithm_options={"exhaustive": {"max_size": 12}},
        )
        before = set(threading.enumerate())
        started = time.perf_counter()
        race = run_portfolio(problem, options)
        assert time.perf_counter() - started < budget + 1.0
        assert race.timed_out == ("exhaustive",)
        assert race.best.algorithm == "greedy_min_term"
        problem.validate_plan(race.best.order)
        assert set(threading.enumerate()) <= before, "members run on the caller's thread"
