"""Unit tests for the optimizer facade."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import available_algorithms, compare, optimize
from repro.core.optimizer import ALGORITHMS
from repro.core.vector import evaluation_kernel
from repro.exceptions import OptimizationError, SearchLimitExceededError

# Instances and options on which each search, left alone, runs for seconds
# (or far longer); the rest of the registry finishes within milliseconds at
# n = 24 whatever the signal says.
_LONG_RUNS = {
    "exhaustive": (11, {"max_size": 12}),
    "dynamic_programming": (18, {}),
    "branch_and_bound": (
        24,
        {"use_bound_pruning": False, "use_lemma2": False, "use_lemma3": False},
    ),
    "simulated_annealing": (24, {"steps": 10_000_000}),
    "beam_search": (24, {"width": 4096}),
}


class TestFacade:
    def test_available_algorithms_contains_the_paper_algorithm(self):
        names = available_algorithms()
        assert "branch_and_bound" in names
        assert "exhaustive" in names
        assert "srivastava_centralized" in names
        assert len(names) >= 10

    def test_default_algorithm_is_branch_and_bound(self, four_service_problem):
        result = optimize(four_service_problem)
        assert result.algorithm == "branch_and_bound"
        assert result.optimal

    def test_unknown_algorithm_raises(self, four_service_problem):
        with pytest.raises(OptimizationError):
            optimize(four_service_problem, algorithm="quantum_annealer")

    def test_options_are_forwarded(self, four_service_problem):
        result = optimize(four_service_problem, algorithm="branch_and_bound", use_lemma3=False)
        assert result.optimal
        seeded = optimize(four_service_problem, algorithm="random", seed=3)
        assert seeded.order == optimize(four_service_problem, algorithm="random", seed=3).order

    def test_srivastava_rejects_options(self, four_service_problem):
        with pytest.raises(OptimizationError):
            optimize(four_service_problem, algorithm="srivastava_centralized", seed=1)

    def test_exact_algorithms_agree(self, four_service_problem):
        costs = {
            name: optimize(four_service_problem, algorithm=name).cost
            for name in ("branch_and_bound", "exhaustive", "dynamic_programming")
        }
        assert max(costs.values()) == pytest.approx(min(costs.values()))

    def test_compare_runs_selected_algorithms(self, four_service_problem):
        results = compare(
            four_service_problem, algorithms=["branch_and_bound", "greedy_cheapest_cost"]
        )
        assert set(results) == {"branch_and_bound", "greedy_cheapest_cost"}
        assert results["greedy_cheapest_cost"].cost >= results["branch_and_bound"].cost - 1e-9

    def test_compare_defaults_to_every_algorithm(self, three_service_problem):
        results = compare(three_service_problem)
        assert set(results) == set(available_algorithms())
        optimal = results["branch_and_bound"].cost
        for result in results.values():
            assert result.cost >= optimal - 1e-9

    def test_compare_reports_per_algorithm_errors_without_aborting(self, four_service_problem):
        # srivastava_centralized rejects every option and beam_search rejects
        # unknown keywords, but branch_and_bound accepts use_lemma3 — the
        # comparison must still return its result alongside the errors.
        results = compare(
            four_service_problem,
            algorithms=["branch_and_bound", "srivastava_centralized", "beam_search"],
            use_lemma3=True,
        )
        assert set(results) == {"branch_and_bound", "srivastava_centralized", "beam_search"}
        assert results["branch_and_bound"].optimal
        assert isinstance(results["srivastava_centralized"], OptimizationError)
        assert isinstance(results["beam_search"], OptimizationError)

    def test_compare_with_unknown_algorithm_reports_the_error(self, three_service_problem):
        results = compare(three_service_problem, algorithms=["branch_and_bound", "nope"])
        assert results["branch_and_bound"].optimal
        assert isinstance(results["nope"], OptimizationError)


class TestStopSignal:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_a_set_signal_ends_every_search_at_once(self, algorithm, make_resistant_problem):
        size, options = _LONG_RUNS.get(algorithm, (24, {}))
        problem = make_resistant_problem(size)
        evaluation_kernel(problem)  # time the search, not the kernel build
        stop = threading.Event()
        stop.set()
        started = time.perf_counter()
        try:
            optimize(problem, algorithm=algorithm, stop=stop, **options)
        except SearchLimitExceededError:
            pass
        assert time.perf_counter() - started < 0.05

    def test_an_unset_signal_changes_nothing(self, make_random_problem):
        problem = make_random_problem(7, 4)
        for algorithm in ALGORITHMS:
            plain = optimize(problem, algorithm=algorithm)
            signalled = optimize(problem, algorithm=algorithm, stop=threading.Event())
            assert signalled.order == plain.order
            assert signalled.cost == plain.cost
            assert signalled.statistics.nodes_expanded == plain.statistics.nodes_expanded
