"""A single entry point over every optimizer in the library.

``optimize(problem, algorithm="branch_and_bound")`` hides the individual
optimizer classes behind one function, which the examples, the query planner
and the experiment harness use.  The registry also powers the comparison
helper :func:`compare`, which runs several algorithms on the same problem and
returns their results side by side (the core of experiment E4).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from repro.core.beam_search import BeamSearchOptimizer
from repro.core.branch_and_bound import BranchAndBoundOptimizer, BranchAndBoundOptions
from repro.core.dynamic_programming import DynamicProgrammingOptimizer
from repro.core.exhaustive import ExhaustiveOptimizer
from repro.core.greedy import GreedyOptimizer, GreedyStrategy
from repro.core.local_search import (
    HillClimbingOptimizer,
    SimulatedAnnealingOptimizer,
    SimulatedAnnealingOptions,
)
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.core.srivastava import SrivastavaOptimizer
from repro.exceptions import OptimizationError

__all__ = ["ALGORITHMS", "optimize", "compare", "available_algorithms"]


def _run_branch_and_bound(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    configured = BranchAndBoundOptions(**options) if options else BranchAndBoundOptions()
    return BranchAndBoundOptimizer(configured).optimize(problem, stop=stop)


def _run_exhaustive(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    return ExhaustiveOptimizer(**options).optimize(problem, stop=stop)


def _run_dynamic_programming(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    return DynamicProgrammingOptimizer(**options).optimize(problem, stop=stop)


def _run_greedy(strategy: str) -> Callable[..., OptimizationResult]:
    # O(n²) constructions finish long before a stop signal could matter.
    def runner(
        problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
    ) -> OptimizationResult:
        return GreedyOptimizer(strategy, **options).optimize(problem)

    return runner


def _run_beam_search(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    return BeamSearchOptimizer(**options).optimize(problem, stop=stop)


def _run_hill_climbing(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    return HillClimbingOptimizer(**options).optimize(problem, stop=stop)


def _run_simulated_annealing(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    configured = SimulatedAnnealingOptions(**options) if options else SimulatedAnnealingOptions()
    return SimulatedAnnealingOptimizer(configured).optimize(problem, stop=stop)


def _run_srivastava(
    problem: OrderingProblem, *, stop: threading.Event | None = None, **options: object
) -> OptimizationResult:
    if options:
        raise OptimizationError(f"the centralized baseline takes no options, got {options!r}")
    return SrivastavaOptimizer().optimize(problem)


ALGORITHMS: Mapping[str, Callable[..., OptimizationResult]] = {
    "branch_and_bound": _run_branch_and_bound,
    "exhaustive": _run_exhaustive,
    "dynamic_programming": _run_dynamic_programming,
    "greedy_nearest_successor": _run_greedy(GreedyStrategy.NEAREST_SUCCESSOR),
    "greedy_cheapest_cost": _run_greedy(GreedyStrategy.CHEAPEST_COST),
    "greedy_most_selective": _run_greedy(GreedyStrategy.MOST_SELECTIVE),
    "greedy_min_term": _run_greedy(GreedyStrategy.MIN_TERM),
    "random": _run_greedy(GreedyStrategy.RANDOM),
    "beam_search": _run_beam_search,
    "hill_climbing": _run_hill_climbing,
    "simulated_annealing": _run_simulated_annealing,
    "srivastava_centralized": _run_srivastava,
}
"""Registry mapping algorithm names to runner callables.

A runner is called as ``runner(problem, stop=stop, **options)``."""


def available_algorithms() -> list[str]:
    """Names accepted by :func:`optimize`, in a stable order."""
    return list(ALGORITHMS)


def optimize(
    problem: OrderingProblem,
    algorithm: str = "branch_and_bound",
    *,
    stop: threading.Event | None = None,
    **options: object,
) -> OptimizationResult:
    """Optimize ``problem`` with the named algorithm.

    Parameters
    ----------
    problem:
        The ordering problem to solve.
    algorithm:
        One of :func:`available_algorithms`; defaults to the paper's
        branch-and-bound optimizer.
    options:
        Forwarded to the selected optimizer (e.g. ``use_lemma3=False`` for
        branch-and-bound, ``seed=3`` for the randomized heuristics).
    stop:
        A cooperative stop signal: once it is set, every search loop raises
        :class:`~repro.exceptions.SearchLimitExceededError` at its next check
        (the O(n²) greedy and centralized constructions simply finish).
        Without a signal every search runs exactly as before.
    """
    try:
        runner = ALGORITHMS[algorithm]
    except KeyError:
        raise OptimizationError(
            f"unknown algorithm {algorithm!r}; available: {', '.join(ALGORITHMS)}"
        ) from None
    return runner(problem, stop=stop, **options)


def compare(
    problem: OrderingProblem,
    algorithms: list[str] | None = None,
    **shared_options: object,
) -> dict[str, OptimizationResult | OptimizationError]:
    """Run several algorithms on the same problem and collect their results.

    ``shared_options`` are passed to every algorithm that accepts them;
    algorithms rejecting an option (or failing outright) are reported as
    :class:`~repro.exceptions.OptimizationError` values in the mapping rather
    than aborting the whole comparison, so one bad option never hides the
    results of the algorithms that did run.
    """
    selected = algorithms if algorithms is not None else list(ALGORITHMS)
    results: dict[str, OptimizationResult | OptimizationError] = {}
    for name in selected:
        try:
            results[name] = optimize(problem, algorithm=name, **shared_options)
        except OptimizationError as error:
            results[name] = error
        except TypeError as error:
            results[name] = OptimizationError(f"{name} rejected the options: {error}")
    return results
