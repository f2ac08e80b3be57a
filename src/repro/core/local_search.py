"""Local-search heuristics: hill climbing and simulated annealing.

These metaheuristics serve two purposes in the reproduction:

* additional baselines for experiment E4 (they often come close to the optimum
  but cannot certify it, unlike the branch-and-bound algorithm), and
* a quality upper bound for instances too large for any exact method.

Both operate on complete plans and explore *swap* (exchange two positions) and
*relocate/insert* (move one service to another position) neighbourhoods,
rejecting neighbours that violate precedence constraints.

Hill climbing scores the start with
:meth:`~repro.core.evaluation.PlanEvaluator.cost`, then takes the steepest
improving swap/relocate move
(:meth:`~repro.core.evaluation.PlanEvaluator.best_neighbor`, a delta
evaluation scan with the running best as the incumbent bound) until there is
none.  Simulated annealing uses the
:class:`~repro.core.evaluation.NeighborhoodEvaluator` directly: its seeded
trajectory scores one sequentially-drawn proposal at a time.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

from repro.core.greedy import GreedyOptimizer, GreedyStrategy
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.exceptions import SearchLimitExceededError
from repro.utils.timing import Stopwatch

__all__ = [
    "HillClimbingOptimizer",
    "SimulatedAnnealingOptimizer",
    "SimulatedAnnealingOptions",
    "hill_climbing",
    "simulated_annealing",
]


def _initial_order(problem: OrderingProblem, seed: int) -> tuple[int, ...]:
    """A feasible starting plan: the best of the deterministic greedy strategies."""
    best_order: tuple[int, ...] | None = None
    best_cost = float("inf")
    for strategy in (
        GreedyStrategy.NEAREST_SUCCESSOR,
        GreedyStrategy.CHEAPEST_COST,
        GreedyStrategy.MIN_TERM,
    ):
        result = GreedyOptimizer(strategy, seed=seed).optimize(problem)
        if result.cost < best_cost:
            best_cost = result.cost
            best_order = result.plan.order
    assert best_order is not None
    return best_order


class HillClimbingOptimizer:
    """Steepest-descent local search over swap/relocate neighbourhoods."""

    name = "hill_climbing"

    def __init__(self, max_iterations: int = 1000, seed: int = 0) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        self.max_iterations = max_iterations
        self.seed = seed

    def optimize(
        self, problem: OrderingProblem, stop: threading.Event | None = None
    ) -> OptimizationResult:
        """Improve a greedy plan until no neighbour is better (or iterations run out).

        ``stop`` is checked once per step; once it is set the search raises
        :class:`~repro.exceptions.SearchLimitExceededError`.
        """
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        evaluator = problem.evaluator()
        current = _initial_order(problem, self.seed)
        current_cost = evaluator.cost(current)
        stats.plans_evaluated += 1
        for _ in range(self.max_iterations):
            if stop is not None and stop.is_set():
                raise SearchLimitExceededError("hill climbing was stopped")
            stats.nodes_expanded += 1
            neighbour, cost, evaluated = evaluator.best_neighbor(current, current_cost)
            stats.plans_evaluated += evaluated
            if neighbour is None:
                break
            current = neighbour
            current_cost = cost
            stats.incumbent_updates += 1
        stats.elapsed_seconds = stopwatch.stop()
        plan = problem.plan(current)
        return OptimizationResult(
            plan=plan, cost=plan.cost, algorithm=self.name, optimal=False, statistics=stats
        )


@dataclass(frozen=True)
class SimulatedAnnealingOptions:
    """Annealing schedule parameters."""

    initial_temperature: float = 1.0
    """Starting temperature, relative to the initial plan cost."""

    cooling: float = 0.995
    """Multiplicative cooling factor per step (must lie in (0, 1))."""

    steps: int = 5000
    """Number of proposal steps."""

    seed: int = 0
    """Seed of the proposal/acceptance random stream."""

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must lie strictly between 0 and 1")
        if self.steps < 1:
            raise ValueError("steps must be positive")


class SimulatedAnnealingOptimizer:
    """Simulated annealing over the swap/relocate neighbourhood.

    Proposals are scored by kernel delta evaluation (exact, so the Metropolis
    acceptance decisions — and hence the whole seeded trajectory — match a
    from-scratch implementation bit for bit); the neighbourhood tables are
    rebuilt only when a proposal is accepted.
    """

    name = "simulated_annealing"

    def __init__(self, options: SimulatedAnnealingOptions | None = None) -> None:
        self.options = options if options is not None else SimulatedAnnealingOptions()

    def optimize(
        self, problem: OrderingProblem, stop: threading.Event | None = None
    ) -> OptimizationResult:
        """Anneal from a greedy plan; returns the best plan seen.

        ``stop`` is checked once per step; once it is set the search raises
        :class:`~repro.exceptions.SearchLimitExceededError`.
        """
        options = self.options
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        rng = random.Random(options.seed)
        evaluator = problem.evaluator()

        current = _initial_order(problem, options.seed)
        neighborhood = evaluator.neighborhood(current)
        current_cost = neighborhood.cost
        best = current
        best_cost = current_cost
        stats.plans_evaluated += 1
        size = len(current)

        temperature = options.initial_temperature * max(current_cost, 1e-12)
        for _ in range(options.steps):
            if stop is not None and stop.is_set():
                raise SearchLimitExceededError("simulated annealing was stopped")
            stats.nodes_expanded += 1
            if size < 2:
                proposal = current
                cost = current_cost
                is_swap, i, j = True, 0, 0
            else:
                is_swap = rng.random() < 0.5
                i, j = rng.sample(range(size), 2)
                feasible = (
                    neighborhood.swap_feasible(i, j)
                    if is_swap
                    else neighborhood.relocate_feasible(i, j)
                )
                if not feasible:
                    temperature *= options.cooling
                    continue
                cost = (
                    neighborhood.swap_cost(i, j)
                    if is_swap
                    else neighborhood.relocate_cost(i, j)
                )
                proposal = None  # materialized only if accepted
            stats.plans_evaluated += 1
            accept = cost <= current_cost
            if not accept and temperature > 0:
                accept = rng.random() < math.exp((current_cost - cost) / temperature)
            if accept:
                if proposal is None:
                    proposal = (
                        neighborhood.swapped(i, j) if is_swap else neighborhood.relocated(i, j)
                    )
                if proposal != current:
                    current = proposal
                    current_cost = cost
                    neighborhood = evaluator.neighborhood(current)
                if cost < best_cost:
                    best = proposal
                    best_cost = cost
                    stats.incumbent_updates += 1
            temperature *= options.cooling

        stats.elapsed_seconds = stopwatch.stop()
        plan = problem.plan(best)
        return OptimizationResult(
            plan=plan, cost=plan.cost, algorithm=self.name, optimal=False, statistics=stats
        )


def hill_climbing(problem: OrderingProblem, max_iterations: int = 1000, seed: int = 0) -> OptimizationResult:
    """Convenience wrapper around :class:`HillClimbingOptimizer`."""
    return HillClimbingOptimizer(max_iterations=max_iterations, seed=seed).optimize(problem)


def simulated_annealing(
    problem: OrderingProblem, options: SimulatedAnnealingOptions | None = None
) -> OptimizationResult:
    """Convenience wrapper around :class:`SimulatedAnnealingOptimizer`."""
    return SimulatedAnnealingOptimizer(options).optimize(problem)
