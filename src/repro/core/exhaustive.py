"""Exhaustive enumeration of all feasible linear orderings.

The brute-force optimizer is the ground truth against which the
branch-and-bound algorithm is validated (experiment E1 and the property-based
tests).  It is intentionally guarded by a size limit: enumerating ``n!`` plans
beyond a dozen services is pointless.

The enumeration runs on the evaluation kernel
(:mod:`repro.core.evaluation`): a depth-first recursion over
:class:`~repro.core.evaluation.PrefixState` objects shares each prefix's
bottleneck state between the up-to ``(n-k)!`` plans that start with it, so a
plan costs O(1) amortized instead of the O(n) a from-scratch
``problem.cost`` call pays — and precedence constraints prune the recursion
at the *first* violating position instead of generating and discarding all
``n!`` permutations.  No cost-based pruning is applied: every feasible plan
is enumerated, which is exactly what a ground-truth baseline must do, and
the kernel's arithmetic makes the minimum bit-identical to evaluating every
feasible permutation with :func:`repro.core.cost_model.bottleneck_cost`.

``nodes_expanded`` counts the feasible prefixes visited (including complete
plans); ``plans_evaluated`` counts the complete feasible plans.
"""

from __future__ import annotations

import threading

from repro.core.evaluation import PrefixState
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.exceptions import OptimizationError, ProblemTooLargeError, SearchLimitExceededError
from repro.utils.timing import Stopwatch

__all__ = ["ExhaustiveOptimizer", "exhaustive_search"]


class ExhaustiveOptimizer:
    """Evaluates every feasible permutation and keeps the cheapest one."""

    name = "exhaustive"

    def __init__(self, max_size: int = 10) -> None:
        if max_size < 1:
            raise ValueError("max_size must be positive")
        self.max_size = max_size

    def optimize(
        self, problem: OrderingProblem, stop: threading.Event | None = None
    ) -> OptimizationResult:
        """Return the optimal plan by enumerating all feasible orderings.

        ``stop`` is checked once per visited prefix; once it is set the
        enumeration raises :class:`~repro.exceptions.SearchLimitExceededError`.
        """
        if problem.size > self.max_size:
            raise ProblemTooLargeError(
                f"exhaustive search is limited to {self.max_size} services, "
                f"the problem has {problem.size} (raise max_size explicitly if you really want this)"
            )
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        evaluator = problem.evaluator()
        # All search state lives in this call frame (not on self), so one
        # optimizer instance can run concurrent/re-entrant optimize() calls.
        best_cost = float("inf")
        best_order: tuple[int, ...] | None = None
        size = evaluator.size
        costs = evaluator.costs
        selectivities = evaluator.selectivities
        rows = evaluator.rows
        sink = evaluator.sink

        def visit(state: PrefixState) -> None:
            nonlocal best_cost, best_order
            if stop is not None and stop.is_set():
                raise SearchLimitExceededError("exhaustive search was stopped")
            stats.nodes_expanded += 1
            if state.length == size:
                stats.plans_evaluated += 1
                if state.epsilon < best_cost:
                    best_cost = state.epsilon
                    best_order = state.order
                    stats.incumbent_updates += 1
                return
            if state.length == size - 1:
                # One service left: score the completion arithmetically instead
                # of allocating a child state per leaf (the bulk of all nodes).
                for successor in state.allowed_extensions():
                    stats.nodes_expanded += 1
                    stats.plans_evaluated += 1
                    last = state.last
                    rate = state.rate
                    settled = (
                        rate * costs[last]
                        + rate * selectivities[last] * rows[last][successor]
                    )
                    settled_max = state.settled_max
                    if settled < settled_max:
                        settled = settled_max
                    out_rate = state.output_rate
                    final = (
                        out_rate * costs[successor]
                        + out_rate * selectivities[successor] * sink[successor]
                    )
                    epsilon = settled if settled >= final else final
                    if epsilon < best_cost:
                        best_cost = epsilon
                        best_order = state.order + (successor,)
                        stats.incumbent_updates += 1
                return
            for successor in state.allowed_extensions():
                visit(state.extend(successor))

        root = evaluator.root()
        for first in root.allowed_extensions():
            visit(root.extend(first))

        stats.elapsed_seconds = stopwatch.stop()
        if best_order is None:
            raise OptimizationError("no feasible ordering satisfies the precedence constraints")
        plan = problem.plan(best_order)
        return OptimizationResult(
            plan=plan, cost=plan.cost, algorithm=self.name, optimal=True, statistics=stats
        )


def exhaustive_search(problem: OrderingProblem, max_size: int = 10) -> OptimizationResult:
    """Convenience wrapper around :class:`ExhaustiveOptimizer`."""
    return ExhaustiveOptimizer(max_size=max_size).optimize(problem)
