"""The centralized baseline of Srivastava et al. (VLDB 2006).

The paper contrasts its decentralized setting with the *centralized* one of
Srivastava, Munagala, Widom and Motwani, "Query Optimization over Web
Services" (VLDB 2006): when all services exchange data through an intermediary
(or every pair has the same communication cost), the bottleneck-optimal
ordering can be found in polynomial time.

This module implements that baseline as a *communication-oblivious* optimizer:

* For **selective services** (``σ <= 1``) ordering by non-decreasing processing
  cost ``c_i`` is optimal when communication is free (or folded into ``c_i``,
  which is how the centralized model accounts for it); the classical adjacent
  exchange argument proves it (see :func:`selective_exchange_argument_holds`,
  which the property tests exercise).  Under Eq. 1 with a *positive* uniform
  transfer cost the ordering is no longer guaranteed optimal, because the last
  stage of a plan pays no outgoing transfer — the baseline deliberately keeps
  the centralized behaviour and ignores that interaction.
* **Proliferative services** (``σ > 1``) never benefit from preceding a
  selective service under the bottleneck metric, so they are placed after all
  selective ones, ordered by non-increasing ``c_i / σ_i`` (the exchange
  criterion between two proliferative services).
* With precedence constraints the same keys are applied greedily over the
  currently allowed services.

When this plan is *executed decentrally* — on the true heterogeneous transfer
costs — it is generally sub-optimal; quantifying that gap is experiment E4.
"""

from __future__ import annotations

from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.exceptions import OptimizationError
from repro.utils.timing import Stopwatch

__all__ = ["SrivastavaOptimizer", "srivastava", "selective_exchange_argument_holds"]


def _ordering_key(problem: OrderingProblem, index: int) -> tuple[int, float, int]:
    """Sort key of the centralized algorithm.

    Selective services (group 0) come first in non-decreasing cost order;
    proliferative services (group 1) follow in non-increasing ``c/σ`` order.
    """
    sigma = problem.selectivities[index]
    cost = problem.costs[index]
    if sigma <= 1.0:
        return (0, cost, index)
    return (1, -cost / sigma, index)


class SrivastavaOptimizer:
    """Communication-oblivious bottleneck ordering (the centralized baseline)."""

    name = "srivastava_centralized"

    def optimize(self, problem: OrderingProblem) -> OptimizationResult:
        """Order services by the centralized criterion, ignoring transfer costs.

        The returned plan is *evaluated* on the problem's true (possibly
        heterogeneous) transfer costs, exactly like a centralized optimizer's
        plan would behave once deployed decentrally.
        """
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        partial = problem.evaluator().root()
        while not partial.is_complete:
            candidates = partial.allowed_extensions()
            if not candidates:
                raise OptimizationError(
                    "no service can legally be appended; precedence constraints are unsatisfiable"
                )
            successor = min(candidates, key=lambda index: _ordering_key(problem, index))
            partial = partial.extend(successor)
            stats.nodes_expanded += 1
        stats.plans_evaluated = 1
        stats.elapsed_seconds = stopwatch.stop()
        plan = problem.plan(partial.order)
        return OptimizationResult(
            plan=plan, cost=plan.cost, algorithm=self.name, optimal=False, statistics=stats
        )

    def is_provably_optimal_for(self, problem: OrderingProblem) -> bool:
        """Whether the centralized criterion is provably optimal for ``problem``.

        That is the case when communication is free (all transfer costs zero —
        the classical centralized setting, where any uniform per-call overhead
        is folded into ``c_i``), every service is selective, no sink transfer
        is modelled and there are no precedence constraints.
        """
        return (
            problem.transfer.max_cost() == 0.0
            and problem.all_selective
            and not problem.has_precedence_constraints
            and problem.sink_transfer is None
        )


def srivastava(problem: OrderingProblem) -> OptimizationResult:
    """Convenience wrapper around :class:`SrivastavaOptimizer`."""
    return SrivastavaOptimizer().optimize(problem)


def selective_exchange_argument_holds(
    cost_x: float, cost_y: float, sigma_x: float, sigma_y: float, rate: float = 1.0
) -> bool:
    """Check the adjacent-exchange inequality behind the centralized algorithm.

    For two adjacent selective services with ``c_x <= c_y`` placed at input
    rate ``rate`` under uniform communication, running ``x`` first can never
    increase the bottleneck of the pair:

    ``max(rate*c_x, rate*σ_x*c_y) <= max(rate*c_y, rate*σ_y*c_x)``

    The function evaluates both sides and returns whether the inequality holds;
    the hypothesis test-suite uses it to validate the theory on random inputs.
    """
    if cost_x > cost_y:
        cost_x, cost_y = cost_y, cost_x
        sigma_x, sigma_y = sigma_y, sigma_x
    left = max(rate * cost_x, rate * sigma_x * cost_y)
    right = max(rate * cost_y, rate * sigma_y * cost_x)
    return left <= right + 1e-12 * max(1.0, abs(right))
