"""The branch-and-bound optimizer of the paper.

The algorithm explores prefixes (partial plans) of the ``n!`` possible linear
orderings depth-first and prunes the search space with the three properties
stated in the paper:

* **Lemma 1 (monotone lower bound)** — the bottleneck cost ``ε`` of a prefix
  never decreases when the prefix grows, so a prefix whose ``ε`` already
  reaches the best complete plan found so far (the *incumbent*, ``ρ``) cannot
  lead to an improvement and is discarded.
* **Lemma 2 (closure)** — when ``ε >= ε̄`` (the maximum cost any not-yet-placed
  service can still incur), the ordering of the remaining services is
  irrelevant: every completion costs exactly ``ε``.  The subtree is replaced by
  a single (arbitrary, constraint-respecting) completion.
* **Lemma 3 (bottleneck-prefix pruning)** — after such a closure, every plan
  whose prefix equals the closed prefix *up to and including its bottleneck
  service* can also be discarded, because successors are appended
  cheapest-transfer-first: any alternative successor of the bottleneck service
  would only increase the bottleneck term.  The search therefore backtracks
  directly to the position of the bottleneck service instead of to the last
  appended service.

Every rule can be switched off individually (experiment E8 ablates them); with
all rules enabled the optimizer is still guaranteed to return an optimal plan,
which the test-suite checks against exhaustive search.

The search runs on the evaluation kernel (:mod:`repro.core.evaluation`):
prefixes are O(1)-extend :class:`~repro.core.evaluation.PrefixState` objects
carrying exactly the Lemma-1 state (``ε`` and the bottleneck position), and
``ε̄`` comes from :meth:`~repro.core.evaluation.PlanEvaluator.residual_value`.
The two scored successor orderings (cheapest ``ε`` term, and the best-pair
ordering of first services) are one
:meth:`~repro.core.evaluation.PlanEvaluator.score_front` call and a stable
``rank``.  Every ``ε`` matches the from-scratch cost model
(:func:`repro.core.cost_model.bottleneck_cost`) bit for bit, so the pruning
decisions are exactly those the paper's measures prescribe, and the returned
plan is a true optimum of the reported (oracle) cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.core.evaluation import PrefixState
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.exceptions import OptimizationError, SearchLimitExceededError
from repro.utils.timing import Stopwatch

__all__ = ["SuccessorOrder", "BranchAndBoundOptions", "BranchAndBoundOptimizer", "branch_and_bound"]


class SuccessorOrder:
    """Successor-ordering policies for expanding a partial plan."""

    CHEAPEST_TRANSFER = "cheapest_transfer"
    """Append the service with the smallest transfer cost from the current last
    service first (the paper's policy; required by Lemma 3)."""

    CHEAPEST_TERM = "cheapest_term"
    """Append the service that leads to the smallest new ``ε`` first."""

    INDEX = "index"
    """Append services in index order (no heuristic; ablation baseline)."""

    ALL = (CHEAPEST_TRANSFER, CHEAPEST_TERM, INDEX)


@dataclass(frozen=True)
class BranchAndBoundOptions:
    """Configuration of :class:`BranchAndBoundOptimizer`.

    The defaults reproduce the full algorithm of the paper.
    """

    use_bound_pruning: bool = True
    """Apply the Lemma-1 lower-bound test ``ε >= ρ``."""

    use_lemma2: bool = True
    """Apply the Lemma-2 closure test ``ε >= ε̄``."""

    use_lemma3: bool = True
    """Apply the Lemma-3 bottleneck-prefix pruning after a closure."""

    successor_order: str = SuccessorOrder.CHEAPEST_TRANSFER
    """Order in which successors of a prefix are explored."""

    seed_incumbent: bool = True
    """Start with a greedy plan as the initial incumbent ``ρ``."""

    node_limit: int | None = None
    """Abort (with :class:`SearchLimitExceededError`) after this many expanded prefixes."""

    def __post_init__(self) -> None:
        if self.successor_order not in SuccessorOrder.ALL:
            raise ValueError(
                f"unknown successor order {self.successor_order!r}; expected one of {SuccessorOrder.ALL}"
            )
        if self.use_lemma3 and not self.use_lemma2:
            raise ValueError("Lemma 3 pruning requires Lemma 2 closures to be enabled")
        if self.use_lemma3 and self.successor_order != SuccessorOrder.CHEAPEST_TRANSFER:
            raise ValueError(
                "Lemma 3 pruning is only sound with cheapest-transfer successor ordering"
            )
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive when set")


class BranchAndBoundOptimizer:
    """Finds the optimal linear ordering under the bottleneck cost metric."""

    name = "branch_and_bound"

    def __init__(self, options: BranchAndBoundOptions | None = None) -> None:
        self.options = options if options is not None else BranchAndBoundOptions()

    # -- public API ----------------------------------------------------------

    def optimize(
        self, problem: OrderingProblem, stop: threading.Event | None = None
    ) -> OptimizationResult:
        """Return an optimal plan for ``problem`` together with search statistics.

        ``stop`` is checked once per expanded prefix; once it is set the
        search raises :class:`SearchLimitExceededError`, as it does past
        ``node_limit``.  The error carries the best plan found so far (the
        greedy seed at least) as its ``incumbent``, with ``optimal=False``.
        """
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        self._best_order: tuple[int, ...] | None = None
        self._best_cost = float("inf")
        self._stats = stats
        self._stop = stop
        self._problem = problem
        self._evaluator = problem.evaluator()

        if self.options.seed_incumbent:
            self._seed_incumbent(problem)

        try:
            self._explore(self._evaluator.root())
        except SearchLimitExceededError as error:
            if self._best_order is not None:
                error.incumbent = self._result(optimal=False)
            raise
        finally:
            stats.elapsed_seconds = stopwatch.stop()

        if self._best_order is None:
            raise OptimizationError(
                "branch-and-bound finished without finding any feasible plan "
                "(this indicates inconsistent precedence constraints)"
            )
        return self._result(optimal=True)

    def _result(self, optimal: bool) -> OptimizationResult:
        plan = self._problem.plan(self._best_order)
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            algorithm=self.name,
            optimal=optimal,
            statistics=self._stats,
        )

    # -- incumbent seeding ----------------------------------------------------

    def _seed_incumbent(self, problem: OrderingProblem) -> None:
        """Initialise ``ρ`` with the paper's greedy expansion heuristic."""
        from repro.core.greedy import GreedyOptimizer, GreedyStrategy

        try:
            seed = GreedyOptimizer(GreedyStrategy.NEAREST_SUCCESSOR).optimize(problem)
        except OptimizationError:
            return
        self._best_order = seed.plan.order
        self._best_cost = seed.cost
        self._stats.extra["seed_cost"] = seed.cost

    # -- search ---------------------------------------------------------------

    def _explore(self, partial: PrefixState) -> int | None:
        """Depth-first exploration of the completions of ``partial``.

        Returns ``None`` in the normal case, or the *length of a pruned prefix*
        when a Lemma-3 closure occurred: every ancestor whose own prefix is at
        least that long must abandon its remaining successors as well.
        """
        options = self.options
        stats = self._stats
        stats.nodes_expanded += 1
        self._check_limits()

        if partial.is_complete:
            self._record_plan(partial.order, partial.epsilon)
            return None

        if (
            options.use_bound_pruning
            and not partial.is_empty
            and partial.epsilon >= self._best_cost
        ):
            stats.pruned_by_bound += 1
            return None

        if options.use_lemma2 and not partial.is_empty:
            residual = self._evaluator.residual_value(partial)
            if partial.epsilon >= residual:
                stats.lemma2_closures += 1
                completed = self._complete_cheapest(partial)
                self._record_plan(completed.order, completed.epsilon)
                if options.use_lemma3:
                    stats.lemma3_prunes += 1
                    return partial.bottleneck_position + 1
                return None

        for successor in self._ordered_successors(partial):
            child = partial.extend(successor)
            signal = self._explore(child)
            if signal is not None:
                if partial.length >= signal:
                    # This prefix is itself inside the pruned region: propagate.
                    return signal
                # The pruned prefix was the child just explored; its remaining
                # siblings are *not* pruned, so continue with the next one.
        return None

    def _record_plan(self, order: tuple[int, ...], cost: float) -> None:
        """Register a complete plan as a candidate incumbent."""
        self._stats.plans_evaluated += 1
        if cost < self._best_cost:
            self._best_cost = cost
            self._best_order = order
            self._stats.incumbent_updates += 1

    def _complete_cheapest(self, partial: PrefixState) -> PrefixState:
        """Complete ``partial`` by repeatedly appending the cheapest allowed successor.

        Used after a Lemma-2 closure, where any constraint-respecting
        completion has the same bottleneck cost.
        """
        evaluator = self._evaluator
        current = partial
        while not current.is_complete:
            candidates = current.allowed_extensions()
            if not candidates:
                raise OptimizationError(
                    "no service can legally be appended; precedence constraints are unsatisfiable"
                )
            if current.is_empty:
                successor = min(candidates, key=lambda index: (evaluator.costs[index], index))
            else:
                row = evaluator.rows[current.last]
                successor = min(candidates, key=lambda index: (row[index], index))
            current = current.extend(successor)
        return current

    def _ordered_successors(self, partial: PrefixState) -> list[int]:
        """Successors of ``partial`` in the configured exploration order."""
        candidates = partial.allowed_extensions()
        order = self.options.successor_order
        if order == SuccessorOrder.INDEX or len(candidates) < 2:
            return candidates  # already index-ascending
        if order == SuccessorOrder.CHEAPEST_TERM:
            # Extensions arrive index-ascending, so a stable rank by ε is the
            # (ε, index) order.
            final = partial.length + 1 == self._problem.size
            _, extensions, epsilons = self._evaluator.score_front([partial], final)
            return [extensions[position] for position in self._evaluator.rank(epsilons)]
        # Cheapest-transfer policy (the paper's): for the empty prefix, order
        # first services by the cost of their best pair, which realises the
        # "append the less expensive pair of WSs" start of the algorithm.
        if partial.is_empty:
            return self._best_pair_order(candidates)
        row = self._evaluator.rows[partial.last]
        return sorted(candidates, key=lambda index: (row[index], index))

    def _best_pair_order(self, candidates: list[int]) -> list[int]:
        """First services ordered by the bottleneck cost of their best two-service prefix.

        One ``score_front`` call scores every feasible second service of every
        single-service prefix; a first service whose every successor is
        constrained out keeps its own ``ε`` as cost.  Ties keep index order.
        """
        root = self._evaluator.root()
        starts = [root.extend(first) for first in candidates]
        parents, _, epsilons = self._evaluator.score_front(starts, self._problem.size == 2)
        pair_costs = [start.epsilon for start in starts]
        paired = [False] * len(starts)
        for parent, epsilon in zip(parents, epsilons):
            if not paired[parent] or epsilon < pair_costs[parent]:
                pair_costs[parent] = epsilon
                paired[parent] = True
        return [candidates[position] for position in self._evaluator.rank(pair_costs)]

    def _check_limits(self) -> None:
        node_limit = self.options.node_limit
        if node_limit is not None and self._stats.nodes_expanded > node_limit:
            raise SearchLimitExceededError(f"node limit of {node_limit} prefixes exceeded")
        if self._stop is not None and self._stop.is_set():
            raise SearchLimitExceededError("branch-and-bound was stopped")


def branch_and_bound(
    problem: OrderingProblem, options: BranchAndBoundOptions | None = None, **overrides: object
) -> OptimizationResult:
    """Convenience wrapper: run the branch-and-bound optimizer on ``problem``.

    Keyword overrides are applied on top of ``options`` (or the defaults), e.g.
    ``branch_and_bound(problem, use_lemma3=False)``.
    """
    base = options if options is not None else BranchAndBoundOptions()
    if overrides:
        base = replace(base, **overrides)  # type: ignore[arg-type]
    return BranchAndBoundOptimizer(base).optimize(problem)
