"""Beam search: a bounded-width variant of the branch-and-bound search.

For very large service sets an exact search may not be affordable even with
the paper's pruning rules (the problem is NP-hard).  Beam search keeps only the
``width`` most promising prefixes per level — promise being the same two guide
measures the exact algorithm uses (``ε`` as the incurred cost, ``ε̄`` as the
residual risk) — so its cost is polynomial (``O(width · n²)`` prefix
extensions) at the price of losing the optimality guarantee.  With
``width >= n!`` it degenerates to exhaustive search; with ``width = 1`` it is
the greedy min-term heuristic.

It serves two roles in the reproduction:

* a scalable heuristic for instances beyond exact reach, and
* a quality baseline whose gap to the exact optimum quantifies what the
  guarantee of the paper's algorithm is worth.

Each level scores every feasible child of the whole front in one
:meth:`~repro.core.evaluation.PlanEvaluator.score_front` call, ranks the
children stably by ``ε``, and computes the ``ε̄`` tie-break
(:meth:`~repro.core.evaluation.PlanEvaluator.residual_parts`) lazily — only
for groups of children with exactly equal ``ε`` that reach the beam cut;
only the survivors are materialized as
:class:`~repro.core.evaluation.PrefixState` objects.  This is exactly a
stable sort by ``(ε, ε̄)`` over generation order.
"""

from __future__ import annotations

import threading

from repro.core.evaluation import PlanEvaluator, PrefixState
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.exceptions import OptimizationError, SearchLimitExceededError
from repro.utils.timing import Stopwatch

__all__ = ["BeamSearchOptimizer", "beam_search"]


class BeamSearchOptimizer:
    """Level-by-level search keeping the ``width`` best prefixes per level."""

    name = "beam_search"

    def __init__(self, width: int = 16, use_residual_bound: bool = True) -> None:
        if width < 1:
            raise ValueError("width must be at least 1")
        self.width = width
        self.use_residual_bound = use_residual_bound

    def optimize(
        self, problem: OrderingProblem, stop: threading.Event | None = None
    ) -> OptimizationResult:
        """Construct a plan by beam search; optimal only if the beam never overflowed.

        ``stop`` is checked once per level; once it is set the search raises
        :class:`~repro.exceptions.SearchLimitExceededError`.
        """
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        evaluator = problem.evaluator()
        beam: list[PrefixState] = [evaluator.root()]
        overflowed = False

        for level in range(problem.size):
            if stop is not None and stop.is_set():
                raise SearchLimitExceededError("beam search was stopped")
            final = level + 1 == problem.size
            parents, extensions, epsilons = evaluator.score_front(beam, final)
            total = len(parents)
            stats.nodes_expanded += total
            if not total:
                raise OptimizationError(
                    "no service can legally be appended; precedence constraints are unsatisfiable"
                )
            # A stable rank by ε keeps generation order inside equal-ε groups —
            # exactly where the (ε, ε̄) sort key consults ε̄ — so only those
            # groups (and only when they reach the cut) need the O(n²) residual.
            ranking = evaluator.rank(epsilons)
            if self.use_residual_bound and not final and total > 1:
                self._residual_tiebreak(evaluator, beam, parents, extensions, epsilons, ranking)
            beam = [
                beam[parents[position]].extend(extensions[position])
                for position in ranking[: self.width]
            ]
            overflowed = overflowed or total > self.width

        best = min(beam, key=lambda state: state.epsilon)
        stats.plans_evaluated = len(beam)
        stats.extra["beam_width"] = self.width
        stats.extra["beam_overflowed"] = overflowed
        stats.elapsed_seconds = stopwatch.stop()
        plan = problem.plan(best.order)
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            algorithm=self.name,
            # Without overflow every prefix was kept, so the search was exhaustive.
            optimal=not overflowed,
            statistics=stats,
        )

    def _residual_tiebreak(
        self,
        evaluator: PlanEvaluator,
        beam: list[PrefixState],
        parents,
        extensions,
        epsilons,
        ranking: list[int],
    ) -> None:
        """Reorder equal-``ε`` groups that reach the beam cut by ``ε̄``, in place.

        Residuals are computed from the parent's O(1) fields without
        materializing the child state; groups entirely past the cut can never
        enter the beam, so their internal order is irrelevant and skipped.
        """
        selectivities = evaluator.selectivities

        def residual(position: int) -> float:
            parent = beam[parents[position]]
            extension = extensions[position]
            return evaluator.residual_parts(
                parent.placed | (1 << extension),
                extension,
                parent.output_rate,
                parent.output_rate * selectivities[extension],
            )[0]

        total = len(ranking)
        start = 0
        while start < min(self.width, total):
            value = epsilons[ranking[start]]
            stop = start + 1
            while stop < total and epsilons[ranking[stop]] == value:
                stop += 1
            if stop - start > 1:
                # Python's sort is stable, so equal-ε̄ members keep generation
                # order — the same tie-break as a stable (ε, ε̄) sort.
                ranking[start:stop] = sorted(ranking[start:stop], key=residual)
            start = stop


def beam_search(problem: OrderingProblem, width: int = 16) -> OptimizationResult:
    """Convenience wrapper around :class:`BeamSearchOptimizer`."""
    return BeamSearchOptimizer(width=width).optimize(problem)
