"""Held–Karp-style dynamic programming over service subsets.

The bottleneck objective decomposes stage-wise, so the classical
subset/last-service dynamic programme applies: for every subset ``M`` of
services and every ``last in M`` we keep the smallest achievable maximum over
the *settled* terms of the services of ``M`` placed before ``last`` (the term
of ``last`` itself is settled only when its successor becomes known).  The
programme runs in ``O(2^N * N^2)`` time, exponentially better than ``N!``
enumeration, and serves as a second independent exact baseline for the
branch-and-bound optimizer (experiments E1–E3).

The programme is written once against two kernels, picked per run by
:func:`repro.core.vector.evaluation_kernel`.  The driver here owns the
predecessor masks, the subset selectivity products, the seed layer, the
loop over popcount layers, the completion (``completion_terms``) and the
plan reconstruction; the kernel's ``relax_layer`` relaxes one layer.  The
scalar kernel keeps lazily-allocated per-mask rows (``values[mask][last]``)
and relaxes masks in ascending order, lasts and successors ascending, with
strict improvement; the vector kernel turns a layer into one
``states × services`` settled-term matrix and writes the next layer with
grouped ``minimum.reduceat`` reductions.  Each target cell
``(mask | bit(next), next)`` has a *unique* source mask, so its value is a
min over one group whatever the sweep order, and both kernels break parent
ties towards the smallest ``last``: they return the identical plan with
bit-identical cost and the same ``dp_states`` (cells reached).
``nodes_expanded`` counts the scalar kernel's strict improvements and the
vector kernel's cell writes (which equal ``dp_states``).
"""

from __future__ import annotations

import threading

from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.core.vector import evaluation_kernel
from repro.exceptions import OptimizationError, ProblemTooLargeError, SearchLimitExceededError
from repro.utils.timing import Stopwatch

__all__ = ["DynamicProgrammingOptimizer", "dynamic_programming"]

_INF = float("inf")

class DynamicProgrammingOptimizer:
    """Exact optimizer based on subset dynamic programming."""

    name = "dynamic_programming"

    def __init__(self, max_size: int = 18, kernel: str | None = None) -> None:
        if max_size < 1:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self.kernel = kernel

    def optimize(
        self, problem: OrderingProblem, stop: threading.Event | None = None
    ) -> OptimizationResult:
        """Return the optimal plan for ``problem`` via subset DP.

        ``stop`` is checked before the subset-product fill and once per
        popcount layer; once it is set the programme raises
        :class:`~repro.exceptions.SearchLimitExceededError`.
        """
        size = problem.size
        if size > self.max_size:
            raise ProblemTooLargeError(
                f"dynamic programming is limited to {self.max_size} services, "
                f"the problem has {size} (raise max_size explicitly if you really want this)"
            )
        self._check_stop(stop)
        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        kernel = evaluation_kernel(problem, self.kernel)
        evaluator = problem.evaluator()
        selectivities = evaluator.selectivities
        predecessor_masks = evaluator.predecessor_masks or (0,) * size
        full_mask = (1 << size) - 1

        # Selectivity product of every subset, built incrementally by lowest
        # set bit.  The multiplication *order* per subset is part of the
        # bit-exactness contract, so both kernels share this one build.
        subset_product = [1.0] * (1 << size)
        for mask in range(1, 1 << size):
            lowest = (mask & -mask).bit_length() - 1
            subset_product[mask] = subset_product[mask ^ (1 << lowest)] * selectivities[lowest]

        # values[mask][last] is the smallest achievable maximum over the
        # settled terms of mask \ {last}; parents[mask][last] the predecessor
        # of `last` in the plan attaining it (-1 for none).
        values, parents, products = kernel.dp_tables(subset_product)
        seeds = [index for index in range(size) if predecessor_masks[index] == 0]
        for index in seeds:
            row = [_INF] * size
            row[index] = 0.0
            values[1 << index] = row
            parents[1 << index] = [-1] * size
        dp_states = len(seeds)
        stats.nodes_expanded = len(seeds)
        # 1 << i is increasing in i, so the seed layer is already mask-ascending.
        layer = [1 << index for index in seeds]
        for _ in range(size - 1):
            self._check_stop(stop)
            if len(layer) == 0:
                break
            layer, reached, improved = kernel.relax_layer(values, parents, products, layer)
            dp_states += reached
            stats.nodes_expanded += improved

        best_last = -1
        best_cost = _INF
        final_row = values[full_mask]
        if final_row is not None:
            terms = kernel.completion_terms(
                [subset_product[full_mask ^ (1 << last)] for last in range(size)]
            )
            for last in range(size):
                value = final_row[last]
                if value == _INF:
                    continue
                term = terms[last]
                total = value if value >= term else term
                stats.plans_evaluated += 1
                if total < best_cost:
                    best_cost = total
                    best_last = last

        stats.extra["dp_states"] = dp_states
        stats.extra["kernel"] = kernel.kernel_name
        stats.elapsed_seconds = stopwatch.stop()

        if best_last < 0:
            raise OptimizationError("no feasible ordering satisfies the precedence constraints")

        plan = problem.plan(self._reconstruct(parents, full_mask, best_last))
        return OptimizationResult(
            plan=plan, cost=plan.cost, algorithm=self.name, optimal=True, statistics=stats
        )

    @staticmethod
    def _check_stop(stop: threading.Event | None) -> None:
        if stop is not None and stop.is_set():
            raise SearchLimitExceededError("dynamic programming was stopped")

    @staticmethod
    def _reconstruct(parents, mask: int, last: int) -> list[int]:
        """Walk the predecessor pointers back to the first service."""
        order_reversed = [last]
        while True:
            previous = int(parents[mask][last])
            if previous < 0:
                break
            mask ^= 1 << last
            last = previous
            order_reversed.append(last)
        order_reversed.reverse()
        return order_reversed


def dynamic_programming(problem: OrderingProblem, max_size: int = 18) -> OptimizationResult:
    """Convenience wrapper around :class:`DynamicProgrammingOptimizer`."""
    return DynamicProgrammingOptimizer(max_size=max_size).optimize(problem)
