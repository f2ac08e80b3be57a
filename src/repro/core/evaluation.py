"""The incremental plan-evaluation kernel shared by every optimizer.

Every search algorithm in the library scores candidate plans under the
bottleneck cost metric (Eq. 1).  The validated, from-scratch implementation
lives in :mod:`repro.core.cost_model` and stays the public boundary (and the
oracle of the property-based tests) — but it re-validates the order and builds
one :class:`~repro.core.cost_model.StageCost` object per stage on every call,
which is far too slow for the inner loops of exhaustive enumeration, local
search or branch-and-bound.  This module provides the fast path:

* :class:`PlanEvaluator` — bound once to a problem; pre-extracts the cost,
  selectivity, transfer-row and sink-transfer arrays (plus precedence
  predecessor bitmasks) and evaluates complete plans in one tight loop with
  no validation and no intermediate objects.  Its batch methods serve the
  searches directly: ``score_front``/``rank`` for beam search and
  branch-and-bound, ``best_neighbor`` for hill climbing, and ``dp_tables`` /
  ``relax_layer`` / ``completion_terms`` for the subset DP, whose numpy
  counterpart is :class:`repro.core.vector.BatchEvaluator`.
* :class:`PrefixState` — an immutable, O(1)-extend prefix of a plan carrying
  the input rate, the running bottleneck maximum (``ε``) and its position,
  and the last service.  Constructive searches (greedy, beam,
  branch-and-bound, exhaustive enumeration) grow plans through it instead of
  re-scoring prefixes from scratch.
* :class:`NeighborhoodEvaluator` — delta evaluation for swap and
  relocate/insert moves around a fixed base plan.  Only the affected window
  is re-scored; the scan stops early once the running maximum can no longer
  change (rate stabilization) or once it meets a caller-supplied incumbent
  (short-circuiting).
* residual (``ε̄``) bounds over raw arrays, backing
  :func:`repro.core.bounds.max_residual_cost`.

Bit-identity with the oracle
----------------------------

All kernel arithmetic uses exactly the floating-point expression shapes of
:func:`repro.core.cost_model.stage_costs`: a stage term is computed as
``rate * c + rate * sigma * t`` (processing plus transfer, each left to
right) and rates are accumulated by the same left-to-right multiplication
chain.  A complete :class:`PrefixState`'s ``epsilon``,
:meth:`PlanEvaluator.cost`, and every delta move therefore return *the same
float, bit for bit,* as :func:`repro.core.cost_model.bottleneck_cost` on the
same order — refactored optimizers report identical costs, not merely close
ones.  Delta moves stay exact because the suffix of a move is only reused
when the recomputed input rate is bitwise equal to the base plan's rate at
that position (same remaining multiplication chain, hence identical terms).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import OrderingProblem

__all__ = [
    "PlanEvaluator",
    "PrefixState",
    "NeighborhoodEvaluator",
    "KernelProfile",
    "enable_kernel_profiling",
    "disable_kernel_profiling",
    "kernel_profile",
]

_INF = float("inf")
_NEG_INF = float("-inf")


class KernelProfile:
    """Counts of kernel evaluations since profiling was enabled.

    The counters are plain attribute increments guarded by a single
    ``is not None`` check in the hot loops — cheap enough to leave on in a
    serving process, absent entirely when profiling is off.  Increments are
    not locked: under free threading concurrent updates may drop a tick,
    which is acceptable for rate estimation (counts are exact in the
    single-threaded optimizer processes where most evaluation happens).
    """

    __slots__ = (
        "full_evaluations",
        "bounded_evaluations",
        "delta_evaluations",
        "batch_evaluations",
        "started",
    )

    def __init__(self) -> None:
        self.full_evaluations = 0
        """Complete-plan scores (:meth:`PlanEvaluator.cost`)."""
        self.bounded_evaluations = 0
        """Short-circuited scores (:meth:`PlanEvaluator.cost_bounded`)."""
        self.delta_evaluations = 0
        """Neighborhood delta scans (:meth:`NeighborhoodEvaluator._scan`)."""
        self.batch_evaluations = 0
        """DP states relaxed and completed through the vector kernel
        (:class:`repro.core.vector.BatchEvaluator`) — incremented once per
        batch call by the batch size, so profiling cost stays per-call."""
        self.started = time.perf_counter()

    def counts(self) -> dict[str, int]:
        """The raw counters, keyed by kind."""
        return {
            "full": self.full_evaluations,
            "bounded": self.bounded_evaluations,
            "delta": self.delta_evaluations,
            "batch": self.batch_evaluations,
        }

    def snapshot(self) -> dict[str, float | int]:
        """Counters plus derived rates, JSON-ready for a stats endpoint."""
        elapsed = time.perf_counter() - self.started
        total = (
            self.full_evaluations
            + self.bounded_evaluations
            + self.delta_evaluations
            + self.batch_evaluations
        )
        full_or_bounded = self.full_evaluations + self.bounded_evaluations
        return {
            "full_evaluations": self.full_evaluations,
            "bounded_evaluations": self.bounded_evaluations,
            "delta_evaluations": self.delta_evaluations,
            "batch_evaluations": self.batch_evaluations,
            "evaluations_per_second": total / elapsed if elapsed > 0 else 0.0,
            # How much work delta evaluation displaced: the share of scoring
            # answered by windowed scans instead of full/bounded passes.
            "delta_share": self.delta_evaluations / total if total else 0.0,
            "delta_vs_full": (
                self.delta_evaluations / full_or_bounded if full_or_bounded else 0.0
            ),
        }


_profile: KernelProfile | None = None


def enable_kernel_profiling() -> KernelProfile:
    """Turn on kernel evaluation counting (idempotent); returns the profile."""
    global _profile
    if _profile is None:
        _profile = KernelProfile()
    return _profile


def disable_kernel_profiling() -> None:
    """Turn counting off and drop the profile."""
    global _profile
    _profile = None


def kernel_profile() -> KernelProfile | None:
    """The live profile, or ``None`` when profiling is off."""
    return _profile


class PlanEvaluator:
    """Validation-free bottleneck-cost evaluation bound to one problem.

    Build one per problem (or let :meth:`repro.core.problem.OrderingProblem.evaluator`
    cache it) and reuse it for every candidate order.  The evaluator never
    validates orders: callers are expected to feed permutations of the
    problem's services, as the optimizers' search structures guarantee by
    construction.  The validated entry points remain on
    :class:`~repro.core.problem.OrderingProblem`.
    """

    kernel_name = "scalar"

    __slots__ = (
        "problem",
        "size",
        "costs",
        "selectivities",
        "rows",
        "sink",
        "predecessor_masks",
    )

    def __init__(self, problem: "OrderingProblem") -> None:
        self.problem = problem
        self.size = problem.size
        self.costs: tuple[float, ...] = problem.costs
        self.selectivities: tuple[float, ...] = problem.selectivities
        self.rows: tuple[tuple[float, ...], ...] = tuple(
            problem.transfer.row(i) for i in range(problem.size)
        )
        sink = problem.sink_transfer
        self.sink: tuple[float, ...] = (
            tuple(float(value) for value in sink) if sink is not None else (0.0,) * problem.size
        )
        precedence = problem.precedence
        if precedence is not None and precedence.has_constraints:
            masks = []
            for index in range(problem.size):
                mask = 0
                for predecessor in precedence.predecessors(index):
                    mask |= 1 << predecessor
                masks.append(mask)
            self.predecessor_masks: tuple[int, ...] | None = tuple(masks)
        else:
            self.predecessor_masks = None

    # -- complete-plan evaluation -----------------------------------------

    def cost(self, order: Sequence[int]) -> float:
        """Bottleneck cost of the complete plan ``order`` (no validation).

        Bit-identical to :func:`repro.core.cost_model.bottleneck_cost`.
        """
        if _profile is not None:
            _profile.full_evaluations += 1
        costs = self.costs
        selectivities = self.selectivities
        rows = self.rows
        sink = self.sink
        last_position = len(order) - 1
        rate = 1.0
        best = _NEG_INF
        for position, service in enumerate(order):
            if position < last_position:
                outgoing = rows[service][order[position + 1]]
            else:
                outgoing = sink[service]
            term = rate * costs[service] + rate * selectivities[service] * outgoing
            if term > best:
                best = term
            rate = rate * selectivities[service]
        return best

    def cost_bounded(self, order: Sequence[int], bound: float) -> float:
        """Evaluate ``order``, abandoning it once the running maximum meets ``bound``.

        Returns the running maximum at the point the scan stopped.  A return
        value ``< bound`` is the exact bottleneck cost; a value ``>= bound``
        is a valid *lower* bound of it (the plan is certainly no better than
        ``bound``, so an incumbent-driven caller can discard it).
        """
        if _profile is not None:
            _profile.bounded_evaluations += 1
        costs = self.costs
        selectivities = self.selectivities
        rows = self.rows
        sink = self.sink
        last_position = len(order) - 1
        rate = 1.0
        best = _NEG_INF
        for position, service in enumerate(order):
            if position < last_position:
                outgoing = rows[service][order[position + 1]]
            else:
                outgoing = sink[service]
            term = rate * costs[service] + rate * selectivities[service] * outgoing
            if term > best:
                best = term
                if best >= bound:
                    return best
            rate = rate * selectivities[service]
        return best

    # -- prefix states ------------------------------------------------------

    def root(self) -> "PrefixState":
        """The empty prefix, starting point of every constructive search."""
        return PrefixState(self, None, -1, 0, 0, 1.0, 1.0, _NEG_INF, -1, 0.0, -1)

    def prefix(self, order: Sequence[int]) -> "PrefixState":
        """The prefix state reached by appending ``order`` to the empty prefix."""
        state = self.root()
        for index in order:
            state = state.extend(index)
        return state

    def neighborhood(self, order: Sequence[int]) -> "NeighborhoodEvaluator":
        """Delta evaluation of swap/relocate moves around the complete plan ``order``."""
        return NeighborhoodEvaluator(self, tuple(order))

    # -- batch scoring for the searches ---------------------------------------

    def score_front(
        self, front: Sequence["PrefixState"], final: bool
    ) -> tuple[list[int], list[int], list[float]]:
        """Score every feasible one-service extension of a prefix front.

        All states must share one length; ``final`` says the extensions
        complete the plan (their term then includes the sink transfer).
        Returns ``(parents, extensions, epsilons)`` over the feasible
        children in generation order (parent-major, extension index
        ascending); each epsilon is bit-identical to
        ``front[parent].extend(extension).epsilon`` without building the
        child state.
        """
        costs = self.costs
        selectivities = self.selectivities
        sink = self.sink
        parents: list[int] = []
        extensions: list[int] = []
        epsilons: list[float] = []
        for parent, state in enumerate(front):
            settled_max = state.settled_max
            output_rate = state.output_rate
            last = state.last
            if state.length:
                # rate * c + rate * sigma * t, with the shared factors hoisted
                # (left-to-right evaluation makes the hoist exact).
                settled_base = state.rate * costs[last]
                outgoing_rate = state.rate * selectivities[last]
                row = self.rows[last]
            for successor in state.allowed_extensions():
                settled = settled_max
                if state.length:
                    term = settled_base + outgoing_rate * row[successor]
                    if term > settled:
                        settled = term
                if final:
                    partial = (
                        output_rate * costs[successor]
                        + output_rate * selectivities[successor] * sink[successor]
                    )
                else:
                    partial = output_rate * costs[successor]
                parents.append(parent)
                extensions.append(successor)
                epsilons.append(settled if settled >= partial else partial)
        if _profile is not None:
            _profile.delta_evaluations += len(epsilons)
        return parents, extensions, epsilons

    @staticmethod
    def rank(values: Sequence[float]) -> list[int]:
        """Positions of ``values`` in ascending order, ties in input order."""
        return sorted(range(len(values)), key=values.__getitem__)

    def best_neighbor(
        self, order: Sequence[int], bound: float
    ) -> tuple[tuple[int, ...] | None, float, int]:
        """The steepest feasible swap/relocate move from ``order``, if any beats ``bound``.

        Returns ``(best order or None, its cost, feasible-move count)``.
        Swaps ``(i, j)`` with ``i < j`` are scanned first, then relocates; the
        running best is the incumbent bound, so most non-improving moves
        abandon early, and only a strict improvement replaces the best — ties
        go to the first move attaining the minimum.
        """
        neighborhood = self.neighborhood(order)
        size = len(order)
        best: tuple[int, ...] | None = None
        best_cost = bound
        evaluated = 0
        for i in range(size):
            for j in range(i + 1, size):
                if not neighborhood.swap_feasible(i, j):
                    continue
                cost = neighborhood.swap_cost(i, j, best_cost)
                evaluated += 1
                if cost < best_cost:
                    best_cost = cost
                    best = neighborhood.swapped(i, j)
        for i in range(size):
            for j in range(size):
                if i == j or not neighborhood.relocate_feasible(i, j):
                    continue
                cost = neighborhood.relocate_cost(i, j, best_cost)
                evaluated += 1
                if cost < best_cost:
                    best_cost = cost
                    best = neighborhood.relocated(i, j)
        return best, best_cost, evaluated

    # -- the subset DP's scalar kernel (numpy twin: repro.core.vector) -------

    def dp_tables(self, products: Sequence[float]):
        """Subset-DP ``(values, parents, products)`` tables.

        ``values[mask][last]`` / ``parents[mask][last]`` rows are allocated
        lazily, on first reach, so only reachable masks ever hold a list.
        """
        cells = 1 << self.size
        return [None] * cells, [None] * cells, products

    def relax_layer(self, values, parents, products, layer: Sequence[int]):
        """Relax every ``(mask, last)`` state of one popcount layer of the subset DP.

        ``values[mask][last]`` is the smallest achievable maximum over the
        settled terms of ``mask`` without ``last``; appending ``next`` settles
        ``last``'s term.  Masks are taken in ascending order, lasts and
        successors ascending, and a cell only changes on strict improvement,
        so the parent tie-break goes to the smallest ``last``.  Returns the
        next layer's masks (ascending), the number of newly reached cells and
        the number of strict improvements.
        """
        size = self.size
        costs = self.costs
        selectivities = self.selectivities
        rows = self.rows
        masks = self.predecessor_masks or (0,) * size
        # Per-service static transitions: every successor of `last` with its
        # bit, precedence mask and transfer cost.
        successors = [
            tuple((nxt, 1 << nxt, masks[nxt], rows[last][nxt]) for nxt in range(size) if nxt != last)
            for last in range(size)
        ]
        next_layer: list[int] = []
        reached = 0
        improved = 0
        for mask in layer:
            value_row = values[mask]
            not_mask = ~mask
            for last in range(size):
                value = value_row[last]
                if value == _INF:
                    continue
                rate_before_last = products[mask ^ (1 << last)]
                settled_base = rate_before_last * costs[last]
                outgoing_rate = rate_before_last * selectivities[last]
                for nxt, bit, pred_mask, transfer in successors[last]:
                    if mask & bit or pred_mask & not_mask:
                        continue
                    settled_term = settled_base + outgoing_rate * transfer
                    candidate = value if value >= settled_term else settled_term
                    next_mask = mask | bit
                    next_row = values[next_mask]
                    if next_row is None:
                        next_row = values[next_mask] = [_INF] * size
                        parents[next_mask] = [-1] * size
                        next_layer.append(next_mask)
                    if candidate < next_row[nxt]:
                        if next_row[nxt] == _INF:
                            reached += 1
                        next_row[nxt] = candidate
                        parents[next_mask][nxt] = last
                        improved += 1
        next_layer.sort()
        return next_layer, reached, improved

    def completion_terms(self, rates_before: Sequence[float]) -> list[float]:
        """Final-stage terms ``rate * c_i + rate * sigma_i * sink_i`` per service."""
        return [
            rate * cost + rate * sigma * outgoing
            for rate, cost, sigma, outgoing in zip(
                rates_before, self.costs, self.selectivities, self.sink
            )
        ]

    # -- residual (epsilon-bar) bounds --------------------------------------

    def residual_parts(
        self, placed_mask: int, last: int | None, last_rate: float, output_rate: float
    ) -> tuple[float, int | None, float]:
        """``(ε̄, critical service, last-service bound)`` for an arbitrary prefix.

        The arithmetic mirrors the formula documented in
        :mod:`repro.core.bounds` exactly (same expression shapes, same
        iteration order), operating on the pre-extracted arrays instead of the
        problem object.
        """
        size = self.size
        costs = self.costs
        selectivities = self.selectivities
        rows = self.rows
        sink = self.sink
        remaining = [index for index in range(size) if not placed_mask >> index & 1]

        last_bound = 0.0
        if last is not None and last >= 0 and remaining:
            worst = sink[last]
            row = rows[last]
            for destination in remaining:
                outgoing = row[destination]
                if outgoing > worst:
                    worst = outgoing
            last_bound = last_rate * (costs[last] + selectivities[last] * worst)

        proliferation = 1.0
        for index in remaining:
            sigma = selectivities[index]
            if sigma > 1.0:
                proliferation *= sigma

        best_value = last_bound
        critical: int | None = None
        for index in remaining:
            sigma = selectivities[index]
            inflation = proliferation / sigma if sigma > 1.0 else proliferation
            rate_bound = output_rate * inflation
            worst = sink[index]
            row = rows[index]
            for destination in remaining:
                if destination == index:
                    continue
                outgoing = row[destination]
                if outgoing > worst:
                    worst = outgoing
            term_bound = rate_bound * (costs[index] + sigma * worst)
            if term_bound > best_value:
                best_value = term_bound
                critical = index
        return best_value, critical, last_bound

    def residual(self, state: "PrefixState") -> tuple[float, int | None, float]:
        """``(ε̄, critical service, last-service bound)`` for ``state``."""
        return self.residual_parts(state.placed, state.last, state.rate, state.output_rate)

    def residual_value(self, state: "PrefixState") -> float:
        """Just the value of ``ε̄`` for ``state`` (Lemma 2's threshold)."""
        return self.residual(state)[0]

    def __repr__(self) -> str:
        return f"PlanEvaluator(size={self.size})"


class PrefixState:
    """An immutable plan prefix with O(1) extension — the library's one
    Eq. 1 prefix representation.

    A ``PrefixState`` stores only the O(1) quantities the searches consult —
    the last service, its input rate, the output rate, the running
    bottleneck maximum ``ε`` and its position — plus a parent link from which
    the full order is reconstructed on demand (only when a plan is recorded).
    ``placed`` is a bitmask, so membership and precedence tests are integer
    operations.

    No validation is performed; the constructive searches guarantee
    permutations by construction.
    """

    __slots__ = (
        "evaluator",
        "parent",
        "last",
        "length",
        "placed",
        "rate",
        "output_rate",
        "settled_max",
        "settled_position",
        "epsilon",
        "bottleneck_position",
    )

    def __init__(
        self,
        evaluator: PlanEvaluator,
        parent: "PrefixState | None",
        last: int,
        length: int,
        placed: int,
        rate: float,
        output_rate: float,
        settled_max: float,
        settled_position: int,
        epsilon: float,
        bottleneck_position: int,
    ) -> None:
        self.evaluator = evaluator
        self.parent = parent
        self.last = last
        self.length = length
        self.placed = placed
        self.rate = rate
        self.output_rate = output_rate
        self.settled_max = settled_max
        self.settled_position = settled_position
        self.epsilon = epsilon
        self.bottleneck_position = bottleneck_position

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether no service has been placed yet."""
        return self.length == 0

    @property
    def is_complete(self) -> bool:
        """Whether every service of the problem has been placed."""
        return self.length == self.evaluator.size

    @property
    def order(self) -> tuple[int, ...]:
        """The prefix's service indices, reconstructed from the parent chain."""
        reversed_order = []
        state: PrefixState | None = self
        while state is not None and state.length:
            reversed_order.append(state.last)
            state = state.parent
        reversed_order.reverse()
        return tuple(reversed_order)

    def remaining(self) -> list[int]:
        """Indices of the services not yet placed, in index order."""
        placed = self.placed
        return [index for index in range(self.evaluator.size) if not placed >> index & 1]

    def allowed_extensions(self) -> list[int]:
        """Remaining services that may legally come next (honouring precedence)."""
        placed = self.placed
        size = self.evaluator.size
        masks = self.evaluator.predecessor_masks
        if masks is None:
            return [index for index in range(size) if not placed >> index & 1]
        return [
            index
            for index in range(size)
            if not placed >> index & 1 and not masks[index] & ~placed
        ]

    # -- extension ---------------------------------------------------------

    def extend(self, service_index: int) -> "PrefixState":
        """The prefix obtained by appending ``service_index`` — O(1).

        Appending settles the previous last service's term (its outgoing
        transfer is now known) and adds the new service's processing-only
        term — or its full term including the sink transfer when the
        extension completes the plan, so a complete state's ``epsilon`` *is*
        the plan's bottleneck cost.
        """
        if _profile is not None:
            _profile.delta_evaluations += 1
        evaluator = self.evaluator
        costs = evaluator.costs
        selectivities = evaluator.selectivities

        settled_max = self.settled_max
        settled_position = self.settled_position
        length = self.length
        if length:
            last = self.last
            rate = self.rate
            settled_term = (
                rate * costs[last]
                + rate * selectivities[last] * evaluator.rows[last][service_index]
            )
            if settled_term > settled_max:
                settled_max = settled_term
                settled_position = length - 1

        new_rate = self.output_rate
        if length + 1 == evaluator.size:
            partial_term = (
                new_rate * costs[service_index]
                + new_rate * selectivities[service_index] * evaluator.sink[service_index]
            )
        else:
            partial_term = new_rate * costs[service_index]

        if settled_max >= partial_term:
            epsilon = settled_max
            bottleneck_position = settled_position
        else:
            epsilon = partial_term
            bottleneck_position = length

        return PrefixState(
            evaluator,
            self,
            service_index,
            length + 1,
            self.placed | (1 << service_index),
            new_rate,
            new_rate * selectivities[service_index],
            settled_max,
            settled_position,
            epsilon,
            bottleneck_position,
        )

    def __repr__(self) -> str:
        return f"PrefixState(order={self.order!r}, epsilon={self.epsilon:.6g})"


class NeighborhoodEvaluator:
    """Delta evaluation of swap and relocate/insert moves around one base plan.

    Precomputes, for the base order, the per-position input rates, stage
    terms, and prefix/suffix running maxima.  A move's cost then only
    re-scores the window of positions whose term can change:

    * the scan starts at the position *before* the first touched index (its
      transfer target changed) and reuses the prefix maximum up to there;
    * past the last touched index the scan stops as soon as the recomputed
      input rate is bitwise equal to the base rate at that position — from
      there on every term is identical, so the precomputed suffix maximum
      finishes the evaluation (*rate stabilization*);
    * an optional ``bound`` (the incumbent) aborts the scan the moment the
      running maximum meets it.

    Unbounded move costs are bit-identical to evaluating the moved order from
    scratch; bounded calls return an exact cost when the result is below the
    bound and a valid lower bound otherwise.
    """

    __slots__ = (
        "evaluator",
        "order",
        "size",
        "rates",
        "terms",
        "prefix_max",
        "suffix_max",
        "before_masks",
        "cost",
    )

    def __init__(self, evaluator: PlanEvaluator, order: tuple[int, ...]) -> None:
        self.evaluator = evaluator
        self.order = order
        size = len(order)
        self.size = size
        costs = evaluator.costs
        selectivities = evaluator.selectivities
        rows = evaluator.rows
        sink = evaluator.sink

        rates = [1.0] * size
        terms = [0.0] * size
        rate = 1.0
        last_position = size - 1
        for position, service in enumerate(order):
            rates[position] = rate
            if position < last_position:
                outgoing = rows[service][order[position + 1]]
            else:
                outgoing = sink[service]
            terms[position] = rate * costs[service] + rate * selectivities[service] * outgoing
            rate = rate * selectivities[service]
        self.rates = rates
        self.terms = terms

        prefix_max = [_NEG_INF] * (size + 1)
        for position in range(size):
            term = terms[position]
            prefix_max[position + 1] = term if term > prefix_max[position] else prefix_max[position]
        suffix_max = [_NEG_INF] * (size + 1)
        for position in range(size - 1, -1, -1):
            term = terms[position]
            tail = suffix_max[position + 1]
            suffix_max[position] = term if term > tail else tail
        self.prefix_max = prefix_max
        self.suffix_max = suffix_max
        self.cost = prefix_max[size]

        if evaluator.predecessor_masks is not None:
            before_masks = [0] * size
            mask = 0
            for position, service in enumerate(order):
                before_masks[position] = mask
                mask |= 1 << service
            self.before_masks: list[int] | None = before_masks
        else:
            self.before_masks = None

    # -- move materialization ----------------------------------------------

    def swapped(self, i: int, j: int) -> tuple[int, ...]:
        """The base order with positions ``i`` and ``j`` exchanged."""
        moved = list(self.order)
        moved[i], moved[j] = moved[j], moved[i]
        return tuple(moved)

    def relocated(self, i: int, j: int) -> tuple[int, ...]:
        """The base order with the service at position ``i`` moved to position ``j``."""
        moved = list(self.order)
        moved.insert(j, moved.pop(i))
        return tuple(moved)

    # -- move costs ---------------------------------------------------------

    def swap_cost(self, i: int, j: int, bound: float = _INF) -> float:
        """Bottleneck cost of :meth:`swapped`\\ ``(i, j)`` by delta evaluation."""
        if i == j:
            return self.cost
        if i > j:
            i, j = j, i
        moved = list(self.order)
        moved[i], moved[j] = moved[j], moved[i]
        return self._scan(moved, i - 1 if i else 0, j, bound)

    def relocate_cost(self, i: int, j: int, bound: float = _INF) -> float:
        """Bottleneck cost of :meth:`relocated`\\ ``(i, j)`` by delta evaluation."""
        if i == j:
            return self.cost
        moved = list(self.order)
        moved.insert(j, moved.pop(i))
        low = i if i < j else j
        high = j if i < j else i
        return self._scan(moved, low - 1 if low else 0, high, bound)

    insert_cost = relocate_cost
    """Alias: an *insert* move is a relocate of one service to a new position."""

    def _scan(self, moved: list[int], start: int, high: int, bound: float) -> float:
        """Re-score ``moved`` from ``start``; positions past ``high`` match the base."""
        if _profile is not None:
            _profile.delta_evaluations += 1
        evaluator = self.evaluator
        costs = evaluator.costs
        selectivities = evaluator.selectivities
        rows = evaluator.rows
        sink = evaluator.sink
        rates = self.rates
        suffix_max = self.suffix_max
        size = self.size
        last_position = size - 1

        running = self.prefix_max[start]
        rate = rates[start]
        for position in range(start, size):
            service = moved[position]
            if position < last_position:
                outgoing = rows[service][moved[position + 1]]
            else:
                outgoing = sink[service]
            term = rate * costs[service] + rate * selectivities[service] * outgoing
            if term > running:
                running = term
                if running >= bound:
                    return running
            rate = rate * selectivities[service]
            following = position + 1
            if following > high and following < size and rate == rates[following]:
                # Rate stabilized bitwise: every remaining term equals the
                # base plan's, so the precomputed suffix maximum is exact.
                tail = suffix_max[following]
                return tail if tail > running else running
        return running

    # -- move feasibility ----------------------------------------------------

    def swap_feasible(self, i: int, j: int) -> bool:
        """Whether :meth:`swapped`\\ ``(i, j)`` satisfies the precedence constraints."""
        masks = self.evaluator.predecessor_masks
        if masks is None:
            return True
        if i > j:
            i, j = j, i
        order = self.order
        assert self.before_masks is not None
        placed = self.before_masks[i]
        for position in range(i, j + 1):
            if position == i:
                service = order[j]
            elif position == j:
                service = order[i]
            else:
                service = order[position]
            if masks[service] & ~placed:
                return False
            placed |= 1 << service
        return True

    def relocate_feasible(self, i: int, j: int) -> bool:
        """Whether :meth:`relocated`\\ ``(i, j)`` satisfies the precedence constraints."""
        masks = self.evaluator.predecessor_masks
        if masks is None:
            return True
        if i == j:
            return True
        order = self.order
        moved_service = order[i]
        low = i if i < j else j
        high = j if i < j else i
        assert self.before_masks is not None
        placed = self.before_masks[low]
        if i < j:
            for position in range(low, high + 1):
                service = moved_service if position == j else order[position + 1]
                if masks[service] & ~placed:
                    return False
                placed |= 1 << service
        else:
            for position in range(low, high + 1):
                service = moved_service if position == j else order[position - 1]
                if masks[service] & ~placed:
                    return False
                placed |= 1 << service
        return True

    def __repr__(self) -> str:
        return f"NeighborhoodEvaluator(size={self.size}, cost={self.cost:.6g})"
