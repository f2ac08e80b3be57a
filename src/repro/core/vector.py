"""The vectorized kernel (optional numpy fast path) and kernel selection.

Every optimizer is written once against a small kernel contract with two
implementations: the scalar :class:`~repro.core.evaluation.PlanEvaluator`
(pure Python, always available) and :class:`BatchEvaluator` here, which
scores an entire candidate *set* per call with numpy:

* ``score_front(front, final)`` — every feasible one-service extension of a
  beam front of :class:`~repro.core.evaluation.PrefixState` objects, as flat
  ``(parents, extensions, epsilons)`` in generation order;
* ``rank(values)`` — a stable ascending ranking of those epsilons;
* ``cost(order)`` and ``best_neighbor(order, bound)`` — one complete plan,
  and the steepest improving swap/relocate move around it;
* ``dp_tables`` / ``relax_layer`` / ``completion_terms`` — one popcount
  layer of the subset DP (here built on :meth:`BatchEvaluator.transition_terms`).

:meth:`BatchEvaluator.score_orders` additionally scores a matrix of complete
plans in a handful of array operations.

Bit-identity with the scalar kernel
-----------------------------------

numpy's elementwise double arithmetic applies the same IEEE-754 operations
as Python floats, one rounding per operation and no fused multiply-adds, and
``np.cumprod`` accumulates strictly left to right — so every expression here
keeps the scalar kernel's exact shapes (``rate * c + (rate * sigma) * t``,
rates as a left-to-right multiplication chain) and returns *the same float,
bit for bit*, as the scalar kernel and hence as
:func:`repro.core.cost_model.bottleneck_cost`.  The property-based tests
assert this with ``==``, and the optimizers return the same plans and
search statistics on both kernels.

Kernel selection and thread safety
----------------------------------

numpy is an **optional** dependency (``pip install repro[fast]``): without
it everything runs on the scalar kernel.  :func:`evaluation_kernel` hands an
optimizer run its kernel; it is the only code that turns a kernel name into
a kernel.  The name is resolved by :func:`resolve_kernel` from, in order of
precedence: an explicit per-call/per-optimizer request,
:func:`set_default_kernel` (which also exports ``REPRO_KERNEL`` so
optimizer-pool and shard processes inherit the choice), the
``REPRO_KERNEL`` environment variable, and finally ``auto`` — the vector
kernel when numpy is importable *and* the instance is big enough to win
(``size >= AUTO_MIN_SIZE``; below that, numpy call overhead dominates and
the scalar kernel is faster).  Requesting ``vector`` without numpy raises a
clean :class:`~repro.exceptions.KernelError`.  numpy is imported the first
time a kernel resolves to ``vector``, so a process that only ever scores on
the scalar kernel never pays numpy's import time or memory.  The read-only
arrays and the move table are built once per problem and shared; each
optimizer run gets its own :class:`BatchEvaluator` and hence its own scratch
workspaces, so portfolio members racing on threads over one problem never
share mutable state.
"""

from __future__ import annotations

import importlib.util
import os
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.evaluation import kernel_profile
from repro.exceptions import KernelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.evaluation import PlanEvaluator, PrefixState
    from repro.core.problem import OrderingProblem

__all__ = [
    "KERNELS",
    "AUTO_MIN_SIZE",
    "MAX_VECTOR_SIZE",
    "BatchEvaluator",
    "batch_evaluator",
    "evaluation_kernel",
    "numpy_available",
    "default_kernel",
    "set_default_kernel",
    "resolve_kernel",
]

KERNELS = ("auto", "scalar", "vector")
"""Accepted kernel names: ``auto`` resolves to one of the other two."""

AUTO_MIN_SIZE = 10
"""Smallest problem size at which ``auto`` picks the vector kernel.  Below
this the candidate sets are so small that numpy call overhead exceeds the
loop it replaces; the crossover was measured in ``benchmarks/bench_vector.py``."""

MAX_VECTOR_SIZE = 62
"""Largest problem the vector kernel accepts: placed/predecessor bitmasks
are held in int64 arrays (the scalar kernel's Python ints are unbounded)."""

_ENV_VAR = "REPRO_KERNEL"

_INF = float("inf")

_DP_CHUNK_MASKS = 4096
"""Masks per batched chunk of a DP layer, bounding the transient term and
candidate matrices to a few tens of MB at the largest supported n."""

_default_kernel: str | None = None
"""In-process override set by :func:`set_default_kernel` (wins over the env var)."""

np: Any = None
"""The numpy module once :func:`_import_numpy` has imported it."""

_numpy_missing = False
"""Whether importing numpy failed (it is optional)."""


def _import_numpy() -> Any:
    """numpy, imported on first use; ``None`` when it is not installed."""
    global np, _numpy_missing
    if np is None and not _numpy_missing:
        try:  # numpy is optional: the scalar kernel is the always-available fallback.
            import numpy
        except ImportError:
            _numpy_missing = True
        else:
            np = numpy
    return np


# -- kernel selection -------------------------------------------------------


def numpy_available() -> bool:
    """Whether numpy is installed, i.e. whether the vector kernel can run at all.

    Answered without importing numpy when it has not been imported yet.
    """
    if np is not None or _numpy_missing:
        return np is not None
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:
        return False


def _validate(name: str) -> str:
    if name not in KERNELS:
        raise KernelError(
            f"unknown evaluation kernel {name!r}; available: {', '.join(KERNELS)}"
        )
    return name


def default_kernel() -> str:
    """The configured process-wide default kernel name (may be ``auto``).

    Precedence: :func:`set_default_kernel` > the ``REPRO_KERNEL`` environment
    variable > ``auto``.  A malformed environment value raises, so a typo in a
    deployment manifest fails loudly instead of silently running scalar.
    """
    if _default_kernel is not None:
        return _default_kernel
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env:
        return _validate(env)
    return "auto"


def set_default_kernel(name: str | None) -> str:
    """Set the process-wide default kernel; returns the stored name.

    ``None`` clears the override (back to env var / ``auto``).  The choice is
    also exported as ``REPRO_KERNEL``, so worker processes started afterwards
    (optimizer pool, process shards — fork or spawn alike) inherit it
    transparently.
    """
    global _default_kernel
    if name is None:
        _default_kernel = None
        os.environ.pop(_ENV_VAR, None)
        return "auto"
    name = _validate(name.strip().lower())
    _default_kernel = name
    os.environ[_ENV_VAR] = name
    return name


def resolve_kernel(name: str | None = None, size: int | None = None) -> str:
    """Resolve a kernel request to ``"scalar"`` or ``"vector"``.

    ``name=None`` consults :func:`default_kernel`.  ``auto`` picks the vector
    kernel only when numpy is available and the instance is big enough to win
    (``size`` is the problem size; ``None`` means "assume big").  An explicit
    ``"vector"`` request without numpy — or beyond :data:`MAX_VECTOR_SIZE` —
    raises :class:`~repro.exceptions.KernelError` instead of silently
    degrading.
    """
    requested = _validate(name.strip().lower()) if name is not None else default_kernel()
    if requested == "scalar":
        return "scalar"
    if requested == "vector":
        if _import_numpy() is None:
            raise KernelError(
                "the vector kernel requires numpy, which is not installed; "
                "install the optional extra (pip install repro-service-ordering[fast]) "
                "or select the scalar kernel"
            )
        if size is not None and size > MAX_VECTOR_SIZE:
            raise KernelError(
                f"the vector kernel supports at most {MAX_VECTOR_SIZE} services "
                f"(int64 feasibility bitmasks), the problem has {size}"
            )
        return "vector"
    # auto: pick whichever kernel is expected to win.
    if size is not None and (size < AUTO_MIN_SIZE or size > MAX_VECTOR_SIZE):
        return "scalar"
    return "vector" if _import_numpy() is not None else "scalar"


def evaluation_kernel(
    problem: "OrderingProblem", name: str | None = None, vector_limit: int = MAX_VECTOR_SIZE
) -> "PlanEvaluator | BatchEvaluator":
    """The kernel one optimizer run scores through — the only reader of a kernel name.

    ``name`` is resolved by :func:`resolve_kernel`; a problem larger than
    ``vector_limit`` stays on the scalar kernel (an optimizer whose vector
    path has a tighter memory bound than :data:`MAX_VECTOR_SIZE`).  The
    scalar kernel is the problem's cached, stateless
    :class:`~repro.core.evaluation.PlanEvaluator`; the vector kernel is a
    fresh :class:`BatchEvaluator` — its workspaces belong to this run alone,
    so optimizers racing on threads over one problem never share one.
    """
    evaluator = problem.evaluator()
    if resolve_kernel(name, problem.size) == "vector" and problem.size <= vector_limit:
        return BatchEvaluator(evaluator)
    return evaluator


def batch_evaluator(evaluator: "PlanEvaluator") -> "BatchEvaluator":
    """A :class:`BatchEvaluator` over ``evaluator``'s shared arrays, with its own workspaces."""
    return BatchEvaluator(evaluator)


def _count_batch(amount: int) -> None:
    """Profile hook: one counter bump of ``amount`` per batch call, so
    observability overhead does not scale with the batch size."""
    profile = kernel_profile()
    if profile is not None:
        profile.batch_evaluations += amount


# -- the batch evaluator ----------------------------------------------------


class _SharedArrays:
    """The read-only numpy views of one evaluator, built once per problem.

    Cached on the evaluator and shared by every :class:`BatchEvaluator`
    bound to it; nothing here is written after construction except the
    lazily-built move table, which is published by one assignment.
    """

    __slots__ = (
        "costs",
        "selectivities",
        "rows",
        "rows_flat",
        "sink",
        "predecessor_masks",
        "has_precedence",
        "service_bits",
        "moves",
    )

    def __init__(self, evaluator: "PlanEvaluator") -> None:
        size = evaluator.size
        self.costs = np.array(evaluator.costs, dtype=np.float64)
        self.selectivities = np.array(evaluator.selectivities, dtype=np.float64)
        self.rows = np.array(evaluator.rows, dtype=np.float64)
        self.rows_flat = np.ascontiguousarray(self.rows).reshape(-1)
        self.sink = np.array(evaluator.sink, dtype=np.float64)
        self.has_precedence = evaluator.predecessor_masks is not None
        masks = evaluator.predecessor_masks if self.has_precedence else (0,) * size
        self.predecessor_masks = np.array(masks, dtype=np.int64)
        self.service_bits = np.int64(1) << np.arange(size, dtype=np.int64)
        self.moves: "np.ndarray | None" = None


def _shared_arrays(evaluator: "PlanEvaluator") -> _SharedArrays:
    shared = evaluator.vector_arrays
    if shared is None:
        shared = evaluator.vector_arrays = _SharedArrays(evaluator)
    return shared


class BatchEvaluator:
    """The vector kernel: candidate-set scoring bound to one scalar evaluator.

    Implements the same kernel contract as
    :class:`~repro.core.evaluation.PlanEvaluator` (``score_front``,
    ``rank``, ``cost``, ``best_neighbor``, ``dp_tables``/``relax_layer``/
    ``completion_terms``) with numpy array operations.  The arrays are
    shared per problem; the scratch workspaces are this instance's own, so
    one instance must not be used from two threads at once — which
    :func:`evaluation_kernel` guarantees by building one per optimizer run.
    Like the scalar evaluator it never validates: callers feed candidate
    sets their search structure guarantees to be permutations (feasibility
    *is* checked where the method generates the candidates itself).
    Construction requires numpy; use :func:`resolve_kernel` first.
    """

    kernel_name = "vector"

    __slots__ = (
        "evaluator",
        "size",
        "shared",
        "costs",
        "selectivities",
        "rows",
        "sink",
        "predecessor_masks",
        "has_precedence",
        "_rows_flat",
        "_service_bits",
        "_order_ws",
        "_front_ws",
    )

    def __init__(self, evaluator: "PlanEvaluator") -> None:
        if _import_numpy() is None:
            raise KernelError(
                "the vector kernel requires numpy, which is not installed; "
                "install the optional extra (pip install repro-service-ordering[fast])"
            )
        if evaluator.size > MAX_VECTOR_SIZE:
            raise KernelError(
                f"the vector kernel supports at most {MAX_VECTOR_SIZE} services "
                f"(int64 feasibility bitmasks), the problem has {evaluator.size}"
            )
        shared = _shared_arrays(evaluator)
        self.evaluator = evaluator
        self.size = evaluator.size
        self.shared = shared
        self.costs = shared.costs
        self.selectivities = shared.selectivities
        self.rows = shared.rows
        self.sink = shared.sink
        self.predecessor_masks = shared.predecessor_masks
        self.has_precedence = shared.has_precedence
        self._rows_flat = shared.rows_flat
        self._service_bits = shared.service_bits
        # Single-slot workspaces: batch scoring is dominated by allocating
        # (batch, size) temporaries (fresh pages each call), and real callers
        # reuse one batch shape over and over — a hill climb always scores the
        # same move count, a beam search the same front width.
        self._order_ws: "tuple[int, tuple[np.ndarray, ...]] | None" = None
        self._front_ws: "tuple[int, tuple[np.ndarray, ...]] | None" = None

    def _order_workspace(self, batch: int) -> "tuple[np.ndarray, ...]":
        cached = self._order_ws
        if cached is not None and cached[0] == batch:
            return cached[1]
        shape = (batch, self.size)
        arrays = (
            np.empty(shape, dtype=np.float64),  # cost_seq
            np.empty(shape, dtype=np.float64),  # sel_seq
            np.empty(shape, dtype=np.float64),  # rates
            np.empty(shape, dtype=np.float64),  # outgoing
            np.empty((batch, max(self.size - 1, 1)), dtype=np.intp),  # flat transfer idx
        )
        self._order_ws = (batch, arrays)
        return arrays

    def _front_workspace(self, count: int) -> "tuple[np.ndarray, ...]":
        cached = self._front_ws
        if cached is not None and cached[0] == count:
            return cached[1]
        shape = (count, self.size)
        arrays = (
            np.empty(shape, dtype=np.float64),  # settled/epsilon terms
            np.empty(shape, dtype=np.float64),  # partial terms
            np.empty(shape, dtype=np.float64),  # rows gather
            np.empty(shape, dtype=bool),  # feasibility
            np.empty(shape, dtype=np.int64),  # placed-bit scratch
        )
        self._front_ws = (count, arrays)
        return arrays

    # -- complete-plan batches ---------------------------------------------

    def score_orders(self, orders) -> "np.ndarray":
        """Bottleneck costs of a ``(batch, size)`` matrix of complete plans.

        Bit-identical, per row, to :meth:`PlanEvaluator.cost` on the same
        order: rates come from a strictly sequential ``cumprod`` (the same
        left-to-right multiplication chain) and terms keep the scalar
        expression shapes.
        """
        orders = np.asarray(orders, dtype=np.intp)
        if orders.ndim == 1:
            orders = orders[None, :]
        batch, size = orders.shape
        _count_batch(batch)
        # All temporaries come from a reusable workspace: search loops score
        # the same batch shape over and over, and in-place ufuncs keep every
        # value bit-identical to the freshly-allocated expression.
        cost_seq, sel_seq, rates, outgoing, flat_idx = self._order_workspace(batch)
        np.take(self.costs, orders, out=cost_seq)
        np.take(self.selectivities, orders, out=sel_seq)
        rates[:, 0] = 1.0
        if size > 1:
            np.cumprod(sel_seq[:, :-1], axis=1, out=rates[:, 1:])
            np.multiply(orders[:, :-1], size, out=flat_idx)
            np.add(flat_idx, orders[:, 1:], out=flat_idx)
            np.take(self._rows_flat, flat_idx, out=outgoing[:, :-1])
        np.take(self.sink, orders[:, -1], out=outgoing[:, -1])
        np.multiply(rates, cost_seq, out=cost_seq)
        np.multiply(rates, sel_seq, out=sel_seq)
        np.multiply(sel_seq, outgoing, out=sel_seq)
        np.add(cost_seq, sel_seq, out=cost_seq)
        return cost_seq.max(axis=1)

    def cost(self, order: Sequence[int]) -> float:
        """Bottleneck cost of one complete plan: the scalar loop is the
        cheaper (and bit-identical) way to score a single order."""
        return self.evaluator.cost(order)

    def feasible_orders(self, orders) -> "np.ndarray":
        """Boolean mask: which rows of ``orders`` satisfy the precedence DAG."""
        orders = np.asarray(orders, dtype=np.intp)
        if orders.ndim == 1:
            orders = orders[None, :]
        batch, size = orders.shape
        if not self.has_precedence:
            return np.ones(batch, dtype=bool)
        bits = np.int64(1) << orders.astype(np.int64)
        placed_before = np.zeros((batch, size), dtype=np.int64)
        if size > 1:
            np.bitwise_or.accumulate(bits[:, :-1], axis=1, out=placed_before[:, 1:])
        required = self.predecessor_masks[orders]
        return ((required & ~placed_before) == 0).all(axis=1)

    # -- beam fronts --------------------------------------------------------

    def score_front(
        self, front: Sequence["PrefixState"], final: bool
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Score every feasible one-service extension of a prefix front.

        All states must share one length (a beam level); ``final`` says the
        extensions complete the plan (their term then includes the sink
        transfer).  Returns ``(parents, extensions, epsilons)`` — flat arrays
        over the feasible children in generation order (parent-major,
        extension index ascending), exactly the order the scalar double loop
        produces them in.  Each epsilon is bit-identical to
        ``front[parent].extend(extension).epsilon``.
        """
        # One flat-list conversion per dtype instead of one per field:
        # gathering the front is a large share of a small front's cost.
        count = len(front)
        ints = np.array(
            [state.last for state in front] + [state.placed for state in front], dtype=np.int64
        )
        floats = np.array(
            [state.rate for state in front]
            + [state.output_rate for state in front]
            + [state.settled_max for state in front],
            dtype=np.float64,
        )
        last, placed = ints.reshape(2, count)
        rate, output_rate, settled_max = floats.reshape(3, count)
        terms, partial, gathered, feasible, bit_scratch = self._front_workspace(count)

        np.bitwise_and(placed[:, None], self._service_bits, out=bit_scratch)
        np.equal(bit_scratch, 0, out=feasible)
        if self.has_precedence:
            feasible &= (self.predecessor_masks[None, :] & ~placed[:, None]) == 0

        # The parent's last term settles: rate * c_last + (rate * sigma_last) * t.
        # Every in-place ufunc keeps the scalar expression's association, so
        # the workspace buys speed, not drift.
        if last.min(initial=0) >= 0:
            np.take(self.rows, last, axis=0, out=gathered)
            np.multiply((rate * self.selectivities[last])[:, None], gathered, out=terms)
            np.add((rate * self.costs[last])[:, None], terms, out=terms)
            np.maximum(settled_max[:, None], terms, out=terms)
        else:
            # Roots have no last service: nothing settles, the running max
            # carries.  Only the first beam level lands here; stay simple.
            has_last = last >= 0
            anchor = np.where(has_last, last, 0)
            settled = (rate * self.costs[anchor])[:, None] + (
                rate * self.selectivities[anchor]
            )[:, None] * self.rows[anchor]
            np.maximum(settled_max[:, None], settled, out=terms)
            terms[~has_last] = settled_max[~has_last, None]

        # The new service's partial term (full term, with sink, when final).
        if final:
            np.multiply(output_rate[:, None], self.selectivities[None, :], out=partial)
            np.multiply(partial, self.sink[None, :], out=partial)
            np.multiply(output_rate[:, None], self.costs[None, :], out=gathered)
            np.add(gathered, partial, out=partial)
        else:
            np.multiply(output_rate[:, None], self.costs[None, :], out=partial)
        np.maximum(terms, partial, out=terms)

        parents, extensions = np.nonzero(feasible)
        _count_batch(len(parents))
        return parents, extensions, terms[parents, extensions]

    @staticmethod
    def rank(values) -> list[int]:
        """Positions of ``values`` in ascending order, ties in input order."""
        return np.argsort(values, kind="stable").tolist()

    # -- swap/relocate neighbourhoods ---------------------------------------

    def _moves(self) -> "np.ndarray":
        """The neighbourhood's gather table, built once per problem.

        Row ``m`` maps candidate positions to base positions: applying move
        ``m`` to a base order is one fancy-indexing ``base[gather[m]]``.
        Moves are enumerated exactly like the scalar
        :meth:`~repro.core.evaluation.PlanEvaluator.best_neighbor`: swaps
        ``(i, j)`` with ``i < j`` first, then relocates ``(i, j)`` with
        ``i != j`` — so "first index attaining the minimum" means the same
        move in both kernels.
        """
        moves = self.shared.moves
        if moves is None:
            size = self.size
            identity = list(range(size))
            gathers: list[list[int]] = []
            for i in range(size):
                for j in range(i + 1, size):
                    row = identity.copy()
                    row[i], row[j] = row[j], row[i]
                    gathers.append(row)
            for i in range(size):
                for j in range(size):
                    if i == j:
                        continue
                    row = identity.copy()
                    row.insert(j, row.pop(i))
                    gathers.append(row)
            moves = self.shared.moves = np.array(gathers, dtype=np.intp)
        return moves

    def neighborhood_orders(self, order: Sequence[int]) -> "np.ndarray":
        """All swap/relocate candidates of ``order`` as a ``(moves, size)`` matrix."""
        base = np.asarray(order, dtype=np.intp)
        return base[self._moves()]

    def best_neighbor(
        self, order: Sequence[int], bound: float
    ) -> tuple[tuple[int, ...] | None, float, int]:
        """The steepest feasible move from ``order``, if any beats ``bound``.

        Returns ``(best order or None, its cost, feasible-move count)``.
        Matches the scalar hill-climbing step bit for bit: same enumeration
        order, same costs, and ties broken towards the first move attaining
        the minimum (``argmin`` returns the first occurrence, the scalar loop
        only replaces on strict improvement).
        """
        if self.size < 2:
            return None, bound, 0
        candidates = self.neighborhood_orders(order)
        feasible = self.feasible_orders(candidates)
        evaluated = int(feasible.sum())
        if not evaluated:
            return None, bound, 0
        costs = self.score_orders(candidates)
        costs[~feasible] = np.inf
        winner = int(costs.argmin())
        best_cost = float(costs[winner])
        if not best_cost < bound:
            return None, bound, evaluated
        return tuple(int(index) for index in candidates[winner]), best_cost, evaluated

    # -- dynamic-programming layers ------------------------------------------

    def transition_terms(self, rates_before, lasts) -> "np.ndarray":
        """Settled-term matrix of a batch of ``(mask, last)`` DP states.

        Entry ``[s, next]`` is the term the state's last service settles to
        when ``next`` is appended: ``rate * c_last + (rate * sigma_last) *
        t[last, next]`` — the exact expression shape of the scalar DP
        transition loop, for every successor of every state at once.
        """
        rates_before = np.asarray(rates_before, dtype=np.float64)
        lasts = np.asarray(lasts, dtype=np.intp)
        _count_batch(len(lasts))
        return (rates_before * self.costs[lasts])[:, None] + (
            rates_before * self.selectivities[lasts]
        )[:, None] * self.rows[lasts]

    def completion_terms(self, rates_before) -> "np.ndarray":
        """Final-stage terms ``rate * c_i + (rate * sigma_i) * sink_i`` per service."""
        rates_before = np.asarray(rates_before, dtype=np.float64)
        _count_batch(len(rates_before))
        return rates_before * self.costs + (rates_before * self.selectivities) * self.sink

    def dp_tables(self, products: Sequence[float]):
        """Dense ``(2^n, n)`` value/parent tables and the subset products as arrays."""
        cells = (1 << self.size, self.size)
        return (
            np.full(cells, _INF, dtype=np.float64),
            np.full(cells, -1, dtype=np.int32),
            np.asarray(products, dtype=np.float64),
        )

    def relax_layer(self, values, parents, products, layer) -> "tuple[np.ndarray, int, int]":
        """Relax every state of one popcount layer; see
        :meth:`~repro.core.evaluation.PlanEvaluator.relax_layer`.

        The layer's ``(mask, last)`` states become one settled-term matrix
        (:meth:`transition_terms`) per chunk of masks, and grouped
        ``minimum.reduceat`` reductions write every next-layer cell.  Each
        target cell ``(mask | bit(next), next)`` has a unique source mask, so
        its value is a min over one group, and taking the first row of the
        group attaining it reproduces the scalar strict-improvement parent
        (last ascending).  Every write reaches a new cell, so the write count
        is returned for both ``reached`` and ``improved``.
        """
        layer = np.asarray(layer, dtype=np.int64)
        bits = self._service_bits
        reached = 0
        next_masks: list[np.ndarray] = []
        for start in range(0, layer.size, _DP_CHUNK_MASKS):
            chunk = layer[start : start + _DP_CHUNK_MASKS]
            value_rows = values[chunk]
            # Row-major nonzero: states come out (mask ascending, last
            # ascending) — the order the parent tie-break relies on.
            group_ids, lasts = np.nonzero(np.isfinite(value_rows))
            state_values = value_rows[group_ids, lasts]
            state_masks = chunk[group_ids]
            rates_before = products[state_masks ^ (np.int64(1) << lasts)]
            terms = self.transition_terms(rates_before, lasts)
            candidates = np.maximum(state_values[:, None], terms, out=terms)

            # Every chunk mask has at least one finite state (it was
            # reached), so group g of the reduceat output is chunk[g].
            starts = np.flatnonzero(np.concatenate(([True], group_ids[1:] != group_ids[:-1])))
            mins = np.minimum.reduceat(candidates, starts, axis=0)
            # First state row attaining each group minimum = the scalar
            # strict-improvement winner (lasts ascend within a mask).
            row_index = np.arange(len(group_ids))
            hits = np.where(candidates == mins[group_ids], row_index[:, None], len(group_ids))
            first_rows = np.minimum.reduceat(hits, starts, axis=0)
            winning_last = lasts[np.minimum(first_rows, len(group_ids) - 1)]

            feasible = ((chunk[:, None] & bits[None, :]) == 0) & (
                (self.predecessor_masks[None, :] & ~chunk[:, None]) == 0
            )
            target_rows, target_cols = np.nonzero(feasible)
            if not target_rows.size:
                continue
            target_masks = chunk[target_rows] | bits[target_cols]
            # Each target cell has a unique source mask, so these writes
            # never collide — plain scatter assignment is the full relax.
            values[target_masks, target_cols] = mins[target_rows, target_cols]
            parents[target_masks, target_cols] = winning_last[target_rows, target_cols]
            reached += target_rows.size
            next_masks.append(target_masks)
        if not next_masks:
            return np.array([], dtype=np.int64), 0, 0
        return np.unique(np.concatenate(next_masks)), reached, reached

    def __repr__(self) -> str:
        return f"BatchEvaluator(size={self.size})"
