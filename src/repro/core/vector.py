"""The vectorized subset-DP kernel (optional numpy fast path) and its selection.

:class:`~repro.core.dynamic_programming.DynamicProgrammingOptimizer` drives
the subset/last-service programme through three methods of its kernel:
``dp_tables`` allocates the value/parent tables, ``relax_layer`` relaxes one
popcount layer, and ``completion_terms`` scores the final stage.  The scalar
kernel is :class:`~repro.core.evaluation.PlanEvaluator` (pure Python, always
available); :class:`BatchEvaluator` here is the vector kernel, which turns a
whole layer into one ``states × services`` settled-term matrix
(:meth:`BatchEvaluator.transition_terms`) and writes the next layer with
grouped ``minimum.reduceat`` reductions.  Every other optimizer scores
through the scalar evaluator alone: on beam search, branch-and-bound and
hill climbing the vector kernel ran at 0.65–1.13x the speed of scalar, while
whole vector DP runs are 3.1–4.5x faster at n = 10…16
(``benchmarks/BENCH_vector.json``).

Bit-identity with the scalar kernel
-----------------------------------

numpy's elementwise double arithmetic applies the same IEEE-754 operations
as Python floats, one rounding per operation and no fused multiply-adds, so
every expression here keeps the scalar kernel's exact shape
(``rate * c + (rate * sigma) * t``) and returns *the same float, bit for
bit*.  The subset selectivity products are built once, in Python, by the DP
driver.  The property-based tests assert with ``==`` that both kernels
return the same plan, cost and ``dp_states``.

Kernel selection
----------------

numpy is an **optional** dependency (``pip install repro[fast]``): without
it the DP runs on the scalar kernel.  :func:`evaluation_kernel` hands a DP
run its kernel; it is the only code that turns a kernel name into a kernel.
The name is resolved by :func:`resolve_kernel` from, in order of
precedence: an explicit per-optimizer request, :func:`set_default_kernel`
(which also exports ``REPRO_KERNEL`` so optimizer-pool and shard processes
inherit the choice), the ``REPRO_KERNEL`` environment variable, and finally
``auto`` — the vector kernel when numpy is importable *and* the instance
lies in ``AUTO_MIN_SIZE`` … ``_VECTOR_DP_MAX_SIZE``.  Requesting ``vector``
without numpy, or past ``_VECTOR_DP_MAX_SIZE``, raises a clean
:class:`~repro.exceptions.KernelError`.  numpy is imported the first time a
kernel resolves to ``vector``, so a process that never runs a vector DP —
every served request, for one — never pays numpy's import time or memory.
"""

from __future__ import annotations

import importlib.util
import os
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.evaluation import kernel_profile
from repro.exceptions import KernelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.evaluation import PlanEvaluator
    from repro.core.problem import OrderingProblem

__all__ = [
    "KERNELS",
    "AUTO_MIN_SIZE",
    "BatchEvaluator",
    "evaluation_kernel",
    "numpy_available",
    "default_kernel",
    "set_default_kernel",
    "resolve_kernel",
]

KERNELS = ("auto", "scalar", "vector")
"""Accepted kernel names: ``auto`` resolves to one of the other two."""

AUTO_MIN_SIZE = 8
"""Smallest problem size at which ``auto`` picks the vector DP.  Whole DP
runs on ``hard_problem`` (``benchmarks/bench_vector.py``) break even near
n = 7 (0.89–1.18x over repeated runs) and the vector run wins from n = 8 on
(1.4–1.8x at 8, 3.1x and more from 10); below that numpy's per-call
overhead exceeds the Python loops it replaces."""

_VECTOR_DP_MAX_SIZE = 20
"""Largest instance the vector DP takes on: it keeps dense ``(2^n, n)``
value/parent tables, ~250 MB at n=20.  Beyond that (only reachable with an
explicit ``max_size`` override) ``auto`` stays on the lazily-allocated
scalar sweep, the safer memory trade."""

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
    kernel only when numpy is available and the instance lies in
    :data:`AUTO_MIN_SIZE` … ``_VECTOR_DP_MAX_SIZE`` (``size`` is the problem
    size; ``None`` means "assume in range").  An explicit ``"vector"``
    request without numpy — or past ``_VECTOR_DP_MAX_SIZE`` — raises
    :class:`~repro.exceptions.KernelError` instead of silently degrading.
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
        if size is not None and size > _VECTOR_DP_MAX_SIZE:
            raise KernelError(
                f"the vector kernel supports at most {_VECTOR_DP_MAX_SIZE} services "
                f"(dense (2^n, n) DP tables), the problem has {size}"
            )
        return "vector"
    # auto: pick whichever kernel is expected to win.
    if size is not None and not AUTO_MIN_SIZE <= size <= _VECTOR_DP_MAX_SIZE:
        return "scalar"
    return "vector" if _import_numpy() is not None else "scalar"


def evaluation_kernel(
    problem: "OrderingProblem", name: str | None = None
) -> "PlanEvaluator | BatchEvaluator":
    """The kernel one DP run relaxes through — the only reader of a kernel name.

    ``name`` is resolved by :func:`resolve_kernel`.  The scalar kernel is
    the problem's cached, stateless
    :class:`~repro.core.evaluation.PlanEvaluator`; the vector kernel is a
    fresh :class:`BatchEvaluator` over it.
    """
    evaluator = problem.evaluator()
    if resolve_kernel(name, problem.size) == "vector":
        return BatchEvaluator(evaluator)
    return evaluator


def _count_batch(amount: int) -> None:
    """Profile hook: one counter bump of ``amount`` per batch call, so
    observability overhead does not scale with the batch size."""
    profile = kernel_profile()
    if profile is not None:
        profile.batch_evaluations += amount


# -- the batch evaluator ----------------------------------------------------


class BatchEvaluator:
    """The vector subset-DP kernel, built from one scalar evaluator.

    Implements the DP half of :class:`~repro.core.evaluation.PlanEvaluator`
    (``dp_tables``/``relax_layer``/``completion_terms``) with numpy array
    operations over read-only copies of the evaluator's arrays.  Construction
    requires numpy; use :func:`resolve_kernel` first.
    """

    kernel_name = "vector"

    __slots__ = (
        "size",
        "costs",
        "selectivities",
        "rows",
        "sink",
        "predecessor_masks",
        "_service_bits",
    )

    def __init__(self, evaluator: "PlanEvaluator") -> None:
        if _import_numpy() is None:
            raise KernelError(
                "the vector kernel requires numpy, which is not installed; "
                "install the optional extra (pip install repro-service-ordering[fast])"
            )
        size = evaluator.size
        if size > _VECTOR_DP_MAX_SIZE:
            raise KernelError(
                f"the vector kernel supports at most {_VECTOR_DP_MAX_SIZE} services "
                f"(dense (2^n, n) DP tables), the problem has {size}"
            )
        self.size = size
        self.costs = np.array(evaluator.costs, dtype=np.float64)
        self.selectivities = np.array(evaluator.selectivities, dtype=np.float64)
        self.rows = np.array(evaluator.rows, dtype=np.float64)
        self.sink = np.array(evaluator.sink, dtype=np.float64)
        masks = evaluator.predecessor_masks or (0,) * size
        self.predecessor_masks = np.array(masks, dtype=np.int64)
        self._service_bits = np.int64(1) << np.arange(size, dtype=np.int64)

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
