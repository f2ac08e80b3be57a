"""The bottleneck cost model of the paper (Eq. 1) and communication costs.

The response time of a pipelined, decentralized plan ``S = (s_0, ..., s_{n-1})``
is determined by its slowest stage:

``cost(S) = max_i  ( prod_{k < i} sigma_{s_k} ) * ( c_{s_i} + sigma_{s_i} * t_{s_i, s_{i+1}} )``

where the last service has no successor; its term is ``prod * c`` plus an
optional transfer to the consumer/sink when the problem models one.

This module provides

* :class:`CommunicationCostMatrix` — validated pairwise per-tuple transfer
  costs ``t_{i,j}`` (possibly asymmetric, zero diagonal),
* term/bottleneck computations used by every optimizer, and
* plan-level diagnostics (per-stage breakdown, bottleneck position).

These from-scratch functions are the *validated public boundary* of the cost
model and the oracle of the property-based tests.  The optimizers' inner
loops run on the incremental kernel in :mod:`repro.core.evaluation`, which
reproduces this module's floating-point arithmetic bit for bit but skips
validation and per-stage object construction; any change to the term
expressions here must be mirrored there (the kernel's property tests assert
exact agreement, so a divergence fails loudly).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

from repro.exceptions import InvalidCostMatrixError, InvalidPlanError
from repro.utils.validation import require_non_negative

__all__ = [
    "CommunicationCostMatrix",
    "StageCost",
    "stage_costs",
    "bottleneck_cost",
    "bottleneck_stage",
    "prefix_products",
]


class CommunicationCostMatrix:
    """Per-tuple transfer costs ``t_{i,j}`` between the hosts of ``N`` services.

    The matrix may be asymmetric (upload vs download asymmetry, routing
    detours).  Diagonal entries must be zero: a service does not ship tuples to
    itself.  Entries are per-tuple costs; when tuples travel in blocks, divide
    the block cost by the block size before building the matrix (the network
    substrate's :class:`repro.network.latency.LinkModel` does exactly that).
    """

    __slots__ = ("_rows", "_size")

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        size = len(rows)
        if size == 0:
            raise InvalidCostMatrixError("cost matrix must have at least one row")
        validated: list[tuple[float, ...]] = []
        for i, row in enumerate(rows):
            if len(row) != size:
                raise InvalidCostMatrixError(
                    f"cost matrix must be square: row {i} has {len(row)} entries, expected {size}"
                )
            # The whole row is checked by builtins; only a row that fails is
            # walked entry by entry, which raises the first error exactly as
            # it always has.
            try:
                converted = tuple(map(float, row))
            except Exception:  # noqa: BLE001 - the walk raises the precise error
                converted = _walk_row(i, row)
            if not (all(map(isfinite, converted)) and min(converted) >= 0 and converted[i] == 0.0):
                converted = _walk_row(i, row)
            validated.append(converted)
        self._rows: tuple[tuple[float, ...], ...] = tuple(validated)
        self._size = size

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, size: int, value: float) -> "CommunicationCostMatrix":
        """A matrix in which every distinct pair costs ``value`` (the centralized model)."""
        value = require_non_negative(value, "value", InvalidCostMatrixError)
        rows = [[0.0 if i == j else value for j in range(size)] for i in range(size)]
        return cls(rows)

    @classmethod
    def zeros(cls, size: int) -> "CommunicationCostMatrix":
        """A matrix with free communication (the classical centralized setting)."""
        return cls.uniform(size, 0.0)

    @classmethod
    def from_function(cls, size: int, func: Callable[[int, int], float]) -> "CommunicationCostMatrix":
        """Build a matrix by evaluating ``func(i, j)`` for every ordered pair."""
        rows = [[0.0 if i == j else float(func(i, j)) for j in range(size)] for i in range(size)]
        return cls(rows)

    @classmethod
    def from_host_costs(
        cls,
        hosts: Sequence[str],
        host_costs: dict[tuple[str, str], float],
        default: float = 0.0,
    ) -> "CommunicationCostMatrix":
        """Build a matrix from host-pair costs for services placed on ``hosts``.

        ``host_costs`` maps ``(source_host, destination_host)`` to a per-tuple
        cost.  Pairs on the same host cost zero; missing pairs fall back to
        ``default``.
        """
        size = len(hosts)

        def lookup(i: int, j: int) -> float:
            if hosts[i] == hosts[j]:
                return 0.0
            return float(host_costs.get((hosts[i], hosts[j]), default))

        return cls.from_function(size, lookup)

    # -- accessors ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of services the matrix covers."""
        return self._size

    def cost(self, source: int, destination: int) -> float:
        """Per-tuple transfer cost from service ``source`` to ``destination``."""
        return self._rows[source][destination]

    def row(self, source: int) -> tuple[float, ...]:
        """All outgoing transfer costs of ``source``."""
        return self._rows[source]

    def as_lists(self) -> list[list[float]]:
        """Return a mutable copy of the matrix as nested lists."""
        return [list(row) for row in self._rows]

    def max_cost(self) -> float:
        """The largest off-diagonal entry."""
        return max(
            (self._rows[i][j] for i in range(self._size) for j in range(self._size) if i != j),
            default=0.0,
        )

    def min_cost(self) -> float:
        """The smallest off-diagonal entry."""
        return min(
            (self._rows[i][j] for i in range(self._size) for j in range(self._size) if i != j),
            default=0.0,
        )

    def mean_cost(self) -> float:
        """The average off-diagonal entry."""
        values = [self._rows[i][j] for i in range(self._size) for j in range(self._size) if i != j]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def is_uniform(self, tolerance: float = 1e-12) -> bool:
        """Whether every off-diagonal entry is (numerically) identical."""
        return self.max_cost() - self.min_cost() <= tolerance

    def is_symmetric(self, tolerance: float = 1e-12) -> bool:
        """Whether ``t[i][j] == t[j][i]`` for every pair."""
        return all(
            abs(self._rows[i][j] - self._rows[j][i]) <= tolerance
            for i in range(self._size)
            for j in range(i + 1, self._size)
        )

    def heterogeneity(self) -> float:
        """Coefficient of variation of the off-diagonal entries.

        Zero for a uniform matrix; experiment E4 sweeps this quantity.
        """
        values = [self._rows[i][j] for i in range(self._size) for j in range(self._size) if i != j]
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        if mean == 0.0:
            return 0.0
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        return variance**0.5 / mean

    def scaled(self, factor: float) -> "CommunicationCostMatrix":
        """Return a copy with every entry multiplied by ``factor``."""
        factor = require_non_negative(factor, "factor", InvalidCostMatrixError)
        return CommunicationCostMatrix([[value * factor for value in row] for row in self._rows])

    def symmetrized(self) -> "CommunicationCostMatrix":
        """Return the symmetric matrix with ``t'[i][j] = (t[i][j] + t[j][i]) / 2``."""
        rows = [
            [
                0.0 if i == j else (self._rows[i][j] + self._rows[j][i]) / 2.0
                for j in range(self._size)
            ]
            for i in range(self._size)
        ]
        return CommunicationCostMatrix(rows)

    def submatrix(self, indices: Sequence[int]) -> "CommunicationCostMatrix":
        """Return the matrix restricted to ``indices`` (in the given order)."""
        rows = [[self._rows[i][j] for j in indices] for i in indices]
        return CommunicationCostMatrix(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationCostMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"CommunicationCostMatrix(size={self._size}, mean={self.mean_cost():.4g})"


def _walk_row(i: int, row: Sequence[float]) -> tuple[float, ...]:
    """Validate row ``i`` entry by entry: the first invalid entry raises."""
    converted = []
    for j, value in enumerate(row):
        value = require_non_negative(value, f"t[{i}][{j}]", InvalidCostMatrixError)
        if i == j and value != 0.0:
            raise InvalidCostMatrixError(f"diagonal entry t[{i}][{i}] must be zero, got {value!r}")
        converted.append(value)
    return tuple(converted)


@dataclass(frozen=True)
class StageCost:
    """The contribution of a single plan position to the bottleneck metric.

    Attributes
    ----------
    position:
        Index of the stage within the plan (0-based).
    service_index:
        Index of the service occupying the stage.
    input_rate:
        Average number of tuples reaching the stage per source tuple
        (``prod_{k<i} sigma_k``).
    processing:
        ``input_rate * c_i`` — time spent processing per source tuple.
    transfer:
        ``input_rate * sigma_i * t_{i,i+1}`` — time spent shipping output to
        the next stage (or to the sink for the last stage) per source tuple.
    """

    position: int
    service_index: int
    input_rate: float
    processing: float
    transfer: float

    @property
    def total(self) -> float:
        """The stage's full term in Eq. 1."""
        return self.processing + self.transfer


def prefix_products(selectivities: Sequence[float], order: Sequence[int]) -> list[float]:
    """Return ``prod_{k<i} sigma_{order[k]}`` for every position ``i`` of ``order``."""
    products: list[float] = []
    current = 1.0
    for index in order:
        products.append(current)
        current *= selectivities[index]
    return products


def stage_costs(
    costs: Sequence[float],
    selectivities: Sequence[float],
    transfer: CommunicationCostMatrix,
    order: Sequence[int],
    sink_transfer: Sequence[float] | None = None,
) -> list[StageCost]:
    """Per-stage cost breakdown of ``order`` under the bottleneck model.

    ``sink_transfer``, when given, holds the per-tuple cost of shipping a
    result tuple from each service to the query consumer; the paper's Eq. 1
    omits this term (equivalently, all sink transfers are zero).
    """
    _validate_order(order, transfer.size)
    stages: list[StageCost] = []
    rate = 1.0
    for position, index in enumerate(order):
        if position + 1 < len(order):
            outgoing = transfer.cost(index, order[position + 1])
        elif sink_transfer is not None:
            outgoing = float(sink_transfer[index])
        else:
            outgoing = 0.0
        stages.append(
            StageCost(
                position=position,
                service_index=index,
                input_rate=rate,
                processing=rate * costs[index],
                transfer=rate * selectivities[index] * outgoing,
            )
        )
        rate *= selectivities[index]
    return stages


def bottleneck_cost(
    costs: Sequence[float],
    selectivities: Sequence[float],
    transfer: CommunicationCostMatrix,
    order: Sequence[int],
    sink_transfer: Sequence[float] | None = None,
) -> float:
    """The bottleneck cost metric (Eq. 1) of the complete plan ``order``."""
    stages = stage_costs(costs, selectivities, transfer, order, sink_transfer)
    return max(stage.total for stage in stages)


def bottleneck_stage(
    costs: Sequence[float],
    selectivities: Sequence[float],
    transfer: CommunicationCostMatrix,
    order: Sequence[int],
    sink_transfer: Sequence[float] | None = None,
) -> StageCost:
    """The stage attaining the bottleneck cost (first one in case of ties)."""
    stages = stage_costs(costs, selectivities, transfer, order, sink_transfer)
    best = stages[0]
    for stage in stages[1:]:
        if stage.total > best.total:
            best = stage
    return best


def _validate_order(order: Sequence[int], size: int) -> None:
    if len(order) == 0:
        raise InvalidPlanError("a plan must contain at least one service")
    seen: set[int] = set()
    for index in order:
        if not isinstance(index, int) or isinstance(index, bool):
            raise InvalidPlanError(f"plan entries must be integer service indices, got {index!r}")
        if index < 0 or index >= size:
            raise InvalidPlanError(f"service index {index} out of range [0, {size})")
        if index in seen:
            raise InvalidPlanError(f"service index {index} appears more than once in the plan")
        seen.add(index)

