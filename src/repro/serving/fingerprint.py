"""Canonical, permutation-invariant fingerprints of ordering problems.

A plan cache is only useful if structurally identical problems map to the same
key regardless of how their services happen to be indexed: the estimation
layer, the declarative query planner and ad-hoc callers all build
:class:`~repro.core.problem.OrderingProblem` instances in whatever order their
inputs arrive.  :func:`fingerprint_problem` therefore

1. **quantizes** every numeric parameter (costs, selectivities, transfer
   matrix, sink transfers) to a configurable number of decimal digits, so
   problems whose parameters differ only by estimation noise below the
   quantization step share a cache entry, and
2. **canonicalizes** the service order: services are sorted by their quantized
   parameter signature (cost, selectivity, sink transfer, the multisets of
   outgoing and incoming transfer costs), with the service name as the final
   deterministic tie-break.  Re-indexing the same services — the common case of
   "the same query arrived again" — always yields the same canonical order.

The returned :class:`ProblemFingerprint` also records the canonical
permutation, which is what lets the cache store plans *positionally*: a cached
plan is a sequence of canonical positions, translated back into the indices of
whichever equivalent problem is asking (see :meth:`ProblemFingerprint.to_order`
/ :meth:`ProblemFingerprint.from_order`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.core.problem import OrderingProblem
from repro.exceptions import ServingError

__all__ = ["ProblemFingerprint", "fingerprint_problem", "quantize"]

DEFAULT_PRECISION = 6
"""Default number of decimal digits kept by :func:`quantize`."""


def quantize(value: float, precision: int = DEFAULT_PRECISION) -> int:
    """Quantize ``value`` to an integer grid of ``10**-precision`` steps.

    Working on integers (rather than rounded floats) keeps the JSON payload
    that is hashed free of float-representation noise: ``0.1 + 0.2`` and
    ``0.3`` quantize to the same integer.
    """
    if precision < 0:
        raise ServingError(f"precision must be non-negative, got {precision!r}")
    return round(float(value) * 10**precision)


@dataclass(frozen=True)
class ProblemFingerprint:
    """A content hash of an :class:`OrderingProblem` plus its canonical permutation.

    Two fingerprints with equal :attr:`digest` describe problems whose
    quantized parameters are identical after canonical reordering; their
    cached plans are interchangeable once translated through
    :meth:`to_order` / :meth:`from_order`.
    """

    digest: str
    """Hex SHA-256 of the canonical quantized problem document."""

    precision: int
    """Decimal digits the parameters were quantized to."""

    size: int
    """Number of services of the fingerprinted problem."""

    canonical_order: tuple[int, ...]
    """Problem service indices listed in canonical order: entry ``p`` is the
    problem index of the service at canonical position ``p``."""

    @property
    def key(self) -> str:
        """The cache key (digest qualified by the quantization precision)."""
        return f"{self.digest}:p{self.precision}"

    def to_positions(self, order: Sequence[int]) -> tuple[int, ...]:
        """Translate a plan over problem indices into canonical positions."""
        position_of = {index: position for position, index in enumerate(self.canonical_order)}
        try:
            return tuple(position_of[index] for index in order)
        except KeyError as missing:
            raise ServingError(f"plan references unknown service index {missing}") from None

    def from_positions(self, positions: Sequence[int]) -> tuple[int, ...]:
        """Translate canonical positions back into this problem's service indices."""
        try:
            return tuple(self.canonical_order[position] for position in positions)
        except IndexError:
            raise ServingError(
                f"canonical plan {positions!r} does not fit a {self.size}-service problem"
            ) from None


def fingerprint_problem(
    problem: OrderingProblem,
    precision: int = DEFAULT_PRECISION,
    include_names: bool = False,
) -> ProblemFingerprint:
    """Fingerprint ``problem`` for the plan cache.

    Parameters
    ----------
    problem:
        The instance to hash.
    precision:
        Decimal digits kept when quantizing parameters.  Lower values bucket
        nearby problems together (more cache hits, staler plans); the cache's
        drift-based revalidation compensates.
    include_names:
        When true, service names participate in the hash, so equal structure
        under different names yields different fingerprints.  Names always act
        as the deterministic tie-break of the canonical order either way.

    Every parameter is quantized once, into flat integer lists, with
    :func:`quantize`'s arithmetic; the sort keys and the canonical document
    are built from those lists.
    """
    if precision < 0:
        raise ServingError(f"precision must be non-negative, got {precision!r}")
    size = problem.size
    # ``round(value * 10**precision)`` as :func:`quantize` computes it; every
    # parameter of an ``OrderingProblem`` is already a validated float.
    scaled = float(10**precision).__mul__

    def quantized(values: Sequence[float]) -> list[int]:
        return list(map(round, map(scaled, values)))

    services = problem.services
    costs = quantized(problem.costs)
    selectivities = quantized(problem.selectivities)
    sink_transfer = problem.sink_transfer
    sink = quantized(sink_transfer) if sink_transfer is not None else [0] * size
    rows = [quantized(problem.transfer.row(i)) for i in range(size)]
    columns = list(zip(*rows))

    # A service's sort key: (cost, selectivity, sink transfer, its sorted
    # outgoing and incoming transfers, name) -- the name is the last,
    # deterministic tie-break.  The diagonal quantizes to 0, the smallest
    # value a transfer can take, so every sorted row and column leads with
    # it, and keeping it orders the keys exactly as leaving it out does.
    signatures = [
        (costs[i], selectivities[i], sink[i], sorted(rows[i]), sorted(columns[i]), services[i].name)
        for i in range(size)
    ]
    canonical = tuple(sorted(range(size), key=signatures.__getitem__))
    position_of = {index: position for position, index in enumerate(canonical)}
    # One row in canonical column order (a one-index itemgetter returns the
    # bare item, not a sequence).
    pick = itemgetter(*canonical) if size > 1 else list

    document: dict[str, object] = {
        "v": 1,
        "precision": precision,
        "size": size,
        "costs": [costs[index] for index in canonical],
        "selectivities": [selectivities[index] for index in canonical],
        "transfer": [pick(row) for row in map(rows.__getitem__, canonical)],
        "sink": [sink[index] for index in canonical] if sink_transfer is not None else None,
        "threads": [services[index].threads for index in canonical],
        "precedence": sorted(
            (position_of[before], position_of[after])
            for before, after in (
                problem.precedence.edges() if problem.precedence is not None else ()
            )
        ),
    }
    if include_names:
        document["names"] = [services[index].name for index in canonical]

    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return ProblemFingerprint(
        digest=digest,
        precision=precision,
        size=size,
        canonical_order=canonical,
    )
