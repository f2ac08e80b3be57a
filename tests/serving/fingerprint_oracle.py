"""The per-element reference implementation of the problem fingerprint.

This is the fingerprint as it was first written: one ``_signature`` per
service that quantizes every transfer cost through
:meth:`OrderingProblem.transfer_cost` and :func:`quantize` on each call, and a
canonical document built the same way.  The served
:func:`repro.serving.fingerprint.fingerprint_problem` quantizes flat arrays
once instead; the property tests in ``test_fingerprint.py`` hold it to this
oracle digest for digest, so no cache key ever changes silently.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.problem import OrderingProblem
from repro.serving.fingerprint import DEFAULT_PRECISION, ProblemFingerprint, quantize


def _signature(
    problem: OrderingProblem, index: int, precision: int
) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...], str]:
    """The quantized sort key of one service (name is the last tie-break)."""
    size = problem.size
    outgoing = tuple(
        sorted(quantize(problem.transfer_cost(index, j), precision) for j in range(size) if j != index)
    )
    incoming = tuple(
        sorted(quantize(problem.transfer_cost(j, index), precision) for j in range(size) if j != index)
    )
    return (
        quantize(problem.costs[index], precision),
        quantize(problem.selectivities[index], precision),
        quantize(problem.sink_cost(index), precision),
        outgoing,
        incoming,
        problem.service(index).name,
    )


def oracle_fingerprint(
    problem: OrderingProblem,
    precision: int = DEFAULT_PRECISION,
    include_names: bool = False,
) -> ProblemFingerprint:
    """The reference fingerprint of ``problem`` (see the module docstring)."""
    size = problem.size
    canonical = tuple(
        sorted(range(size), key=lambda index: _signature(problem, index, precision))
    )
    position_of = {index: position for position, index in enumerate(canonical)}

    document: dict[str, object] = {
        "v": 1,
        "precision": precision,
        "size": size,
        "costs": [quantize(problem.costs[index], precision) for index in canonical],
        "selectivities": [
            quantize(problem.selectivities[index], precision) for index in canonical
        ],
        "transfer": [
            [quantize(problem.transfer_cost(i, j), precision) for j in canonical]
            for i in canonical
        ],
        "sink": [quantize(problem.sink_cost(index), precision) for index in canonical]
        if problem.sink_transfer is not None
        else None,
        "threads": [problem.service(index).threads for index in canonical],
        "precedence": sorted(
            (position_of[before], position_of[after])
            for before, after in (
                problem.precedence.edges() if problem.precedence is not None else ()
            )
        ),
    }
    if include_names:
        document["names"] = [problem.service(index).name for index in canonical]

    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return ProblemFingerprint(
        digest=digest,
        precision=precision,
        size=size,
        canonical_order=canonical,
    )
