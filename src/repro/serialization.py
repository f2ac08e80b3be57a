"""JSON (de)serialization of problems, plans and results.

A deployment needs to move ordering problems between the component that
estimates parameters, the optimizer, and the nodes that execute the
choreography; the command-line interface (:mod:`repro.cli`) and the examples
use these helpers to read and write problems as plain JSON documents.

The document format is intentionally explicit and versioned::

    {
      "format": "repro/ordering-problem",
      "version": 1,
      "name": "credit-card-screening",
      "services": [{"name": ..., "cost": ..., "selectivity": ..., "host": ..., "threads": ...}],
      "transfer": [[0.0, ...], ...],
      "precedence": [[before, after], ...],
      "sink_transfer": [...] | null
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.cost_model import CommunicationCostMatrix
from repro.core.plan import Plan
from repro.core.precedence import PrecedenceGraph
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.core.service import Service
from repro.exceptions import InvalidProblemError

__all__ = [
    "PROBLEM_FORMAT",
    "PROBLEM_FORMAT_VERSION",
    "PROBLEM_WIRE_VERSION",
    "problem_to_dict",
    "problem_from_dict",
    "problem_to_wire",
    "problem_from_wire",
    "save_problem",
    "load_problem",
    "plan_to_dict",
    "result_to_dict",
]

PROBLEM_FORMAT = "repro/ordering-problem"
"""Identifier stored in the ``format`` field of every problem document."""

PROBLEM_FORMAT_VERSION = 1
"""Current version of the problem document format."""


def problem_to_dict(problem: OrderingProblem) -> dict[str, Any]:
    """Serialise ``problem`` into a JSON-compatible dictionary."""
    return {
        "format": PROBLEM_FORMAT,
        "version": PROBLEM_FORMAT_VERSION,
        "name": problem.name,
        "services": [
            {
                "name": service.name,
                "cost": service.cost,
                "selectivity": service.selectivity,
                "host": service.host,
                "threads": service.threads,
            }
            for service in problem.services
        ],
        "transfer": problem.transfer.as_lists(),
        "precedence": [list(edge) for edge in problem.precedence.edges()]
        if problem.precedence is not None
        else [],
        "sink_transfer": list(problem.sink_transfer) if problem.sink_transfer is not None else None,
    }


def problem_from_dict(document: dict[str, Any]) -> OrderingProblem:
    """Reconstruct an :class:`OrderingProblem` from a dictionary.

    Raises :class:`InvalidProblemError` with a pointed message when the
    document is malformed or has an unsupported format/version.
    """
    if not isinstance(document, dict):
        raise InvalidProblemError(f"expected a JSON object, got {type(document).__name__}")
    format_name = document.get("format", PROBLEM_FORMAT)
    if format_name != PROBLEM_FORMAT:
        raise InvalidProblemError(f"unsupported document format {format_name!r}")
    version = document.get("version", PROBLEM_FORMAT_VERSION)
    if version != PROBLEM_FORMAT_VERSION:
        raise InvalidProblemError(f"unsupported problem format version {version!r}")

    try:
        service_entries = document["services"]
        transfer_rows = document["transfer"]
    except KeyError as missing:
        raise InvalidProblemError(f"problem document is missing the {missing} field") from None
    if not isinstance(service_entries, list) or not service_entries:
        raise InvalidProblemError("the 'services' field must be a non-empty list")

    services = []
    for index, entry in enumerate(service_entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise InvalidProblemError(f"service entry {index} is malformed: {entry!r}")
        services.append(
            Service(
                name=entry["name"],
                cost=entry.get("cost", 0.0),
                selectivity=entry.get("selectivity", 1.0),
                host=entry.get("host"),
                threads=int(entry.get("threads", 1)),
            )
        )

    transfer = CommunicationCostMatrix(transfer_rows)

    precedence = None
    edges = document.get("precedence") or []
    if edges:
        precedence = PrecedenceGraph(len(services))
        for edge in edges:
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise InvalidProblemError(f"precedence edge {edge!r} must be a [before, after] pair")
            precedence.add(int(edge[0]), int(edge[1]))

    return OrderingProblem(
        services,
        transfer,
        precedence=precedence,
        sink_transfer=document.get("sink_transfer"),
        name=document.get("name", ""),
    )


PROBLEM_WIRE_VERSION = 1
"""Version tag leading every wire payload produced by :func:`problem_to_wire`."""


def problem_to_wire(problem: OrderingProblem) -> tuple:
    """Encode ``problem`` as a compact, hashable tuple of flat arrays.

    This is the codec process shards and experiment workers ship across
    process boundaries: everything is a nested tuple of primitives — costs,
    selectivities, transfer rows, sink transfers, and the precedence
    constraints collapsed into per-service predecessor *bitmasks* — so
    pickling never walks the :class:`OrderingProblem` object graph
    (services, matrices, cached evaluation kernel).  The payload is hashable,
    which is what lets :func:`repro.experiments.harness.optimize_suite`
    deduplicate structural twins by it directly.

    Round trip: :func:`problem_from_wire` rebuilds a problem whose parameters
    are bitwise identical to the original's (no quantization is applied), so
    costs computed on either side of the boundary agree exactly.
    """
    precedence = problem.precedence
    if precedence is not None and precedence.has_constraints:
        masks = [0] * problem.size
        for before, after in precedence.edges():
            masks[after] |= 1 << before
        predecessor_masks: tuple[int, ...] | None = tuple(masks)
    else:
        predecessor_masks = None
    sink = problem.sink_transfer
    return (
        PROBLEM_WIRE_VERSION,
        problem.name,
        tuple(service.name for service in problem.services),
        problem.costs,
        problem.selectivities,
        tuple(problem.transfer.row(i) for i in range(problem.size)),
        predecessor_masks,
        tuple(sink) if sink is not None else None,
        tuple(service.host for service in problem.services),
        tuple(service.threads for service in problem.services),
    )


def problem_from_wire(payload: tuple) -> OrderingProblem:
    """Rebuild an :class:`OrderingProblem` from a :func:`problem_to_wire` payload."""
    if not isinstance(payload, tuple) or not payload:
        raise InvalidProblemError(f"malformed wire payload: {type(payload).__name__}")
    if payload[0] != PROBLEM_WIRE_VERSION:
        raise InvalidProblemError(f"unsupported problem wire version {payload[0]!r}")
    try:
        (_, name, names, costs, selectivities, rows, predecessor_masks, sink, hosts, threads) = (
            payload
        )
    except ValueError:
        raise InvalidProblemError(
            f"problem wire payload has {len(payload)} fields, expected 10"
        ) from None
    services = [
        Service(
            name=names[i], cost=costs[i], selectivity=selectivities[i], host=hosts[i],
            threads=threads[i],
        )
        for i in range(len(names))
    ]
    precedence = None
    if predecessor_masks is not None:
        precedence = PrecedenceGraph(len(services))
        for after, mask in enumerate(predecessor_masks):
            while mask:
                bit = mask & -mask
                precedence.add(bit.bit_length() - 1, after)
                mask ^= bit
    return OrderingProblem(
        services,
        CommunicationCostMatrix([list(row) for row in rows]),
        precedence=precedence,
        sink_transfer=sink,
        name=name,
    )


def save_problem(problem: OrderingProblem, path: str | Path) -> Path:
    """Write ``problem`` to ``path`` as pretty-printed JSON and return the path."""
    path = Path(path)
    path.write_text(json.dumps(problem_to_dict(problem), indent=2) + "\n", encoding="utf-8")
    return path


def load_problem(path: str | Path) -> OrderingProblem:
    """Read a problem document from ``path``."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise InvalidProblemError(f"{path} does not contain valid JSON: {error}") from error
    return problem_from_dict(document)


def plan_to_dict(plan: Plan) -> dict[str, Any]:
    """Serialise a plan (order, names, per-stage breakdown) for reports or APIs."""
    return {
        "order": list(plan.order),
        "services": list(plan.service_names),
        "cost": plan.cost,
        "stages": [
            {
                "position": stage.position,
                "service": plan.problem.service(stage.service_index).name,
                "input_rate": stage.input_rate,
                "processing": stage.processing,
                "transfer": stage.transfer,
                "term": stage.total,
            }
            for stage in plan.stage_costs()
        ],
    }


def result_to_dict(result: OptimizationResult) -> dict[str, Any]:
    """Serialise an optimization result (plan + statistics) for reports or APIs."""
    document = result.as_dict()
    document["plan"] = plan_to_dict(result.plan)
    return document
