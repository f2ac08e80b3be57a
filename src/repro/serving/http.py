"""The HTTP contract of the plan service: one request core, one answer format.

The asyncio front end (:mod:`repro.serving.aserver`) frames requests on the
wire; this module decides what they mean.  The routes:

* ``POST /plan`` — body is an ordering-problem document in the
  :mod:`repro.serialization` format (optionally wrapped as
  ``{"problem": {...}, "budget_seconds": 0.2}``); answers with the plan,
  its cost and the cache/latency metadata of :class:`PlanResponse`.
* ``POST /plan/batch`` — body is ``{"problems": [{...}, ...]}`` (optionally
  with ``"budget_seconds"``); the whole batch is answered through the
  backend's ``optimize_batch_async`` — one admission, cache hits served
  directly, misses deduplicated by fingerprint — and the reply is
  ``{"responses": [...]}`` in request order.
* ``GET /stats`` — the backend's ``stats()`` snapshot.
* ``GET /healthz`` — liveness probe.
* ``GET /metrics``, ``GET /trace/<id>``, ``GET /slowlog`` — the backend's
  observability bundle (:mod:`repro.obs`).

:func:`dispatch_request` is the single request core.  It routes one framed
request against anything with the awaitable service surface
(``submit_async`` / ``optimize_batch_async`` / ``stats``): a
:class:`~repro.serving.service.PlanService`, or a
:class:`~repro.sharding.router.ShardRouter` fanning the same requests over N
shards (``repro serve --shards N``).  Outcomes map onto statuses: overload
surfaces as HTTP 503 (admission control), malformed documents and bodies as
HTTP 400, oversized bodies as HTTP 413 (``Content-Length`` is validated
against a bound by :func:`validated_content_length` instead of trusted
blindly), optimizer failures as HTTP 500.  :func:`response_to_dict` /
:func:`response_from_dict` are an answer's wire form, shared with the
process-shard boundary.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING, Any, Union

from repro.exceptions import AdmissionError, InvalidProblemError, ReproError, ServingError
from repro.obs import Observability, activate_trace, trace_span
from repro.serialization import problem_from_dict
from repro.serving.service import PlanResponse, PlanService

if TYPE_CHECKING:  # pragma: no cover - typing only (sharding imports us)
    from repro.sharding.router import ShardRouter

    PlanBackend = Union[PlanService, ShardRouter]
else:
    PlanBackend = PlanService

__all__ = [
    "MAX_BODY_BYTES",
    "PayloadTooLargeError",
    "dispatch_request",
    "response_from_dict",
    "response_to_dict",
    "validated_content_length",
]

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Default request-body bound: problem documents are KB-scale, so anything
beyond this is rejected with HTTP 413 instead of read into memory."""

REQUEST_TIMEOUT_SECONDS = 60.0
"""Default per-connection read/write timeout: a stalled client is
disconnected instead of holding its connection forever."""


class PayloadTooLargeError(ValueError):
    """A request body whose declared length exceeds the server's bound (413)."""


def response_to_dict(response: PlanResponse) -> dict[str, Any]:
    """Serialise a :class:`PlanResponse` for the wire (and the CLI's ``--json``)."""
    return {
        "order": list(response.order),
        "services": list(response.service_names),
        "cost": response.cost,
        "algorithm": response.algorithm,
        "optimal": response.optimal,
        "cache_hit": response.cache_hit,
        "stale": response.stale,
        "fingerprint": response.fingerprint,
        "latency_seconds": response.latency_seconds,
        "coalesced": response.coalesced,
    }


def response_from_dict(document: dict[str, Any]) -> PlanResponse:
    """Rebuild a :class:`PlanResponse` from :func:`response_to_dict` output.

    This is how answers cross the shard-process boundary
    (:mod:`repro.sharding.process`): flat primitives, never pickled object
    graphs.
    """
    try:
        return PlanResponse(
            order=tuple(document["order"]),
            service_names=tuple(document["services"]),
            cost=float(document["cost"]),
            algorithm=str(document["algorithm"]),
            optimal=bool(document["optimal"]),
            cache_hit=bool(document["cache_hit"]),
            stale=bool(document["stale"]),
            fingerprint=str(document["fingerprint"]),
            latency_seconds=float(document["latency_seconds"]),
            coalesced=bool(document.get("coalesced", False)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServingError(f"malformed plan-response document: {error}") from error


def _validated_budget(document: dict[str, Any]) -> float | None:
    """The request's ``budget_seconds``, rejected with :class:`ValueError` unless numeric."""
    budget = document.get("budget_seconds")
    if budget is not None and not isinstance(budget, (int, float)):
        raise ValueError(
            f"budget_seconds must be a number, got {type(budget).__name__}"
        )
    return budget


def validated_content_length(value: str | None, max_body_bytes: int) -> int:
    """Validate a ``Content-Length`` header instead of trusting it blindly.

    Raises :class:`ValueError` for a missing/invalid/empty declaration (HTTP
    400) and :class:`PayloadTooLargeError` beyond ``max_body_bytes`` (HTTP
    413) — the caller never allocates or blocks for an attacker-chosen size.
    """
    if value is None:
        raise ValueError("missing Content-Length header")
    try:
        length = int(value)
    except ValueError:
        raise ValueError(f"invalid Content-Length {value!r}") from None
    if length <= 0:
        raise ValueError("request body is empty")
    if length > max_body_bytes:
        raise PayloadTooLargeError(
            f"request body of {length} bytes exceeds the {max_body_bytes}-byte limit"
        )
    return length


def _parse_document(body: bytes) -> dict[str, Any]:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ValueError(f"request body is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ValueError("request body must be a JSON object")
    return document


_ROUTE_LABELS = ("/plan", "/plan/batch", "/stats", "/healthz", "/metrics", "/slowlog")
"""Known routes, used verbatim as the ``route`` metric label; ``/trace/<id>``
collapses onto ``/trace`` and everything else onto ``other`` so the label's
cardinality stays bounded no matter what clients probe."""


def _route_label(path: str) -> str:
    if path in _ROUTE_LABELS:
        return path
    if path.startswith("/trace/"):
        return "/trace"
    return "other"


async def dispatch_request(
    plan_service: "PlanBackend",
    method: str,
    path: str,
    body: bytes = b"",
    trace_id: str | None = None,
) -> tuple[int, Union[dict[str, Any], str]]:
    """Route one framed request against the service surface.

    Status mapping: 200 answers, 400 malformed, 404 unknown path, 501
    unsupported method, 503 admission, 500 optimizer/internal.  Framing
    concerns (reading the body, 413, timeouts) stay with the caller.  Plan
    traffic is awaited end to end on the caller's event loop: no thread is
    held while a request waits for its answer.

    ``trace_id`` is the caller-supplied ``X-Trace-Id``: a POST carrying one
    is traced even when tracing is off by default, and the id it ran under
    is echoed in the response payload for ``GET /trace/<id>``.  The trace
    activation wraps the ``await``, so spans opened anywhere down the
    awaitable path (router fan-out, shard re-entry) stitch into one tree.
    A ``str`` payload (``GET /metrics``) is served as plain text, not JSON.
    """
    observability = getattr(plan_service, "obs", None)
    started = time.perf_counter()
    status, payload = await _dispatch(plan_service, observability, method, path, body, trace_id)
    if observability is not None:
        obs_method = method if method in ("GET", "POST") else "other"
        observability.observe_http(
            _route_label(path), obs_method, status, time.perf_counter() - started
        )
    return status, payload


async def _dispatch(
    plan_service: "PlanBackend",
    observability: "Observability | None",
    method: str,
    path: str,
    body: bytes,
    trace_id: str | None,
) -> tuple[int, Union[dict[str, Any], str]]:
    if method == "GET":
        return await _dispatch_get(plan_service, observability, path)
    if method != "POST":
        return 501, {"error": f"unsupported method {method!r}"}
    traced = observability is not None and (observability.enabled or trace_id is not None)
    if not traced:
        return await _dispatch_post(plan_service, path, body)
    with activate_trace(trace_id) as active:
        with trace_span("http.request", method=method, route=_route_label(path)) as root:
            status, payload = await _dispatch_post(plan_service, path, body)
            root.annotate(status=status)
    observability.record_trace(active)
    if isinstance(payload, dict):
        payload = {**payload, "trace_id": active.trace_id}
    return status, payload


async def _dispatch_get(
    plan_service: "PlanBackend",
    observability: "Observability | None",
    path: str,
) -> tuple[int, Union[dict[str, Any], str]]:
    if path == "/healthz":
        return 200, {"status": "ok"}
    if path == "/stats":
        try:
            # A shard tier's stats are a blocking round trip to every shard
            # process: keep that wait off the event loop.
            return 200, await asyncio.to_thread(plan_service.stats)
        except ReproError as error:
            return 500, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - a handler must answer
            return 500, {"error": f"internal error: {type(error).__name__}: {error}"}
    if path == "/metrics":
        if observability is None:
            return 404, {"error": "this backend exposes no metrics registry"}
        return 200, observability.registry.render()
    if path.startswith("/trace/"):
        if observability is None:
            return 404, {"error": "this backend stores no traces"}
        trace_id = path[len("/trace/") :]
        tree = observability.spans.tree(trace_id)
        if tree is None:
            return 404, {"error": f"unknown trace {trace_id!r}"}
        return 200, tree
    if path == "/slowlog":
        if observability is None:
            return 404, {"error": "this backend keeps no slow-request log"}
        return 200, {
            "threshold_seconds": observability.slow_log.threshold_seconds,
            "entries": observability.slow_log.entries(),
        }
    return 404, {"error": f"unknown path {path!r}"}


def _parse_plan(document: dict[str, Any]):
    """Extract ``(problem, budget)`` from a ``POST /plan`` document."""
    if "problem" in document:
        problem_document = document["problem"]
        budget = _validated_budget(document)
    else:
        problem_document = document
        budget = None
    return problem_from_dict(problem_document), budget


def _parse_batch(document: dict[str, Any]):
    """Extract ``(problems, budget)`` from a ``POST /plan/batch`` document."""
    problem_documents = document["problems"]
    if not isinstance(problem_documents, list) or not problem_documents:
        raise InvalidProblemError("'problems' must be a non-empty list")
    budget = _validated_budget(document)
    return [problem_from_dict(entry) for entry in problem_documents], budget


def _backend_error_status(error: Exception) -> tuple[int, dict[str, Any]]:
    """Map a backend exception to the HTTP status contract."""
    if isinstance(error, AdmissionError):
        return 503, {"error": str(error)}
    if isinstance(error, ReproError):
        return 500, {"error": str(error)}
    # A handler must answer, not leak: anything unexpected is a plain 500.
    return 500, {"error": f"internal error: {type(error).__name__}: {error}"}


async def _dispatch_post(
    plan_service: "PlanBackend", path: str, body: bytes
) -> tuple[int, dict[str, Any]]:
    try:
        document = _parse_document(body)
    except ValueError as error:
        return 400, {"error": str(error)}
    if path == "/plan/batch":
        try:
            problems, budget = _parse_batch(document)
        except (KeyError, TypeError, ValueError, InvalidProblemError) as error:
            return 400, {"error": f"malformed batch request: {error}"}
        try:
            responses = await plan_service.optimize_batch_async(problems, budget_seconds=budget)
        except Exception as error:  # noqa: BLE001 - mapped, never leaked
            return _backend_error_status(error)
        return 200, {"responses": [response_to_dict(response) for response in responses]}
    if path != "/plan":
        return 404, {"error": f"unknown path {path!r}"}
    try:
        problem, budget = _parse_plan(document)
    except (TypeError, ValueError, InvalidProblemError) as error:
        return 400, {"error": str(error)}
    try:
        response = await plan_service.submit_async(problem, budget_seconds=budget)
    except Exception as error:  # noqa: BLE001 - mapped, never leaked
        return _backend_error_status(error)
    return 200, response_to_dict(response)
