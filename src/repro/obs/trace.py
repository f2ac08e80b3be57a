"""Request-scoped trace spans that survive thread and process boundaries.

A request entering the serving stack crosses five layers — front end, router,
shard process, service, portfolio/worker process — and the question "where
did the time go?" needs one tree of timed spans per request, stitched from
whatever processes the request touched.  The design is deliberately small:

* :class:`Span` — one timed operation: ``trace_id`` (shared by the whole
  request), ``span_id``, ``parent_id``, a name, a wall-clock ``start``, a
  perf-counter ``duration`` and a flat ``annotations`` dict of primitives.
  Spans serialise to plain dicts (:meth:`Span.to_dict`) so they cross
  process boundaries inside existing response payloads — no new channels.
* an **ambient activation** held in a :class:`contextvars.ContextVar`:
  :func:`activate_trace` enters a trace scope (minting or adopting a
  ``trace_id``) and collects every span finished under it;
  :func:`trace_span` opens a child span of whatever is currently active.
  With *no* active trace, :func:`trace_span` yields the shared
  :data:`NOOP_SPAN` — one contextvar read and a ``None`` check, which is the
  entire disabled-path cost the benchmark budget (< 5% warm p50) rides on.
* explicit **handoff** for the places ambient context does not flow:
  executor threads (:func:`capture` the activation, pass it as
  ``trace_span(..., context=...)``) and process boundaries
  (:func:`current_trace` collapses the activation to a ``(trace_id,
  parent_span_id)`` tuple for the wire; the remote side re-enters with
  :func:`activate_trace` and ships its finished spans back, where
  :func:`emit_spans` folds them into the caller's collection).
  ``asyncio`` needs *neither*: contextvars flow into coroutines and into
  tasks spawned by ``asyncio.gather`` automatically, so the front end
  simply activates the trace around the ``await``
  (:func:`repro.serving.http.dispatch_request`) and every span opened down
  the awaitable chain — router fan-out, shard wire call — lands in one
  tree, with no positional hand-off.

The collector is a plain list shared by the activation and every child scope;
appends are atomic under the GIL, so spans finished concurrently on several
threads (a service's optimizer pool) need no lock.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from typing import Any, Iterable, Mapping

__all__ = [
    "NOOP_SPAN",
    "ActiveTrace",
    "Span",
    "activate_trace",
    "capture",
    "current_trace",
    "emit_spans",
    "new_trace_id",
    "span_from_dict",
    "trace_span",
]


# Ids are a per-process random prefix plus a counter, not uuid4: a span is
# minted on the warm-cache hot path, and uuid4 costs microseconds where the
# counter costs nanoseconds.  The prefix keeps ids unique across the
# processes whose spans stitch into one tree; re-randomized after fork so
# race/pool/shard children never mint the parent's sequence.
_id_prefix = os.urandom(8).hex()
_span_prefix = _id_prefix[:8]
_id_counter = itertools.count(1)


def _reseed_ids() -> None:
    global _id_prefix, _span_prefix, _id_counter
    _id_prefix = os.urandom(8).hex()
    _span_prefix = _id_prefix[:8]
    _id_counter = itertools.count(1)


if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on POSIX
    os.register_at_fork(after_in_child=_reseed_ids)


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id."""
    return _id_prefix + format(next(_id_counter) & 0xFFFFFFFFFFFFFFFF, "016x")


def _new_span_id() -> str:
    return _span_prefix + format(next(_id_counter) & 0xFFFFFFFF, "08x")


class Span:
    """One timed operation of a traced request."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "duration", "_annotations")

    def __init__(
        self,
        trace_id: str,
        name: str,
        parent_id: str | None = None,
        span_id: str | None = None,
        start: float | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else _new_span_id()
        self.parent_id = parent_id
        self.name = name
        # Span starts leave the process on the trace wire format and must be
        # comparable across machines; durations are measured separately.
        # repro-lint: disable=RL002 — epoch timestamp by design (cross-process wire format)
        self.start = start if start is not None else time.time()
        self.duration = 0.0
        # Lazily materialised: most spans carry no annotations, and the dict
        # allocation is measurable on the per-request hot path.
        self._annotations: dict[str, Any] | None = None

    @property
    def annotations(self) -> dict[str, Any]:
        """The span's annotations (materialised on first access)."""
        if self._annotations is None:
            self._annotations = {}
        return self._annotations

    def annotate(self, **annotations: Any) -> "Span":
        """Attach primitive key/value annotations (JSON-safe values only)."""
        if self._annotations is None:
            self._annotations = annotations
        else:
            self._annotations.update(annotations)
        return self

    def to_dict(self) -> dict[str, Any]:
        """Flatten for the wire / the span store (primitives only)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "annotations": dict(self._annotations) if self._annotations else {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"duration={self.duration * 1e3:.2f}ms)"
        )


def span_from_dict(document: Mapping[str, Any]) -> Span:
    """Rebuild a :class:`Span` from :meth:`Span.to_dict` output."""
    span = Span(
        trace_id=str(document["trace_id"]),
        name=str(document["name"]),
        parent_id=document.get("parent_id"),
        span_id=str(document["span_id"]),
        start=float(document["start"]),
    )
    span.duration = float(document.get("duration", 0.0))
    annotations = document.get("annotations")
    if annotations:
        span._annotations = dict(annotations)
    return span


class _NoopSpan:
    """The shared do-nothing span yielded when no trace is active."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    start = 0.0
    duration = 0.0

    def annotate(self, **annotations: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class ActiveTrace:
    """One entered trace scope: the ambient parent for new spans."""

    __slots__ = ("trace_id", "span_id", "spans")

    def __init__(self, trace_id: str, span_id: str | None, spans: list) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.spans = spans


# Holds either an ActiveTrace (a trace scope) or a trace_span scope acting
# as the nested activation — both expose (trace_id, span_id, spans).
_current: contextvars.ContextVar["ActiveTrace | trace_span | None"] = contextvars.ContextVar(
    "repro_active_trace", default=None
)


def capture() -> "ActiveTrace | trace_span | None":
    """The current activation, for handing to another thread's ``trace_span``."""
    return _current.get()


def current_trace() -> tuple[str, str | None] | None:
    """``(trace_id, parent_span_id)`` for the wire, or ``None`` untraced."""
    active = _current.get()
    if active is None:
        return None
    return (active.trace_id, active.span_id)


def emit_spans(spans: Iterable[Mapping[str, Any] | Span]) -> None:
    """Fold remotely produced spans (wire dicts) into the active collection."""
    active = _current.get()
    if active is None:
        return
    active.spans.extend(spans)


class activate_trace:
    """Enter a trace scope; ``with activate_trace(trace_id) as active: ...``.

    ``trace_id=None`` mints a fresh id (the front end's case);
    ``parent_id`` re-parents spans under a remote caller's span (the shard
    child's case).  The yielded :class:`ActiveTrace` exposes ``trace_id``
    and the ``spans`` list every span finished in scope lands in.
    """

    __slots__ = ("_trace_id", "_parent_id", "_token", "active")

    def __init__(self, trace_id: str | None = None, parent_id: str | None = None) -> None:
        self._trace_id = trace_id
        self._parent_id = parent_id
        self._token: contextvars.Token | None = None
        self.active: ActiveTrace | None = None

    def __enter__(self) -> ActiveTrace:
        trace_id = self._trace_id if self._trace_id else new_trace_id()
        self.active = ActiveTrace(trace_id, self._parent_id, [])
        self._token = _current.set(self.active)
        return self.active

    def __exit__(self, *exc_info: object) -> None:
        assert self._token is not None
        _current.reset(self._token)


class trace_span:
    """Open a span under the active trace (or ``context``); no-op untraced.

    ``with trace_span("cache.get") as span: ... span.annotate(outcome="hit")``
    — on exit the span's duration is taken from a perf counter and the span
    joins the activation's collection.  ``context`` passes an explicitly
    :func:`capture`-d activation for code running on executor threads, where
    the contextvar does not flow; the span still nests correctly because the
    scope sets the *current thread's* contextvar for its duration.  Keyword
    ``annotations`` are attached at open time.
    """

    __slots__ = (
        "_name",
        "_context",
        "_annotations",
        "_span",
        "_token",
        "_t0",
        "trace_id",
        "span_id",
        "spans",
    )

    def __init__(
        self, name: str, context: ActiveTrace | None = None, **annotations: Any
    ) -> None:
        self._name = name
        self._context = context
        self._annotations = annotations
        self._span: Span | None = None
        self._token: contextvars.Token | None = None

    def __enter__(self):
        active = self._context if self._context is not None else _current.get()
        if active is None:
            return NOOP_SPAN
        span = Span(active.trace_id, self._name, parent_id=active.span_id)
        if self._annotations:
            span._annotations = dict(self._annotations)
        self._span = span
        # The scope object doubles as the nested activation: it exposes the
        # same (trace_id, span_id, spans) triple an ActiveTrace would, which
        # spares one allocation per span on the request hot path.  The
        # attributes stay valid after exit, so a capture() taken inside the
        # scope keeps working from another thread.
        self.trace_id = active.trace_id
        self.span_id = span.span_id
        self.spans = active.spans
        self._token = _current.set(self)
        self._t0 = time.perf_counter()
        return span

    def __exit__(self, *exc_info: object) -> None:
        if self._span is None:
            return
        self._span.duration = time.perf_counter() - self._t0
        assert self._token is not None
        self.spans.append(self._span)
        _current.reset(self._token)
