"""Process-backed shards: one :class:`~repro.serving.service.PlanService` per child.

An in-proc shard shares the parent's GIL, so N in-proc shards buy isolation
and routing structure but not CPU.  A :class:`ProcessShard` moves the whole
service — cache, portfolio, admission control — into its own OS process:

* problems travel as the compact array payloads of
  :func:`repro.serialization.problem_to_wire` (the wire codec that also
  carries experiment suites to worker processes), and answers come back as
  the flat primitive documents of :func:`repro.serving.http.response_to_dict`
  — no pickled object graphs in either direction;
* inside the child, each request is handled on an executor thread through
  the service's blocking surface, so one shard process serves concurrent
  submissions (admission control included);
* the parent side multiplexes: every request registers one waiter — a
  :class:`concurrent.futures.Future` keyed by request id — and the
  process-wide :class:`~repro.sharding.multiplexer.ResponseMultiplexer`, one
  selector thread over *all* shards' response pipes, resolves it.  Blocking
  callers (:meth:`ProcessShard.submit`) wait on that future; event-loop
  callers (:meth:`ProcessShard.submit_async`) await it.

Shard-side failures are re-raised in the parent with their original type
where it matters (:class:`~repro.exceptions.AdmissionError` must keep
meaning HTTP 503); a shard process dying fails its in-flight requests with
:class:`~repro.exceptions.ShardingError` instead of hanging them.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Sequence

from repro.core.problem import OrderingProblem
from repro.exceptions import (
    AdmissionError,
    OptimizationError,
    ParallelError,
    ReproError,
    ServingError,
    ShardingError,
)
from repro.obs.trace import Span, activate_trace, current_trace, emit_spans, trace_span
from repro.serialization import problem_from_wire, problem_to_wire
from repro.serving.http import response_from_dict, response_to_dict
from repro.serving.service import PlanResponse, PlanService, PlanServiceConfig
from repro.sharding.multiplexer import ResponseMultiplexer, default_multiplexer

__all__ = ["ProcessShard", "preferred_context"]

_SHUTDOWN = None
"""Sentinel the shard child interprets as 'drain and exit'."""

_ERROR_TYPES = {
    "AdmissionError": AdmissionError,
    "OptimizationError": OptimizationError,
    "ServingError": ServingError,
    "ShardingError": ShardingError,
}
"""Shard-side error types re-raised with their own class in the parent."""


def preferred_context(method: str | None = None) -> multiprocessing.context.BaseContext:
    """A multiprocessing context: ``method`` when given, else the cheapest.

    ``method`` is one of :func:`multiprocessing.get_all_start_methods`
    (``fork`` / ``forkserver`` / ``spawn``); ``None`` picks ``fork`` where
    supported — the cheap default — leaving deployments that fork from
    threaded parents free to ask for ``forkserver`` or ``spawn`` instead
    (see :attr:`repro.serving.service.PlanServiceConfig.mp_context`, which
    picks the start method of shard processes).
    """
    methods = multiprocessing.get_all_start_methods()
    if method is None:
        return multiprocessing.get_context("fork" if "fork" in methods else None)
    if method not in methods:
        raise ParallelError(
            f"unsupported multiprocessing start method {method!r}; "
            f"available: {', '.join(methods)}"
        )
    return multiprocessing.get_context(method)


def _shard_service_main(requests, responses, config: PlanServiceConfig, shard_id: str) -> None:
    """Child entry point: serve requests until the shutdown sentinel."""
    import signal

    # A foreground Ctrl-C delivers SIGINT to the whole process group; shard
    # shutdown is coordinated by the parent (sentinel, then terminate), so
    # the child must not die mid-request with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = PlanService(config)
    # Each request is answered on its own executor thread through the
    # service's blocking surface: a hit on that thread, a miss by blocking on
    # the service's optimizer pool.
    executor = ThreadPoolExecutor(
        max_workers=config.max_in_flight + 2, thread_name_prefix="shard-request"
    )
    while (item := requests.get()) is not _SHUTDOWN:
        executor.submit(_handle, item, responses, service, shard_id)
    executor.shutdown(wait=True)
    service.close()


def _handle(item: tuple, responses, service: PlanService, shard_id: str) -> None:
    """Answer one request; every outcome, failures included, goes back."""
    kind, request_id, trace = item[0], item[1], item[-1]
    spans: list = []
    try:
        if trace is None:
            answer = _answer(service, kind, item)
        else:
            # Re-enter the caller's trace: everything the service does for
            # this request lands under one shard.<kind> span, and the
            # finished spans ship back with the answer for stitching.
            with activate_trace(trace[0], parent_id=trace[1]) as active:
                try:
                    with trace_span("shard." + kind, shard=shard_id):
                        answer = _answer(service, kind, item)
                finally:
                    spans = [
                        span.to_dict() if isinstance(span, Span) else dict(span)
                        for span in active.spans
                    ]
    except ReproError as error:
        responses.put((request_id, False, (type(error).__name__, str(error)), spans))
    except Exception as error:  # noqa: BLE001 - a lost answer hangs the parent
        # Anything escaping here (e.g. a TypeError from rejected algorithm
        # options) must still produce a response: the parent's waiter has no
        # timeout and the process stays alive, so a swallowed exception
        # would leave the caller waiting forever.
        responses.put(
            (request_id, False, ("ShardingError", f"{type(error).__name__}: {error}"), spans)
        )
    else:
        responses.put((request_id, True, answer, spans))


def _answer(service: PlanService, kind: str, item: tuple):
    if kind == "submit":
        payload, budget = item[2], item[3]
        response = service.submit(problem_from_wire(payload), budget_seconds=budget)
        return response_to_dict(response)
    if kind == "batch":
        payloads, budget = item[2], item[3]
        problems = [problem_from_wire(payload) for payload in payloads]
        answered = service.optimize_batch(problems, budget_seconds=budget)
        return [response_to_dict(response) for response in answered]
    if kind == "stats":
        return service.stats()
    if kind == "keys":
        return service.cache.keys()
    raise ShardingError(f"unknown shard operation {kind!r}")


def _resolve(waiter: Future, outcome: tuple) -> None:
    """Complete a waiter with ``(ok, payload, spans)`` unless its caller gave up."""
    if waiter.set_running_or_notify_cancel():
        waiter.set_result(outcome)


class ProcessShard:
    """A :class:`PlanService` running in a dedicated child process.

    ``multiplexer`` injects the answer-correlation loop; by default every
    shard in the process shares :func:`default_multiplexer`, so N shards are
    served by one selector thread instead of N reader threads.
    """

    def __init__(
        self,
        shard_id: str,
        config: PlanServiceConfig,
        mp_context: str | None = None,
        multiplexer: ResponseMultiplexer | None = None,
    ) -> None:
        self.shard_id = shard_id
        context = preferred_context(mp_context)
        self._requests = context.Queue()
        self._responses = context.Queue()
        self._process = context.Process(
            target=_shard_service_main,
            args=(self._requests, self._responses, config, shard_id),
            daemon=True,
            name=f"plan-shard-{shard_id}",
        )
        self._process.start()
        self._lock = threading.Lock()
        self._next_request_id = 0
        self._waiters: dict[int, Future] = {}
        self._closed = threading.Event()
        self.multiplexer = multiplexer if multiplexer is not None else default_multiplexer()
        self._port = self.multiplexer.register(
            self._responses,
            on_message=self._dispatch,
            alive=self._process.is_alive,
            on_death=self._on_death,
        )

    # -- shard surface (duck-typed like PlanService) -----------------------

    def submit(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        fingerprint: object | None = None,
    ) -> PlanResponse:
        # ``fingerprint`` is accepted for surface parity with in-proc shards
        # but not shipped: the child re-fingerprints in its own process.
        document = self._call(("submit", problem_to_wire(problem), budget_seconds))
        return response_from_dict(document)

    def optimize_batch(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        fingerprints: Sequence[object] | None = None,
    ) -> list[PlanResponse]:
        if not problems:
            return []
        payloads = [problem_to_wire(problem) for problem in problems]
        documents = self._call(("batch", payloads, budget_seconds))
        return [response_from_dict(document) for document in documents]

    async def submit_async(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        fingerprint: object | None = None,
    ) -> PlanResponse:
        """Awaitable :meth:`submit`: the same waiter, awaited on the event loop."""
        document = await self._call_async(("submit", problem_to_wire(problem), budget_seconds))
        return response_from_dict(document)

    async def optimize_batch_async(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        fingerprints: Sequence[object] | None = None,
    ) -> list[PlanResponse]:
        """Awaitable :meth:`optimize_batch` (same wire path as :meth:`submit_async`)."""
        if not problems:
            return []
        payloads = [problem_to_wire(problem) for problem in problems]
        documents = await self._call_async(("batch", payloads, budget_seconds))
        return [response_from_dict(document) for document in documents]

    def stats(self) -> dict[str, object]:
        return self._call(("stats",))

    def cache_keys(self) -> list[str]:
        return self._call(("keys",))

    def alive(self) -> bool:
        """Whether the shard's child process is still running."""
        return self._process.is_alive()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the shard process (idempotent); stragglers are terminated."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._requests.put(_SHUTDOWN)
        except (OSError, ValueError):  # pragma: no cover - queue already torn down
            pass
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=timeout)
        # Unregister before closing the channel: the multiplexer tolerates the
        # closure race, but must stop dispatching for this shard first.
        self.multiplexer.unregister(self._port)
        self._fail_waiters("the shard was closed with requests in flight")
        self._requests.close()
        self._responses.close()

    # -- internals ---------------------------------------------------------

    def _send(self, operation: tuple) -> Future:
        """Register a waiter and enqueue one operation.

        The waiter resolves to the child's ``(ok, payload, spans)`` answer —
        from the multiplexer's dispatch, the death sweep, or :meth:`close`.
        """
        if self._closed.is_set():
            raise ShardingError(f"shard {self.shard_id!r} has been closed")
        waiter: Future = Future()
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._waiters[request_id] = waiter
        # A caller that gives up (a cancelled await) drops its waiter at once,
        # so the shard's late answer is discarded instead of routed.
        waiter.add_done_callback(functools.partial(self._forget, request_id))
        kind, *rest = operation
        # The trace rides as the operation's last element; the child re-enters
        # it and ships its spans back with the answer.  On the async path the
        # coroutine runs inside the caller's activation (contextvars flow into
        # tasks), so the same read works for both.
        self._requests.put((kind, request_id, *rest, current_trace()))
        return waiter

    def _forget(self, request_id: int, waiter: Future) -> None:
        if waiter.cancelled():
            with self._lock:
                self._waiters.pop(request_id, None)

    def _result(self, outcome: tuple):
        """Fold shipped spans back and unwrap one answer (typed re-raise)."""
        ok, payload, spans = outcome
        if spans:
            emit_spans(spans)
        if ok:
            return payload
        error_type, message = payload
        raise _ERROR_TYPES.get(error_type, ShardingError)(
            f"shard {self.shard_id!r}: {message}"
        )

    def _call(self, operation: tuple):
        """Send one operation to the shard and block for its answer."""
        return self._result(self._send(operation).result())

    async def _call_async(self, operation: tuple):
        """Send one operation and await its answer on the event loop."""
        return self._result(await asyncio.wrap_future(self._send(operation)))

    def _dispatch(self, item: tuple) -> None:
        """Multiplexer callback: route one shard answer to its waiter."""
        request_id, ok, payload, *extra = item
        with self._lock:
            waiter = self._waiters.pop(request_id, None)
        if waiter is not None:
            _resolve(waiter, (ok, payload, extra[0] if extra else []))

    def _on_death(self) -> None:
        """Multiplexer callback: the shard process died with nothing buffered.

        Swept at the poll cadence until :meth:`close` unregisters the port,
        so registrations racing the death are failed too instead of hanging
        forever.
        """
        self._fail_waiters(f"shard process died (exit code {self._process.exitcode})")

    def _fail_waiters(self, message: str) -> None:
        with self._lock:
            waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            _resolve(waiter, (False, ("ShardingError", message), []))
