"""Process-backed shards: one :class:`~repro.serving.service.PlanService` per child.

An in-proc shard shares the parent's GIL, so N in-proc shards buy isolation
and routing structure but not CPU.  A :class:`ProcessShard` moves the whole
service — cache, portfolio, admission control — into its own OS process:

* problems travel as the compact array payloads of
  :func:`repro.serialization.problem_to_wire` (the wire codec that also
  carries experiment suites to worker processes), and answers come back as
  the flat primitive documents of :func:`repro.serving.http.response_to_dict`
  — no pickled object graphs in either direction;
* the router's fingerprint travels with the problem as
  ``(digest, precision, size, canonical_order)``, so a problem is hashed once,
  at the front door: the child checks that the shipped size and precision
  match its problem and configuration (O(1); a mismatch is a
  :class:`~repro.exceptions.ServingError`) and hashes nothing itself;
* inside the child, each request is handled on an executor thread through
  the service's blocking surface, so one shard process serves concurrent
  submissions (admission control included);
* parent and child share one duplex pipe; each side pickles outside its
  send lock and writes the frame under it (the parent has many concurrent
  senders, the child answers from executor threads);
* the parent side multiplexes: every request registers one waiter — a
  :class:`concurrent.futures.Future` keyed by request id — and the
  process-wide :class:`~repro.sharding.multiplexer.ResponseMultiplexer`, one
  selector thread over *all* shards' pipes and exit sentinels, resolves it.
  Blocking callers (:meth:`ProcessShard.submit`) wait on that future;
  event-loop callers (:meth:`ProcessShard.submit_async`) await it.

Shard-side failures are re-raised in the parent with their original type
where it matters (:class:`~repro.exceptions.AdmissionError` must keep
meaning HTTP 503).  A shard process's exit is seen at once (its sentinel
fires): answers it wrote are delivered, its other in-flight requests fail
with :class:`~repro.exceptions.ShardingError`, and so does, at once, every
later request to it.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
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
from repro.serving.fingerprint import ProblemFingerprint
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


def _shard_service_main(
    connection, parent_end, config: PlanServiceConfig, shard_id: str
) -> None:
    """Child entry point: serve requests until the shutdown sentinel, or until
    the parent's end of the pipe is gone (end of file)."""
    import signal

    # A fork inherits the parent's end; without closing it here, the parent's
    # exit would never read as end of file.
    parent_end.close()

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
    send_lock = threading.Lock()
    try:
        while (item := connection.recv()) is not _SHUTDOWN:
            executor.submit(_handle, item, connection, send_lock, service, shard_id)
    except (EOFError, OSError):  # the parent is gone
        pass
    executor.shutdown(wait=True)
    service.close()


def _handle(
    item: tuple, connection, send_lock: threading.Lock, service: PlanService, shard_id: str
) -> None:
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
        message = (request_id, False, (type(error).__name__, str(error)), spans)
    except Exception as error:  # noqa: BLE001 - a lost answer hangs the parent
        # Anything escaping here (e.g. a TypeError from rejected algorithm
        # options) must still produce a response: the parent's waiter has no
        # timeout and the process stays alive, so a swallowed exception
        # would leave the caller waiting forever.
        message = (request_id, False, ("ShardingError", f"{type(error).__name__}: {error}"), spans)
    else:
        message = (request_id, True, answer, spans)
    frame = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    with send_lock:
        connection.send_bytes(frame)


def _fingerprint_to_wire(fingerprint: ProblemFingerprint | None) -> tuple | None:
    """The router's fingerprint as plain fields (``None`` when there is none)."""
    if fingerprint is None:
        return None
    return (
        fingerprint.digest,
        fingerprint.precision,
        fingerprint.size,
        fingerprint.canonical_order,
    )


def _fingerprint_from_wire(
    shipped: tuple | None, problem: OrderingProblem, precision: int
) -> ProblemFingerprint | None:
    """Rebuild a shipped fingerprint after an O(1) check against ``problem``.

    The digest is trusted, not recomputed: re-hashing here would pay the
    O(n²) fingerprint a second time.  A fingerprint taken at another
    precision, or of a problem of another size, is refused.
    """
    if shipped is None:
        return None
    digest, shipped_precision, size, canonical_order = shipped
    if shipped_precision != precision:
        raise ServingError(
            f"shipped fingerprint has precision {shipped_precision!r}, "
            f"but this shard fingerprints at {precision!r}"
        )
    if size != problem.size or len(canonical_order) != size:
        raise ServingError(
            f"shipped fingerprint covers {size!r} services, "
            f"but the problem has {problem.size}"
        )
    return ProblemFingerprint(
        digest=digest, precision=precision, size=size, canonical_order=canonical_order
    )


def _answer(service: PlanService, kind: str, item: tuple):
    precision = service.config.fingerprint_precision
    if kind == "submit":
        payload, budget, shipped = item[2], item[3], item[4]
        problem = problem_from_wire(payload)
        response = service.submit(
            problem,
            budget_seconds=budget,
            fingerprint=_fingerprint_from_wire(shipped, problem, precision),
        )
        return response_to_dict(response)
    if kind == "batch":
        payloads, budget, shipped = item[2], item[3], item[4]
        problems = [problem_from_wire(payload) for payload in payloads]
        fingerprints = None
        if shipped is not None:
            fingerprints = [
                _fingerprint_from_wire(fields, problem, precision)
                for fields, problem in zip(shipped, problems)
            ]
        answered = service.optimize_batch(
            problems, budget_seconds=budget, fingerprints=fingerprints
        )
        return [response_to_dict(response) for response in answered]
    if kind == "stats":
        return service.stats()
    if kind == "keys":
        return service.cache.keys()
    raise ShardingError(f"unknown shard operation {kind!r}")


def _submit_operation(
    problem: OrderingProblem,
    budget_seconds: float | None,
    fingerprint: ProblemFingerprint | None,
) -> tuple:
    return ("submit", problem_to_wire(problem), budget_seconds, _fingerprint_to_wire(fingerprint))


def _batch_operation(
    problems: Sequence[OrderingProblem],
    budget_seconds: float | None,
    fingerprints: Sequence[ProblemFingerprint] | None,
) -> tuple:
    payloads = [problem_to_wire(problem) for problem in problems]
    shipped = (
        [_fingerprint_to_wire(fingerprint) for fingerprint in fingerprints]
        if fingerprints is not None
        else None
    )
    return ("batch", payloads, budget_seconds, shipped)


def _exit_code(process: multiprocessing.process.BaseProcess) -> int | None:
    """A dying child's exit code, read without reaping it: a reap on the
    multiplexer thread would race a caller's join (of two ``waitpid`` calls,
    the loser reads no exit code at all)."""
    if not multiprocessing.connection.wait([process.sentinel], timeout=1.0):
        return None  # its pipe broke, yet it still runs
    try:
        status = os.waitid(os.P_PID, process.pid, os.WEXITED | os.WNOWAIT)
    except (AttributeError, ChildProcessError):  # no waitid, or not our child
        return process.exitcode
    return status.si_status if status.si_code == os.CLD_EXITED else -status.si_status


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
        self._connection, child_end = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_service_main,
            args=(child_end, self._connection, config, shard_id),
            daemon=True,
            name=f"plan-shard-{shard_id}",
        )
        self._process.start()
        child_end.close()  # the child's exit now closes the pipe
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._request_ids = itertools.count()
        self._waiters: dict[int, Future] = {}  # guarded-by: _lock
        self._death: str | None = None  # guarded-by: _lock
        self._closed = threading.Event()
        self.multiplexer = multiplexer if multiplexer is not None else default_multiplexer()
        try:
            self._port = self.multiplexer.register(
                self._connection,
                on_message=self._dispatch,
                sentinel=self._process.sentinel,
                on_death=self._on_death,
            )
        except BaseException:  # a closed multiplexer: do not leak the child
            self._process.kill()
            self._process.join()
            raise

    # -- shard surface (duck-typed like PlanService) -----------------------

    def submit(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        fingerprint: ProblemFingerprint | None = None,
    ) -> PlanResponse:
        """Answer one request in the child; ``fingerprint`` (computed from
        ``problem`` at the shard's precision) ships along so the child does
        not hash the problem again."""
        document = self._call(_submit_operation(problem, budget_seconds, fingerprint))
        return response_from_dict(document)

    def optimize_batch(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        fingerprints: Sequence[ProblemFingerprint] | None = None,
    ) -> list[PlanResponse]:
        """Answer a batch in the child (``fingerprints``: one per problem, as
        for :meth:`submit`)."""
        if not problems:
            return []
        documents = self._call(_batch_operation(problems, budget_seconds, fingerprints))
        return [response_from_dict(document) for document in documents]

    async def submit_async(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        fingerprint: ProblemFingerprint | None = None,
    ) -> PlanResponse:
        """Awaitable :meth:`submit`: the same waiter, awaited on the event loop."""
        document = await self._call_async(
            _submit_operation(problem, budget_seconds, fingerprint)
        )
        return response_from_dict(document)

    async def optimize_batch_async(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        fingerprints: Sequence[ProblemFingerprint] | None = None,
    ) -> list[PlanResponse]:
        """Awaitable :meth:`optimize_batch` (same wire path as :meth:`submit_async`)."""
        if not problems:
            return []
        documents = await self._call_async(
            _batch_operation(problems, budget_seconds, fingerprints)
        )
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
        # A sender blocked on the full pipe of a wedged child holds the send
        # lock: then the child gets no shutdown message, only terminate().
        if self._send_lock.acquire(timeout=timeout):
            try:
                self._connection.send(_SHUTDOWN)
            except OSError:  # the child is already gone
                pass
            finally:
                self._send_lock.release()
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=timeout)
        # Unregister before closing the pipe: the multiplexer tolerates the
        # closure race, but must stop dispatching for this shard first.
        self.multiplexer.unregister(self._port)
        self._fail_waiters("the shard was closed with requests in flight")
        if self._send_lock.acquire(timeout=timeout):
            self._connection.close()
            self._send_lock.release()

    # -- internals ---------------------------------------------------------

    def _send(self, operation: tuple) -> Future:
        """Register a waiter and send one operation to the child.

        The waiter resolves to the child's ``(ok, payload, spans)`` answer —
        from the multiplexer's dispatch, :meth:`_on_death`, or :meth:`close`.
        Once the shard's death has been seen, this raises at once instead.
        """
        if self._closed.is_set():
            raise ShardingError(f"shard {self.shard_id!r} has been closed")
        request_id = next(self._request_ids)
        kind, *rest = operation
        # The trace rides as the operation's last element; the child re-enters
        # it and ships its spans back with the answer.  On the async path the
        # coroutine runs inside the caller's activation (contextvars flow into
        # tasks), so the same read works for both.
        frame = pickle.dumps((kind, request_id, *rest, current_trace()), pickle.HIGHEST_PROTOCOL)
        waiter: Future = Future()
        with self._lock:
            if self._death is not None:
                raise ShardingError(f"shard {self.shard_id!r}: {self._death}")
            self._waiters[request_id] = waiter
        # A caller that gives up (a cancelled await) drops its waiter at once,
        # so the shard's late answer is discarded instead of routed.
        waiter.add_done_callback(functools.partial(self._forget, request_id))
        try:
            with self._send_lock:
                self._connection.send_bytes(frame)
        except OSError:
            # The child's end is gone.  Its exit fails the waiter through
            # _on_death; after close() nothing would, so fail it here.
            if self._closed.is_set():
                self._fail_waiters("the shard was closed with requests in flight")
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
        """Multiplexer callback: the child exited and its written answers are
        dispatched.  Fail the rest; from now on :meth:`_send` refuses at once."""
        if self._closed.is_set():
            self._fail_waiters("the shard was closed with requests in flight")
            return
        death = f"shard process died (exit code {_exit_code(self._process)})"
        with self._lock:
            self._death = death
        self._fail_waiters(death)

    def _fail_waiters(self, message: str) -> None:
        with self._lock:
            waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            _resolve(waiter, (False, ("ShardingError", message), []))
