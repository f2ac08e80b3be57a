"""A persistent multiprocessing worker pool for bulk plan compilation.

:class:`OptimizerPool` keeps ``workers`` long-lived OS processes around and
feeds them optimization tasks over queues.  Problems travel as the compact
array payloads of :func:`repro.serialization.problem_to_wire`; results come
back as the bare-index tuples of :mod:`repro.parallel.codec`.  Two properties
make the pool a genuine batch-throughput engine rather than a thin
``multiprocessing.Pool`` wrapper:

* **Warm per-problem evaluator caches** — every worker keeps a bounded
  payload-keyed cache of decoded :class:`~repro.core.problem.OrderingProblem`
  instances.  Since a problem's evaluation kernel
  (:meth:`~repro.core.problem.OrderingProblem.evaluator`) is cached on the
  instance, a worker that sees the same problem again (repeated traffic, or
  several algorithms racing over one instance) skips both the decode and the
  kernel construction.
* **Batch single-flight** — :meth:`OptimizerPool.optimize_many` deduplicates
  structurally *identical* payloads inside one batch: each unique problem is
  optimized once and the result fanned back out to every duplicate position.
  A serving trace where the same query arrives many times compiles in
  ``O(unique)`` optimizations instead of ``O(requests)``.

Batches are routed, not serialized: a dedicated *collector* thread owns the
result queue and steers each worker answer to the batch that submitted it (a
task-id → batch registry), so concurrent :meth:`~OptimizerPool.optimize_many`
calls from different threads interleave on the same workers instead of
queueing behind one long-held lock.  A small submission that arrives while a
big batch compiles gets the next free worker, not a place at the back of the
big batch's critical section.

Workers are real processes, so the pool sidesteps the GIL on multi-core
machines.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from collections import OrderedDict
from typing import Mapping, Sequence

from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.core.vector import prepare_kernel
from repro.exceptions import OptimizationError, ParallelError, ReproError
from repro.obs.trace import Span, current_trace, emit_spans
from repro.parallel.codec import result_from_wire, result_to_wire
from repro.serialization import problem_from_wire, problem_to_wire

__all__ = ["OptimizerPool", "optimize_many", "preferred_context", "default_worker_count"]

_SHUTDOWN = None
"""Sentinel a worker interprets as 'drain and exit'."""

_RESULT_POLL_SECONDS = 0.25
"""How often the collector wakes up while idle to check worker health."""


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


def default_worker_count() -> int:
    """Default pool size: one worker per visible CPU, at least one."""
    return max(1, os.cpu_count() or 1)


def _decode_cached(
    payload: tuple, cache: "OrderedDict[tuple, OrderingProblem]", capacity: int
) -> tuple[OrderingProblem, bool]:
    """Decode ``payload``, serving repeats from the worker's warm LRU cache."""
    problem = cache.get(payload)
    if problem is not None:
        cache.move_to_end(payload)
        return problem, True
    problem = problem_from_wire(payload)
    # Build the kernel once, while the problem is cold: the scalar evaluator
    # always, plus the shared vector arrays when the kernel (inherited from
    # the parent via REPRO_KERNEL) resolves to "vector" — so every optimizer
    # run of an optimize_many batch of deduped problems starts from warm
    # arrays instead of re-extracting them.
    prepare_kernel(problem)
    cache[payload] = problem
    while len(cache) > capacity:
        cache.popitem(last=False)
    return problem, False


def _worker_main(tasks, results, warm_cache_size: int) -> None:
    """Worker process entry point: loop over tasks until the shutdown sentinel."""
    import signal

    # Shutdown is coordinated by the parent (sentinel, then terminate); a
    # foreground Ctrl-C must not kill workers mid-task with a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.core.optimizer import optimize  # after fork/spawn, in the child

    import time

    cache: "OrderedDict[tuple, OrderingProblem]" = OrderedDict()
    while True:
        task = tasks.get()
        if task is _SHUTDOWN or task is None:
            break
        task_id, payload, algorithm, options, trace = task
        # Traced tasks time themselves with one worker.optimize span that
        # ships back alongside the result and is stitched into the caller's
        # tree in the parent process.
        span = None
        if trace is not None:
            span = Span(trace[0], "worker.optimize", parent_id=trace[1])
            span.annotate(backend="pool", algorithm=algorithm)
            started = time.perf_counter()
        warm = False
        try:
            problem, warm = _decode_cached(payload, cache, warm_cache_size)
            result = optimize(problem, algorithm=algorithm, **dict(options))
        except ReproError as error:
            answer = (task_id, False, f"{type(error).__name__}: {error}", False)
        except TypeError as error:
            answer = (task_id, False, f"{algorithm} rejected the options: {error}", False)
        else:
            answer = (task_id, True, result_to_wire(result), warm)
        if span is not None:
            span.duration = time.perf_counter() - started
            span.annotate(ok=answer[1], warm=warm)
            results.put((*answer, [span.to_dict()]))
        else:
            results.put((*answer, []))


class _PendingBatch:
    """Parent-side bookkeeping of one in-flight :meth:`optimize_many` call."""

    __slots__ = (
        "position_of_task",
        "remaining",
        "wires",
        "errors",
        "warm_hits",
        "failure",
        "spans",
        "done",
    )

    def __init__(self, position_of_task: dict[int, int]) -> None:
        self.position_of_task = position_of_task
        self.remaining = len(position_of_task)
        self.wires: dict[int, tuple] = {}
        self.errors: dict[int, str] = {}
        self.warm_hits = 0
        self.failure: str | None = None
        self.spans: list[dict] = []
        self.done = threading.Event()


class OptimizerPool:
    """A persistent pool of optimizer worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (default: one per visible CPU).
    warm_cache_size:
        Problems each worker keeps decoded (with a built evaluation kernel).
    context:
        Multiprocessing context, or a start-method name (``"fork"`` /
        ``"forkserver"`` / ``"spawn"``); defaults to ``fork`` where available.

    The pool is thread-safe and batches run *concurrently*: each
    :meth:`optimize_many` call registers its tasks with the collector thread
    and waits only for its own answers, so callers never queue behind another
    caller's batch.  Use it as a context manager, or call :meth:`close`
    explicitly.
    """

    def __init__(
        self,
        workers: int | None = None,
        warm_cache_size: int = 64,
        context: multiprocessing.context.BaseContext | str | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ParallelError(f"workers must be at least 1, got {workers!r}")
        if warm_cache_size < 1:
            raise ParallelError(f"warm_cache_size must be at least 1, got {warm_cache_size!r}")
        self.workers = workers if workers is not None else default_worker_count()
        if context is None or isinstance(context, str):
            context = preferred_context(context)
        self._context = context
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()
        self._processes = [
            self._context.Process(
                target=_worker_main,
                args=(self._tasks, self._results, warm_cache_size),
                daemon=True,
                name=f"optimizer-pool-{index}",
            )
            for index in range(self.workers)
        ]
        for process in self._processes:
            process.start()
        # _state_lock guards the task-id counter, the pending registry and the
        # counters — never held across queue waits or optimization work.
        self._state_lock = threading.Lock()
        self._next_task_id = 0  # guarded-by: _state_lock
        self._pending: dict[int, _PendingBatch] = {}  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _state_lock
        self._tasks_submitted = 0  # guarded-by: _state_lock
        self._warm_hits = 0  # guarded-by: _state_lock
        self._collector_stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect, name="optimizer-pool-collector", daemon=True
        )
        self._collector.start()

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: float = 2.0) -> None:
        """Shut the workers down (idempotent); stragglers are terminated."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            orphaned = set(self._pending.values())
            self._pending.clear()
        for batch in orphaned:
            batch.failure = "the optimizer pool was closed with tasks outstanding"
            batch.done.set()
        for _ in self._processes:
            self._tasks.put(_SHUTDOWN)
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
        self._collector_stop.set()
        self._collector.join(timeout=timeout + _RESULT_POLL_SECONDS)
        self._tasks.close()
        self._results.close()

    def __enter__(self) -> "OptimizerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- bulk optimization -------------------------------------------------

    def optimize_many(
        self,
        problems: Sequence[OrderingProblem],
        algorithm: str = "branch_and_bound",
        options: Mapping[str, object] | None = None,
        dedup: bool = True,
    ) -> list[OptimizationResult]:
        """Optimize every problem of ``problems``, preserving order.

        With ``dedup`` (the default), structurally identical problems — equal
        wire payloads — are optimized once per batch and the result shared by
        all duplicates (each re-attached to its own problem instance).  Raises
        :class:`~repro.exceptions.OptimizationError` if any member fails and
        :class:`~repro.exceptions.ParallelError` if a worker process dies.
        Concurrent calls from different threads interleave on the workers.
        """
        if not problems:
            return []
        options = dict(options or {})
        payloads = [problem_to_wire(problem) for problem in problems]
        first_position: dict[tuple, int] = {}
        unique_positions: list[int] = []
        for position, payload in enumerate(payloads):
            if not dedup or payload not in first_position:
                first_position[payload] = position
                unique_positions.append(position)

        trace = current_trace()
        tasks = []
        with self._state_lock:
            if self._closed:
                raise ParallelError("the optimizer pool has been closed")
            position_of_task: dict[int, int] = {}
            for position in unique_positions:
                task_id = self._next_task_id
                self._next_task_id += 1
                position_of_task[task_id] = position
                tasks.append(
                    (task_id, payloads[position], algorithm, tuple(options.items()), trace)
                )
            batch = _PendingBatch(position_of_task)
            for task_id in position_of_task:
                self._pending[task_id] = batch
            self._tasks_submitted += len(unique_positions)
        try:
            for task in tasks:
                self._tasks.put(task)
        except (ValueError, OSError) as error:
            # close() won the race and tore the task queue down after this
            # batch registered; surface the pool's own error type.
            raise ParallelError("the optimizer pool has been closed") from error

        while not batch.done.wait(timeout=_RESULT_POLL_SECONDS):
            if not self._collector.is_alive():  # pragma: no cover - defensive
                raise ParallelError("the optimizer pool's collector thread died")
        if batch.failure is not None:
            raise ParallelError(batch.failure)
        emit_spans(batch.spans)
        if batch.errors:
            position, message = min(batch.errors.items())
            problem = problems[position]
            raise OptimizationError(
                f"optimize_many failed on problem {position}"
                f"{f' ({problem.name!r})' if problem.name else ''}: {message}"
            )
        results = []
        for position, problem in enumerate(problems):
            source = first_position[payloads[position]] if dedup else position
            results.append(result_from_wire(batch.wires[source], problem))
        return results

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counters: tasks actually submitted to workers, and their warm-cache hits."""
        with self._state_lock:
            return {"tasks_submitted": self._tasks_submitted, "warm_hits": self._warm_hits}

    # -- collector ---------------------------------------------------------

    def _collect(self) -> None:
        """Route worker answers to the batches that submitted them."""
        while True:
            try:
                task_id, ok, payload, warm, spans = self._results.get(
                    timeout=_RESULT_POLL_SECONDS
                )
            except queue.Empty:
                if self._collector_stop.is_set():
                    return
                self._fail_pending_on_dead_workers()
                continue
            except (EOFError, OSError, ValueError):  # pragma: no cover - shutdown race
                return
            with self._state_lock:
                batch = self._pending.pop(task_id, None)
                if batch is None:
                    # A straggler from a batch that aborted (worker death,
                    # pool close) — must not be attributed to a live batch.
                    continue
                position = batch.position_of_task[task_id]
                if spans:
                    batch.spans.extend(spans)
                if ok:
                    batch.wires[position] = payload
                    if warm:
                        batch.warm_hits += 1
                        self._warm_hits += 1
                else:
                    batch.errors[position] = payload
                batch.remaining -= 1
                finished = batch.remaining == 0
            if finished:
                batch.done.set()

    def _fail_pending_on_dead_workers(self) -> None:
        with self._state_lock:
            if not self._pending or self._closed:
                return
            dead = [process.name for process in self._processes if not process.is_alive()]
            if not dead:
                return
            # Tasks queued to a dead worker are lost; every waiting batch
            # would hang, so fail them all crisply (the pre-routing behaviour
            # raised the same error from the waiting thread itself).
            failed = set(self._pending.values())
            self._pending.clear()
        message = f"worker process(es) {', '.join(dead)} died with tasks outstanding"
        for batch in failed:
            batch.failure = message
            batch.done.set()


def optimize_many(
    problems: Sequence[OrderingProblem],
    algorithm: str = "branch_and_bound",
    workers: int | None = None,
    options: Mapping[str, object] | None = None,
    dedup: bool = True,
) -> list[OptimizationResult]:
    """One-shot convenience wrapper around :class:`OptimizerPool`."""
    with OptimizerPool(workers=workers) as pool:
        return pool.optimize_many(problems, algorithm=algorithm, options=options, dedup=dedup)
