"""The :class:`PlanService` façade: cached, budgeted plan serving.

This is the subsystem's front door.  A long-running process constructs one
``PlanService`` and feeds it a stream of :class:`~repro.core.problem.OrderingProblem`
instances; the service answers each with a :class:`PlanResponse`, combining

* the **fingerprint cache** (:mod:`repro.serving.cache`) — structurally
  identical problems are answered without optimizing again, with
  stale-while-revalidate refresh when parameters drift,
* the **optimizer portfolio** (:mod:`repro.serving.portfolio`) — cache misses
  are optimized under the configured latency budget; the race ends at the
  first proof of optimality or at the deadline, and its members stop when
  told,
* **single-flight coalescing** (:class:`~repro.serving.cache.SingleFlight`) —
  N concurrent misses on one fingerprint trigger exactly one optimization;
  the N-1 followers wait for the leader's answer instead of stampeding the
  portfolio (the classic thundering-herd fix), and
* **admission control** — at most ``max_in_flight + queue_depth`` requests
  are pending at once; anything beyond is rejected with
  :class:`~repro.exceptions.AdmissionError` so overload degrades crisply
  instead of queueing unboundedly.

Besides the one-at-a-time :meth:`PlanService.submit`, the service answers
whole batches through :meth:`PlanService.optimize_batch`: the batch is
admitted as one unit, answered from the cache where possible, and the misses
are deduplicated by fingerprint so each unique problem is optimized once —
the bulk-compilation mirror of the single-flight contract.

Each request runs one code path, written as *steps*: a generator that does
the cache work inline and yields a :class:`concurrent.futures.Future` when it
needs a cold optimization — the leader's runs on the service's optimizer
pool of ``max_in_flight`` workers, and single-flight followers get the
leader's future.  The awaitable surface (:meth:`PlanService.submit_async`,
:meth:`PlanService.optimize_batch_async`) awaits each future, so a cache hit
is answered inline on the event loop and a miss holds no thread while it
waits; the blocking surface (:meth:`PlanService.submit`,
:meth:`PlanService.optimize_batch`) blocks on it.  Either way at most
``max_in_flight`` optimizations run at once.

Every answer is measured (:mod:`repro.serving.metrics`); :meth:`PlanService.stats`
exposes the whole picture — cache counters, per-source latency quantiles,
admission rejections — as one JSON-ready dictionary, which is also what the
HTTP endpoint (:mod:`repro.serving.http`) serves.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import contextvars
import logging
import threading
from dataclasses import dataclass, field
from typing import Generator, Iterable, Mapping, Sequence

from repro.core.evaluation import enable_kernel_profiling, kernel_profile
from repro.core.problem import OrderingProblem
from repro.core.vector import KERNELS, numpy_available, resolve_kernel, set_default_kernel
from repro.exceptions import (
    AdmissionError,
    InvalidPlanError,
    ReproError,
    ServingError,
)
from repro.serving.cache import CacheLookup, PlanCache, SingleFlight
from repro.serving.fingerprint import (
    DEFAULT_PRECISION,
    ProblemFingerprint,
    fingerprint_problem,
)
from repro.obs import Observability, ObservabilityConfig, trace_span
from repro.serving.metrics import ServingMetrics
from repro.serving.portfolio import DEFAULT_PORTFOLIO, PortfolioOptimizer, PortfolioOptions
from repro.utils.timing import Stopwatch

__all__ = ["PlanServiceConfig", "PlanResponse", "PlanService"]

_log = logging.getLogger("repro.serving")

REVALIDATION_WORKERS = 2
"""Threads refreshing stale/drifted cache entries in the background; each
refresh is a portfolio race without a budget, which ends at the first proof
of optimality."""


@dataclass(frozen=True)
class PlanServiceConfig:
    """Tunables of a :class:`PlanService`."""

    cache_enabled: bool = True
    """Whether answers are cached and served from the cache at all (disabling
    makes every submission optimize cold, e.g. for ``repro plan`` without
    ``--cached``)."""

    cache_capacity: int = 1024
    """Maximum number of cached plans (LRU beyond that)."""

    cache_ttl: float | None = 300.0
    """Plan lifetime in seconds (``None`` disables expiry)."""

    stale_while_revalidate: bool = True
    """Serve expired plans immediately and refresh them in the background."""

    fingerprint_precision: int = DEFAULT_PRECISION
    """Decimal digits of the fingerprint quantization grid."""

    drift_threshold: float | None = 0.05
    """Parameter drift (vs the cached reference problem) beyond which a fresh
    hit still triggers a background re-optimization; ``None`` disables the
    check."""

    budget_seconds: float | None = 1.0
    """Latency budget handed to the portfolio on cache misses."""

    algorithms: tuple[str, ...] = DEFAULT_PORTFOLIO
    """Portfolio ladder; the first member is the synchronous anytime seed."""

    algorithm_options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    """Per-algorithm options forwarded to the portfolio."""

    mp_context: str | None = None
    """Multiprocessing start method (``"fork"`` / ``"forkserver"`` /
    ``"spawn"``) of shard processes (read by
    :class:`~repro.sharding.router.ShardRouter`).  ``None`` keeps the cheap
    default (``fork`` where available); pick ``forkserver`` or ``spawn`` to
    avoid forking from a threaded parent (the classic fork-with-threads
    caveat)."""

    max_in_flight: int = 8
    """Size of the optimizer pool that runs cold optimizations for both
    surfaces (further misses queue for a worker); with ``queue_depth`` it
    also sets the admission bound."""

    queue_depth: int = 64
    """Requests allowed to be pending beyond ``max_in_flight`` before
    admission control rejects."""

    observability: bool = False
    """Turn on request tracing and kernel profiling (see :mod:`repro.obs`).
    Metrics counters are always maintained; this flag gates the parts with
    per-request cost — span collection and evaluation-kernel counting."""

    slow_request_seconds: float | None = None
    """Requests slower than this land in the slow-request log (requires
    :attr:`observability`; ``None`` disables the log)."""

    kernel: str = "auto"
    """Evaluation kernel the optimizers score candidates with: ``"vector"``
    (numpy batch kernel, requires the ``fast`` extra), ``"scalar"`` (pure
    Python), or ``"auto"`` (vector when numpy is available and the instance
    is large enough to win).  A non-``auto`` choice is installed process-wide
    (and exported via ``REPRO_KERNEL``), so portfolio members, pool workers
    and process shards inherit it transparently; ``auto`` leaves any existing
    process-wide setting alone."""

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ServingError(f"max_in_flight must be at least 1, got {self.max_in_flight!r}")
        if self.queue_depth < 0:
            raise ServingError(f"queue_depth must be non-negative, got {self.queue_depth!r}")
        if self.drift_threshold is not None and self.drift_threshold < 0:
            raise ServingError(
                f"drift_threshold must be non-negative, got {self.drift_threshold!r}"
            )
        if self.slow_request_seconds is not None and self.slow_request_seconds < 0:
            raise ServingError(
                f"slow_request_seconds must be non-negative, "
                f"got {self.slow_request_seconds!r}"
            )
        if self.kernel not in KERNELS:
            raise ServingError(
                f"unknown evaluation kernel {self.kernel!r}; available: {', '.join(KERNELS)}"
            )


@dataclass(frozen=True)
class PlanResponse:
    """One answered plan request."""

    order: tuple[int, ...]
    """The plan, as service indices of the *submitted* problem."""

    service_names: tuple[str, ...]
    """The plan as service names, in execution order."""

    cost: float
    """Bottleneck cost of the plan under the submitted problem's parameters."""

    algorithm: str
    """Algorithm that originally produced the plan."""

    optimal: bool
    """Whether that algorithm guarantees global optimality (for the problem it
    optimized; a drifted cache hit may no longer be exactly optimal here)."""

    cache_hit: bool
    """Whether the answer came from the plan cache."""

    stale: bool
    """Whether the served cache entry had outlived its TTL."""

    fingerprint: str
    """Cache key of the submitted problem."""

    latency_seconds: float
    """End-to-end service-side latency of this request."""

    coalesced: bool = False
    """Whether this answer rode along on another request's optimization
    (single-flight follower, or batch duplicate of an optimized problem)."""


class PlanService:
    """A long-running, cache-accelerated, admission-controlled plan server."""

    def __init__(self, config: PlanServiceConfig | None = None) -> None:
        self.config = config if config is not None else PlanServiceConfig()
        self.cache = PlanCache(
            capacity=self.config.cache_capacity,
            ttl=self.config.cache_ttl,
            stale_while_revalidate=self.config.stale_while_revalidate,
        )
        self.obs = Observability(
            ObservabilityConfig(
                enabled=self.config.observability,
                slow_request_seconds=self.config.slow_request_seconds,
            )
        )
        self.metrics = ServingMetrics(registry=self.obs.registry)
        self._pending_gauge = self.obs.registry.gauge(
            "repro_requests_pending", "Requests admitted and not yet answered."
        )
        self._cache_gauge = self.obs.registry.gauge(
            "repro_cache_entries", "Plans currently held in the fingerprint cache."
        )
        self._kernel_counter = self.obs.registry.counter(
            "repro_kernel_evaluations_total",
            "Plan-evaluation kernel calls in this process, by kind "
            "(full/bounded/delta/batch); present when kernel profiling is on.",
            labelnames=("kind",),
        )
        self._kernel_seen: dict[str, int] = {}
        if self.config.kernel != "auto":
            # Install the explicit choice process-wide so portfolio members,
            # pool workers and process shards all score on the same kernel.
            set_default_kernel(self.config.kernel)
        self._kernel_gauge = self.obs.registry.gauge(
            "repro_kernel_active",
            "1 for the kernel large-instance optimizations currently resolve "
            "to (auto resolution accounts for numpy availability).",
            labelnames=("kernel",),
        )
        _log.info(
            "plan service evaluation kernel: %s (requested %r, numpy %s)",
            self.active_kernel(),
            self.config.kernel,
            "available" if numpy_available() else "not installed",
        )
        self.obs.registry.register_callback(self._refresh_gauges)
        if self.config.observability:
            enable_kernel_profiling()
        self._portfolio = PortfolioOptimizer(
            PortfolioOptions(
                algorithms=self.config.algorithms,
                budget_seconds=self.config.budget_seconds,
                algorithm_options=dict(self.config.algorithm_options),
            ),
            max_workers=max(2 * len(self.config.algorithms), self.config.max_in_flight),
        )
        self._single_flight = SingleFlight()
        # Cold optimizations run here, at most max_in_flight at a time.
        self._optimizer = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.max_in_flight, thread_name_prefix="plan-optimize"
        )
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._revalidator = concurrent.futures.ThreadPoolExecutor(
            max_workers=REVALIDATION_WORKERS, thread_name_prefix="revalidate"
        )
        self._revalidating: set[str] = set()
        self._revalidating_lock = threading.Lock()
        self._closed = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop background refresh work and every portfolio member still racing."""
        self._closed.set()
        self._optimizer.shutdown(wait=False)
        self._revalidator.shutdown(wait=False, cancel_futures=True)
        self._portfolio.close()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- serving -----------------------------------------------------------

    def submit(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        fingerprint: ProblemFingerprint | None = None,
    ) -> PlanResponse:
        """Answer one plan request (blocking; safe to call from many threads).

        ``fingerprint`` lets a caller that already fingerprinted the problem
        (the shard router routes by it) skip the re-hash; it must have been
        computed from ``problem`` at the service's configured precision.
        Raises :class:`~repro.exceptions.AdmissionError` when the service is
        over capacity and :class:`~repro.exceptions.ServingError` after
        :meth:`close`.
        """
        with self._admitted("service.submit"):
            return _run(self._answer(problem, budget_seconds, fingerprint))

    async def submit_async(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        fingerprint: ProblemFingerprint | None = None,
    ) -> PlanResponse:
        """Awaitable :meth:`submit`: the same request steps on the caller's loop.

        A cache hit is answered inline; a miss awaits its optimization's
        future (or its flight leader's) without holding a thread.
        """
        with self._admitted("service.submit"):
            return await _run_async(self._answer(problem, budget_seconds, fingerprint))

    def optimize_batch(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        fingerprints: Sequence[ProblemFingerprint] | None = None,
    ) -> list[PlanResponse]:
        """Answer a whole batch of requests as one bulk-compilation unit.

        Unlike N :meth:`submit` calls (N independent requests, N admissions),
        the batch is admitted *once*, answered from the cache where possible,
        and its misses are deduplicated by fingerprint: structurally identical
        problems trigger one optimization whose answer every duplicate shares
        (flagged ``coalesced``).  Misses also join the service-wide
        single-flight, so a batch and concurrent :meth:`submit` calls on the
        same fingerprint never optimize twice.  With the cache disabled every
        member optimizes cold — fingerprint identity is quantized, and
        ``cache_enabled=False`` is exactly the opt-out from
        fingerprint-approximate answers (matching :meth:`submit`).
        ``fingerprints`` (one per problem, at the configured precision) skips
        the re-hash for callers that already fingerprinted the batch.  Raises
        on the first failing optimization; order is preserved.
        """
        with self._admitted("service.batch", size=len(problems)):
            return _run(self._answer_batch(problems, budget_seconds, fingerprints))

    async def optimize_batch_async(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        fingerprints: Sequence[ProblemFingerprint] | None = None,
    ) -> list[PlanResponse]:
        """Awaitable :meth:`optimize_batch` (the same steps, awaited on the loop)."""
        with self._admitted("service.batch", size=len(problems)):
            return await _run_async(self._answer_batch(problems, budget_seconds, fingerprints))

    def warm(self, problems: Iterable[OrderingProblem]) -> int:
        """Pre-populate the cache (bypasses admission control); returns the count."""
        warmed = 0
        for problem in problems:
            self._optimize_and_cache(problem, None)
            warmed += 1
        return warmed

    def active_kernel(self) -> str:
        """The kernel a large-instance optimization currently resolves to.

        Small instances may still resolve to ``scalar`` under ``auto`` (the
        vector kernel only wins past :data:`repro.core.vector.AUTO_MIN_SIZE`).
        """
        kernel = self.config.kernel if self.config.kernel != "auto" else None
        return resolve_kernel(kernel)

    def stats(self) -> dict[str, object]:
        """A JSON-ready snapshot of cache, request and admission statistics."""
        with self._pending_lock:
            pending = self._pending
        profile = kernel_profile()
        kernel = {
            "profiling": profile is not None,
            "requested": self.config.kernel,
            "active": self.active_kernel(),
            "numpy": numpy_available(),
        }
        if profile is not None:
            kernel.update(profile.snapshot())
        return {
            "kernel": kernel,
            "cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                **self.cache.stats().as_dict(),
            },
            "requests": self.metrics.snapshot(),
            "admission": {
                "in_flight_limit": self.config.max_in_flight,
                "queue_depth": self.config.queue_depth,
                "pending": pending,
            },
            "portfolio": {
                "algorithms": list(self.config.algorithms),
                "budget_seconds": self.config.budget_seconds,
            },
        }

    # -- internals ---------------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Registry render callback: sync gauges and kernel counters.

        The kernel profile is process-global; the registry counter advances
        by the delta since this registry last looked, so scraping /metrics
        twice never double-counts.
        """
        with self._pending_lock:
            pending = self._pending
        self._pending_gauge.set(pending)
        self._cache_gauge.set(len(self.cache))
        active = self.active_kernel()
        for name in ("scalar", "vector"):
            self._kernel_gauge.set(1.0 if name == active else 0.0, kernel=name)
        profile = kernel_profile()
        if profile is not None:
            for kind, value in profile.counts().items():
                previous = self._kernel_seen.get(kind, 0)
                if value > previous:
                    self._kernel_counter.inc(value - previous, kind=kind)
                    self._kernel_seen[kind] = value

    def _admit(self) -> None:
        limit = self.config.max_in_flight + self.config.queue_depth
        with self._pending_lock:
            if self._pending >= limit:
                reason = "queue_overflow" if self.config.queue_depth else "capacity"
                self.metrics.record_rejection(reason)
                raise AdmissionError(
                    f"plan service over capacity: {self._pending} requests pending "
                    f"(limit {limit} = {self.config.max_in_flight} in flight "
                    f"+ {self.config.queue_depth} queued)"
                )
            self._pending += 1

    @contextlib.contextmanager
    def _admitted(self, span_name: str, **annotations: object):
        """Admission control and the request span around one request or batch."""
        if self._closed.is_set():
            raise ServingError("the plan service has been closed")
        self._admit()
        try:
            with trace_span(span_name, **annotations):
                yield
        finally:
            with self._pending_lock:
                self._pending -= 1

    def _answer(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None,
        fingerprint: ProblemFingerprint | None = None,
    ) -> Generator[concurrent.futures.Future, object, PlanResponse]:
        """One request's steps (see the module docstring)."""
        stopwatch = Stopwatch().start()
        if fingerprint is None:
            fingerprint = fingerprint_problem(problem, self.config.fingerprint_precision)
        if self.config.cache_enabled:
            cached = self._try_cached_response(problem, fingerprint, stopwatch)
            if cached is not None:
                return cached

        try:
            positions, algorithm, optimal, leader = yield from self._optimize_cold(
                problem, budget_seconds, fingerprint
            )
        except Exception:
            # Every exception fails the request (the front end answers 500),
            # not only the typed ones.
            self.metrics.record_failure()
            raise
        order = fingerprint.from_positions(positions)
        cost = problem.cost(order)
        latency = stopwatch.stop()
        self.metrics.observe("cold", latency, cost, optimal)
        if not leader:
            self.metrics.record_coalesced()
        return PlanResponse(
            order=order,
            service_names=tuple(problem.service(index).name for index in order),
            cost=cost,
            algorithm=algorithm,
            optimal=optimal,
            cache_hit=False,
            stale=False,
            fingerprint=fingerprint.key,
            latency_seconds=latency,
            coalesced=not leader,
        )

    def _try_cached_response(
        self,
        problem: OrderingProblem,
        fingerprint: ProblemFingerprint,
        stopwatch: Stopwatch,
    ) -> PlanResponse | None:
        """Answer from the cache, or return ``None`` when a cold path is needed."""
        lookup = self.cache.get(fingerprint)
        entry = lookup.entry
        if entry is None:
            return None
        try:
            order = fingerprint.from_positions(entry.positions)
            problem.validate_plan(order)
        except (ServingError, InvalidPlanError):
            # A corrupt or incompatible entry must never break serving;
            # fall through to a cold optimization that replaces it.
            return None
        needs_refresh = lookup.stale or (
            self.config.drift_threshold is not None
            and self.cache.needs_revalidation(entry, problem, self.config.drift_threshold)
        )
        if needs_refresh:
            self._schedule_revalidation(problem, fingerprint.key)
        latency = stopwatch.stop()
        source = "stale" if lookup.stale else "hit"
        cost = problem.cost(order)
        self.metrics.observe(source, latency, cost, entry.optimal)
        return PlanResponse(
            order=order,
            service_names=tuple(problem.service(index).name for index in order),
            cost=cost,
            algorithm=entry.algorithm,
            optimal=entry.optimal,
            cache_hit=True,
            stale=lookup.stale,
            fingerprint=fingerprint.key,
            latency_seconds=latency,
        )

    def _optimize_cold(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None,
        fingerprint: ProblemFingerprint,
    ) -> Generator[concurrent.futures.Future, object, tuple[tuple[int, ...], str, bool, bool]]:
        """Steps of a miss, coalescing concurrent misses on the same
        fingerprint onto one flight: yields the optimization's future (the
        leader's runs on the optimizer pool).

        Returns ``(canonical positions, algorithm, optimal, leader)``.  The
        flight shares canonical *positions* rather than a result object: each
        rider re-attaches them to its own problem instance, exactly like a
        cache hit.  With the cache disabled every submission must optimize
        cold by contract, so coalescing is bypassed.
        """

        def compute() -> tuple[tuple[int, ...], str, bool]:
            result = self._optimize_and_cache(problem, budget_seconds, fingerprint)
            return (fingerprint.to_positions(result.order), result.algorithm, result.optimal)

        def start() -> concurrent.futures.Future:
            # The copied context carries this request's trace onto the pool.
            context = contextvars.copy_context()
            try:
                return self._optimizer.submit(context.run, compute)
            except RuntimeError:  # the pool shut down after this request was admitted
                raise ServingError("the plan service has been closed") from None

        with trace_span("optimize.cold") as span:
            if not self.config.cache_enabled:
                future, leader = start(), True
            else:
                future, leader = self._single_flight.join(fingerprint.key, start)
            try:
                value = yield future
            except Exception as error:
                if leader:
                    raise
                raise SingleFlight.follower_error(error) from None
            span.annotate(coalesced=not leader)
        positions, algorithm, optimal = value  # type: ignore[misc]
        return (positions, algorithm, optimal, leader)

    def _answer_batch(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None,
        fingerprints: Sequence[ProblemFingerprint] | None = None,
    ) -> Generator[concurrent.futures.Future, object, list[PlanResponse]]:
        """One batch's steps: every unique miss yields one optimization future."""
        if fingerprints is not None and len(fingerprints) != len(problems):
            raise ServingError(
                f"got {len(fingerprints)} fingerprints for {len(problems)} problems"
            )
        responses: list[PlanResponse | None] = [None] * len(problems)
        if fingerprints is None:
            fingerprints = [
                fingerprint_problem(problem, self.config.fingerprint_precision)
                for problem in problems
            ]

        # Pass 1: serve cache hits, group the misses by fingerprint key.  With
        # the cache disabled there is no grouping: fingerprint identity is
        # quantized, and cache_enabled=False opts out of quantized sharing.
        miss_groups: list[list[int]] = []
        group_of_key: dict[str, list[int]] = {}
        for index, (problem, fingerprint) in enumerate(zip(problems, fingerprints)):
            stopwatch = Stopwatch().start()
            if not self.config.cache_enabled:
                miss_groups.append([index])
                continue
            cached = self._try_cached_response(problem, fingerprint, stopwatch)
            if cached is not None:
                responses[index] = cached
                continue
            group = group_of_key.get(fingerprint.key)
            if group is None:
                group = []
                group_of_key[fingerprint.key] = group
                miss_groups.append(group)
            group.append(index)

        # Pass 2: one optimization per unique missing fingerprint; every
        # member of the group shares the canonical positions it produced.
        for indices in miss_groups:
            leader_index = indices[0]
            stopwatch = Stopwatch().start()
            try:
                positions, algorithm, optimal, leader = yield from self._optimize_cold(
                    problems[leader_index], budget_seconds, fingerprints[leader_index]
                )
            except Exception:
                self.metrics.record_failure()
                raise
            latency = stopwatch.stop()
            for index in indices:
                problem = problems[index]
                fingerprint = fingerprints[index]
                order = fingerprint.from_positions(positions)
                cost = problem.cost(order)
                coalesced = index != leader_index or not leader
                self.metrics.observe("cold", latency, cost, optimal)
                if coalesced:
                    self.metrics.record_coalesced()
                responses[index] = PlanResponse(
                    order=order,
                    service_names=tuple(problem.service(i).name for i in order),
                    cost=cost,
                    algorithm=algorithm,
                    optimal=optimal,
                    cache_hit=False,
                    stale=False,
                    fingerprint=fingerprint.key,
                    latency_seconds=latency,
                    coalesced=coalesced,
                )
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    def _optimize_and_cache(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None,
        fingerprint: ProblemFingerprint | None = None,
    ):
        result = self._portfolio.optimize(problem, budget_seconds=budget_seconds).best
        if not self.config.cache_enabled:
            return result
        if fingerprint is None:
            fingerprint = fingerprint_problem(problem, self.config.fingerprint_precision)
        self.cache.put(
            fingerprint,
            positions=fingerprint.to_positions(result.order),
            cost=result.cost,
            algorithm=result.algorithm,
            optimal=result.optimal,
            problem=problem,
        )
        return result

    def _schedule_revalidation(self, problem: OrderingProblem, key: str) -> None:
        """Refresh one cache entry in the background, at most once at a time."""
        if self._closed.is_set():
            return
        with self._revalidating_lock:
            if key in self._revalidating:
                return
            self._revalidating.add(key)

        def refresh() -> None:
            try:
                self._optimize_and_cache(problem, None)
            except ReproError:
                pass  # The stale entry stays; the next request retries.
            finally:
                with self._revalidating_lock:
                    self._revalidating.discard(key)

        try:
            self._revalidator.submit(refresh)
        except RuntimeError:
            # The executor is shutting down; drop the refresh.
            with self._revalidating_lock:
                self._revalidating.discard(key)


def _run(steps: Generator) -> object:
    """Drive request steps to their answer, blocking on each future they yield."""
    try:
        future = next(steps)
        while True:
            try:
                outcome = future.result()
            except Exception as error:  # noqa: BLE001 - handed back to the steps
                future = steps.throw(error)
            else:
                future = steps.send(outcome)
    except StopIteration as finished:
        return finished.value
    finally:
        steps.close()


async def _run_async(steps: Generator) -> object:
    """:func:`_run` for an event loop: each future is awaited, not blocked on."""
    try:
        future = next(steps)
        while True:
            try:
                # shield: a cancelled request must not cancel an optimization
                # its flight's other requests still wait for.
                outcome = await asyncio.shield(asyncio.wrap_future(future))
            except Exception as error:  # noqa: BLE001 - handed back to the steps
                future = steps.throw(error)
            else:
                future = steps.send(outcome)
    except StopIteration as finished:
        return finished.value
    finally:
        steps.close()
