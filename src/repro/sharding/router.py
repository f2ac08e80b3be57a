"""The :class:`ShardRouter`: one serving surface over N `PlanService` shards.

The router is the seam the scale-out architecture plugs into: it exposes the
same duck-typed surface as a single :class:`~repro.serving.service.PlanService`
(``submit_async`` / ``optimize_batch_async`` / ``stats`` / ``close``, plus
blocking ``submit`` / ``optimize_batch`` for library callers), so the HTTP
front end and the CLI bind to either interchangeably — with process shards
it also offers its ``event_loop``, on which the front end then serves — while
behind it

* every request is **routed by fingerprint key** over a consistent-hash ring
  (:mod:`repro.sharding.ring`) — structurally identical problems always land
  on the same shard, so each shard's cache and single-flight keep their full
  effectiveness and no plan is optimized on two shards; the fingerprint is
  computed once, here, and handed to the shard with the problem;
* **batches are split per shard** and fanned out concurrently with
  :func:`asyncio.gather`, each sub-batch answered through the shard's own
  bulk path (one admission, per-batch fingerprint dedup), and the responses
  re-merged in request order;
* shards are **in-proc** (`backend="inproc"`: N services in this process —
  routing structure and cache isolation, one GIL) or **processes**
  (`backend="processes"`: each shard is its own OS process behind the wire
  codec, so cold optimization scales across cores);
* :meth:`ShardRouter.add_shard` / :meth:`ShardRouter.remove_shard` resize the
  tier; consistent hashing keeps movement to ~1/N of the key space, and every
  shard keeps its own in-process cache, since each key has exactly one owner;
* a process shard whose child died is reported by
  :meth:`ShardRouter.down_shards` (``GET /healthz`` answers 503 naming it),
  and :meth:`ShardRouter.stats` lists it under ``down`` instead of failing.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.problem import OrderingProblem
from repro.exceptions import ShardingError
from repro.obs import Observability, ObservabilityConfig, trace_span
from repro.serving.fingerprint import fingerprint_problem
from repro.serving.service import PlanResponse, PlanService, PlanServiceConfig
from repro.sharding.process import ProcessShard
from repro.sharding.ring import DEFAULT_VIRTUAL_NODES, HashRing

__all__ = ["SHARD_BACKENDS", "ShardRouterConfig", "ShardRouter"]

SHARD_BACKENDS = ("inproc", "processes")
"""Supported shard backends (same process vs one OS process per shard)."""


@dataclass(frozen=True)
class ShardRouterConfig:
    """Tunables of a :class:`ShardRouter`."""

    shards: int = 2
    """Number of shards started up front (resizable live via
    :meth:`ShardRouter.add_shard` / :meth:`ShardRouter.remove_shard`)."""

    backend: str = "inproc"
    """``"inproc"`` (N services in this process) or ``"processes"`` (one OS
    process per shard, requests crossing via the wire codec)."""

    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    """Ring points per shard (see :class:`~repro.sharding.ring.HashRing`)."""

    service_config: PlanServiceConfig = field(default_factory=PlanServiceConfig)
    """Configuration every shard's :class:`PlanService` is built from (its
    ``mp_context`` also picks the start method of process shards)."""

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ShardingError(f"a router needs at least 1 shard, got {self.shards!r}")
        if self.backend not in SHARD_BACKENDS:
            raise ShardingError(
                f"unknown shard backend {self.backend!r}; "
                f"available: {', '.join(SHARD_BACKENDS)}"
            )


class _InProcShard(PlanService):
    """A shard living in the router's own process: a plan service that
    lists its cached keys like a :class:`ProcessShard` does."""

    def cache_keys(self) -> list[str]:
        return self.cache.keys()


def _down_ids(shards: dict[str, object]) -> list[str]:
    """The ids among ``shards`` of process shards whose child has died."""
    return sorted(
        shard_id
        for shard_id, shard in shards.items()
        if isinstance(shard, ProcessShard) and not shard.alive()
    )


class ShardRouter:
    """Routes plan requests over N shards by consistent-hashed fingerprint."""

    def __init__(self, config: ShardRouterConfig | None = None) -> None:
        self.config = config if config is not None else ShardRouterConfig()
        # The router's own observability bundle: routing counters plus the
        # span store/slow log of the front-end process (shard processes carry
        # their own registries; their spans are shipped back and stitched
        # here).  Tracing follows the service config's flag.
        service_config = self.config.service_config
        self.obs = Observability(
            ObservabilityConfig(
                enabled=service_config.observability,
                slow_request_seconds=service_config.slow_request_seconds,
            )
        )
        self._routed = self.obs.registry.counter(
            "repro_router_requests_total",
            "Requests routed (single submissions and batch members), by shard.",
            labelnames=("shard",),
        )
        self._ring = HashRing(virtual_nodes=self.config.virtual_nodes)
        self._shards: dict[str, object] = {}
        self._multiplexer = None
        self._next_shard_index = 0
        # Guards ring + shard-map mutation (resize); request routing only
        # reads under it briefly, never across an optimization.
        self._lock = threading.RLock()
        self._closed = threading.Event()
        try:
            for _ in range(self.config.shards):
                self.add_shard()
        except BaseException:
            # A failed startup (e.g. the 3rd of 4 shard processes refusing
            # to spawn) must not leak the shards already running.
            for shard in self._shards.values():
                shard.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every shard (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- topology ----------------------------------------------------------

    @property
    def multiplexer(self):
        """The multiplexer this router's process shards answer through (one
        event loop for all of them — see :mod:`repro.sharding.multiplexer`),
        or ``None`` before any process shard exists (e.g. the in-proc
        backend, which needs no response correlation)."""
        return self._multiplexer

    @property
    def event_loop(self):
        """The multiplexer's event loop, on which the HTTP front end serves
        too (:func:`repro.serving.aserver.serve_async`), or ``None`` without
        process shards."""
        return self._multiplexer.loop if self._multiplexer is not None else None

    @property
    def shard_ids(self) -> tuple[str, ...]:
        with self._lock:
            return self._ring.nodes

    def shard_for(self, key: str) -> str:
        """The shard id owning fingerprint cache key ``key``."""
        with self._lock:
            return self._ring.node_for(key)

    def add_shard(self) -> str:
        """Start one more shard and place it on the ring; returns its id."""
        if self._closed.is_set():
            raise ShardingError("the shard router has been closed")
        with self._lock:
            shard_id = f"shard-{self._next_shard_index}"
            self._next_shard_index += 1
            shard = self._build_shard(shard_id)
            self._shards[shard_id] = shard
            self._ring.add_node(shard_id)
            return shard_id

    def remove_shard(self, shard_id: str) -> None:
        """Take ``shard_id`` off the ring and shut it down."""
        with self._lock:
            if shard_id not in self._shards:
                raise ShardingError(f"unknown shard {shard_id!r}")
            if len(self._shards) == 1:
                raise ShardingError("cannot remove the last shard")
            self._ring.remove_node(shard_id)
            shard = self._shards.pop(shard_id)
        shard.close()

    def _build_shard(self, shard_id: str):
        service_config = self.config.service_config
        if self.config.backend == "processes":
            if self._multiplexer is None:
                from repro.sharding.multiplexer import default_multiplexer

                self._multiplexer = default_multiplexer()
            return ProcessShard(
                shard_id,
                service_config,
                mp_context=service_config.mp_context,
                multiplexer=self._multiplexer,
            )
        return _InProcShard(service_config)

    # -- serving surface (duck-typed like PlanService) ---------------------

    def _route(self, problem: OrderingProblem, span):
        """The shard owning ``problem``'s fingerprint, and that fingerprint.

        This is the only place a routed problem is hashed: the fingerprint
        travels along, to an in-proc shard's service as the object and to a
        process shard's child with the wire payload, and neither hashes the
        problem again.
        """
        if self._closed.is_set():
            raise ShardingError("the shard router has been closed")
        fingerprint = fingerprint_problem(
            problem, self.config.service_config.fingerprint_precision
        )
        with self._lock:
            shard_id = self._ring.node_for(fingerprint.key)
            shard = self._shards[shard_id]
        span.annotate(shard=shard_id)
        self._routed.inc(shard=shard_id)
        return shard, fingerprint

    def submit(
        self, problem: OrderingProblem, budget_seconds: float | None = None
    ) -> PlanResponse:
        """Answer one request on the shard owning the problem's fingerprint
        (blocking; for library callers — the front end awaits
        :meth:`submit_async`)."""
        with trace_span("router.submit") as span:
            shard, fingerprint = self._route(problem, span)
            return shard.submit(
                problem, budget_seconds=budget_seconds, fingerprint=fingerprint
            )

    async def submit_async(
        self,
        problem: OrderingProblem,
        budget_seconds: float | None = None,
        timeout_seconds: float | None = None,
    ) -> PlanResponse:
        """Awaitable :meth:`submit`: same routing, no thread held while waiting.

        The coroutine runs inside the caller's trace activation (contextvars
        flow into tasks), so the ``router.submit`` span nests under the front
        end's ``http.request`` span.
        """
        with trace_span("router.submit") as span:
            shard, fingerprint = self._route(problem, span)
            return await self._awaited(
                shard.submit_async(
                    problem, budget_seconds=budget_seconds, fingerprint=fingerprint
                ),
                timeout_seconds,
            )

    def optimize_batch(
        self, problems: Sequence[OrderingProblem], budget_seconds: float | None = None
    ) -> list[PlanResponse]:
        """Blocking :meth:`optimize_batch_async`, run on a private event loop."""
        return asyncio.run(self.optimize_batch_async(problems, budget_seconds))

    async def _awaited(self, awaitable, timeout_seconds: float | None):
        """Run ``awaitable`` under the request deadline (3.10-compatible).

        A deadline hit cancels the shard call — which deregisters its waiter,
        so a late answer is dropped instead of resolving a dead future — and
        surfaces as a typed :class:`ShardingError`.
        """
        if timeout_seconds is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, timeout_seconds)
        except (TimeoutError, asyncio.TimeoutError):
            raise ShardingError(
                f"shard answer deadline of {timeout_seconds} s exceeded"
            ) from None

    async def optimize_batch_async(
        self,
        problems: Sequence[OrderingProblem],
        budget_seconds: float | None = None,
        timeout_seconds: float | None = None,
    ) -> list[PlanResponse]:
        """Split a batch per owning shard, fan out, re-merge in request order.

        The per-shard sub-batches run concurrently via :func:`asyncio.gather`;
        the first error (in sorted shard order) is raised once every
        sub-batch has settled.
        """
        if self._closed.is_set():
            raise ShardingError("the shard router has been closed")
        if not problems:
            return []
        precision = self.config.service_config.fingerprint_precision
        # Fingerprinting is O(batch) hashing work — do it before taking the
        # lock, which only guards the ring/shard-map snapshot.
        fingerprints = [fingerprint_problem(problem, precision) for problem in problems]
        groups: dict[str, list[int]] = {}
        with self._lock:
            for index, fingerprint in enumerate(fingerprints):
                groups.setdefault(self._ring.node_for(fingerprint.key), []).append(index)
            shards = {shard_id: self._shards[shard_id] for shard_id in groups}

        async def fan_out(shard, shard_problems, shard_fingerprints, shard_id):
            # Each gathered sub-call is its own task with its own copy of the
            # caller's context, so the fan-out span nests under the ambient
            # activation.
            with trace_span("router.fanout", shard=shard_id, size=len(shard_problems)):
                return await shard.optimize_batch_async(
                    shard_problems, budget_seconds, shard_fingerprints
                )

        for shard_id, indices in groups.items():
            self._routed.inc(len(indices), shard=shard_id)
        ordered = sorted(groups.items())
        results = await self._awaited(
            asyncio.gather(
                *(
                    fan_out(
                        shards[shard_id],
                        [problems[index] for index in indices],
                        [fingerprints[index] for index in indices],
                        shard_id,
                    )
                    for shard_id, indices in ordered
                ),
                return_exceptions=True,
            ),
            timeout_seconds,
        )
        responses: list[PlanResponse | None] = [None] * len(problems)
        first_error: BaseException | None = None
        for (shard_id, indices), shard_responses in zip(ordered, results):
            if isinstance(shard_responses, BaseException):
                if first_error is None:
                    first_error = shard_responses
                continue
            for index, response in zip(indices, shard_responses):
                responses[index] = response
        if first_error is not None:
            raise first_error
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    # -- introspection -----------------------------------------------------

    def down_shards(self) -> list[str]:
        """Ids of the process shards whose child process is no longer alive."""
        with self._lock:
            shards = dict(self._shards)
        return _down_ids(shards)

    def stats(self) -> dict[str, object]:
        """Aggregated counters across the live shards, plus the per-shard
        breakdown; dead process shards are named under ``down``."""
        with self._lock:
            shards = dict(self._shards)
        down = _down_ids(shards)
        per_shard = {
            shard_id: shard.stats()
            for shard_id, shard in sorted(shards.items())
            if shard_id not in down
        }
        cache_totals: dict[str, float] = {}
        request_totals = {"answered": 0, "rejected": 0, "failed": 0, "coalesced": 0}
        by_source: dict[str, int] = {}
        for stats in per_shard.values():
            for counter, value in stats["cache"].items():
                if not isinstance(value, (int, float)) or counter == "hit_rate":
                    continue
                cache_totals[counter] = cache_totals.get(counter, 0) + value
            requests = stats["requests"]
            for counter in request_totals:
                request_totals[counter] += requests[counter]
            for source, count in requests["by_source"].items():
                by_source[source] = by_source.get(source, 0) + count
        lookups = (
            cache_totals.get("hits", 0)
            + cache_totals.get("stale_hits", 0)
            + cache_totals.get("misses", 0)
        )
        cache_totals["hit_rate"] = (
            (cache_totals.get("hits", 0) + cache_totals.get("stale_hits", 0)) / lookups
            if lookups
            else 0.0
        )
        routed_by_shard = {
            key[0]: int(value) for key, value in sorted(self._routed.values().items())
        }
        return {
            "shards": len(shards),
            "down": down,
            "backend": self.config.backend,
            "cache": cache_totals,
            "requests": {**request_totals, "by_source": by_source},
            "routing": {
                "by_shard": routed_by_shard,
                "total": sum(routed_by_shard.values()),
            },
            "per_shard": per_shard,
        }

    def cache_keys(self) -> dict[str, list[str]]:
        """Every shard's cached fingerprint keys (rebalance measurements)."""
        with self._lock:
            shards = dict(self._shards)
        return {shard_id: shard.cache_keys() for shard_id, shard in sorted(shards.items())}
