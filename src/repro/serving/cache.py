"""Thread-safe LRU + TTL plan cache with stale-while-revalidate.

The cache maps problem fingerprints (see :mod:`repro.serving.fingerprint`) to
:class:`CachedPlan` entries.  Plans are stored *positionally* — as canonical
positions rather than problem indices — so an entry produced for one problem
can serve any later problem with the same fingerprint, however its services
are indexed.

Eviction policy:

* **LRU** — the cache holds at most ``capacity`` entries; inserting beyond
  that evicts the least-recently-used one.
* **TTL** — entries older than ``ttl`` seconds are expired.  With
  ``stale_while_revalidate`` disabled an expired entry is a plain miss; with
  it enabled, :meth:`PlanCache.get` still *returns* the expired entry (marked
  ``stale``) so the caller can answer immediately and re-optimize in the
  background — the serving layer's classic stale-while-revalidate contract.

Drift-based revalidation hooks into :class:`repro.estimation.adaptive.DriftReference`:
fingerprint quantization deliberately buckets nearby problems onto the same
key, so :meth:`PlanCache.needs_revalidation` measures how far the requesting
problem's parameters have drifted from the ones the cached plan was optimized
for and reports when they moved beyond the configured threshold.  An entry
keeps those parameters as one compact array in canonical order, never the
problem object itself, so a full cache holds plans and numbers, not problem
graphs; the asker's parameters are compared through its own canonical order,
the same pairing its cached plan is translated through.

Entries live in one recency-ordered ``OrderedDict`` under one lock, which
also guards the counters: a lookup's read, expiry decision, drop-or-promote
and counting are one critical section.  The consistent-hash ring of the
sharding tier sends each fingerprint to exactly one shard, so each shard's
cache is the only store its keys ever need.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.core.problem import OrderingProblem
from repro.estimation.adaptive import DriftReference
from repro.exceptions import EstimationError, ServingError
from repro.obs.trace import trace_span
from repro.serving.fingerprint import ProblemFingerprint

__all__ = ["CacheStats", "CachedPlan", "CacheLookup", "PlanCache", "SingleFlight"]


@dataclass
class CacheStats:
    """Counters describing the cache's behaviour since construction."""

    hits: int = 0
    """Lookups answered from a fresh entry."""

    stale_hits: int = 0
    """Lookups answered from an expired entry (stale-while-revalidate mode)."""

    misses: int = 0
    """Lookups that found nothing usable."""

    insertions: int = 0
    """Entries stored via :meth:`PlanCache.put`."""

    evictions: int = 0
    """Entries displaced by the LRU policy."""

    expirations: int = 0
    """Entries dropped because their TTL had elapsed."""

    revalidations: int = 0
    """Entries flagged for background re-optimization (drift or staleness)."""

    @property
    def lookups(self) -> int:
        """Total number of :meth:`PlanCache.get` calls."""
        return self.hits + self.stale_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (fresh or stale)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.stale_hits) / self.lookups

    def as_dict(self) -> dict[str, float | int]:
        """Flatten the counters for reports and the HTTP stats endpoint."""
        return {
            "hits": self.hits,
            "stale_hits": self.stale_hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "revalidations": self.revalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True, slots=True)
class CachedPlan:
    """One cached optimization outcome, stored in canonical positions."""

    fingerprint: ProblemFingerprint
    """Fingerprint of the problem the plan was optimized for."""

    positions: tuple[int, ...]
    """The plan as canonical positions (see :class:`ProblemFingerprint`)."""

    cost: float
    """Bottleneck cost the plan achieved on the problem it was optimized for."""

    algorithm: str
    """Algorithm that produced the plan."""

    optimal: bool
    """Whether the producing algorithm guarantees global optimality."""

    reference: DriftReference
    """The parameters of the instance the plan was optimized for, in
    canonical order (drift reference)."""

    created_at: float
    """Cache-clock timestamp of the insertion."""


@dataclass(frozen=True)
class CacheLookup:
    """The outcome of one cache lookup."""

    entry: CachedPlan | None
    """The entry found, or ``None`` on a miss."""

    stale: bool = False
    """Whether the entry's TTL had already elapsed when it was served."""

    @property
    def hit(self) -> bool:
        """Whether a usable entry (fresh or stale) was found."""
        return self.entry is not None


class _InFlightCall:
    """Bookkeeping of one in-flight single-flighted computation."""

    __slots__ = ("future", "waiters")

    def __init__(self, future: Future) -> None:
        self.future = future
        self.waiters = 0


class SingleFlight:
    """Per-key call coalescing (the classic *single-flight* primitive).

    When several callers miss the cache on the same fingerprint at once, only
    the first — the *leader* — starts the expensive computation; followers
    share its :class:`concurrent.futures.Future`.  This is the
    thundering-herd fix: N concurrent misses on one key cost one
    optimization, not N.  A follower may block on the future or await it
    from an event loop (``asyncio.wrap_future``) without holding a thread.

    The value shared through a flight must be *instance-independent* (the plan
    service shares canonical cache positions, never a plan bound to the
    leader's problem object).  A leader failure reaches every follower as a
    :class:`~repro.exceptions.ServingError` carrying the leader's message
    (:meth:`follower_error`); the flight is cleared when its future
    resolves, so the next request retries fresh.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: dict[str, _InFlightCall] = {}  # guarded-by: _lock

    def join(self, key: str, start: Callable[[], Future]) -> tuple[Future, bool]:
        """Join ``key``'s flight: ``(its future, whether the caller leads it)``.

        The first caller of a burst leads: ``start()`` — called under the
        flight lock, so it must only *start* the work — returns the future
        every caller of the burst shares.
        """
        with self._lock:
            call = self._calls.get(key)
            if call is not None:
                call.waiters += 1
                return call.future, False
            call = self._calls[key] = _InFlightCall(start())
        call.future.add_done_callback(lambda _: self._land(key, call))
        return call.future, True

    def _land(self, key: str, call: _InFlightCall) -> None:
        with self._lock:
            if self._calls.get(key) is call:
                del self._calls[key]

    @staticmethod
    def follower_error(error: BaseException) -> ServingError:
        """What a follower raises when the flight it rode on failed."""
        return ServingError(f"coalesced optimization failed: {type(error).__name__}: {error}")

    def in_flight(self) -> int:
        """Number of keys currently being computed (for stats/tests)."""
        with self._lock:
            return len(self._calls)

    def waiting(self, key: str) -> int:
        """Number of followers currently riding on ``key``'s flight."""
        with self._lock:
            call = self._calls.get(key)
            return call.waiters if call is not None else 0


@dataclass
class PlanCache:
    """A bounded, thread-safe fingerprint → plan cache.

    Parameters
    ----------
    capacity:
        Maximum number of entries held (LRU beyond that).
    ttl:
        Entry lifetime in seconds; ``None`` disables expiry.
    stale_while_revalidate:
        When true, expired entries are still served (flagged ``stale``) and
        counted in :attr:`CacheStats.revalidations`, instead of being dropped.
    clock:
        Injectable monotonic time source (tests freeze it).
    """

    capacity: int = 1024
    ttl: float | None = None
    stale_while_revalidate: bool = False
    clock: Callable[[], float] = time.monotonic
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _entries: "OrderedDict[str, CachedPlan]" = field(
        default_factory=OrderedDict, repr=False
    )  # guarded-by: _lock
    _stats: CacheStats = field(default_factory=CacheStats, repr=False)  # guarded-by: _lock

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ServingError(f"cache capacity must be at least 1, got {self.capacity!r}")
        if self.ttl is not None and self.ttl <= 0:
            raise ServingError(f"cache ttl must be positive or None, got {self.ttl!r}")

    # -- core operations ---------------------------------------------------

    def get(self, fingerprint: ProblemFingerprint) -> CacheLookup:
        """Look up the plan cached for ``fingerprint``.

        Expired entries are a miss unless ``stale_while_revalidate`` is on, in
        which case the entry is returned with ``stale=True`` (and stays cached
        until :meth:`put` replaces it or LRU displaces it).
        """
        with trace_span("cache.get") as span:
            lookup = self._lookup(fingerprint)
            if lookup.entry is None:
                span.annotate(outcome="miss")
            else:
                span.annotate(outcome="stale" if lookup.stale else "hit")
        return lookup

    def _lookup(self, fingerprint: ProblemFingerprint) -> CacheLookup:
        key = fingerprint.key
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return CacheLookup(entry=None)
            expired = self._is_expired(entry)
            if expired and not self.stale_while_revalidate:
                del self._entries[key]
                self._stats.expirations += 1
                self._stats.misses += 1
                return CacheLookup(entry=None)
            self._entries.move_to_end(key)
            if expired:
                self._stats.stale_hits += 1
                self._stats.revalidations += 1
            else:
                self._stats.hits += 1
        return CacheLookup(entry=entry, stale=expired)

    def put(
        self,
        fingerprint: ProblemFingerprint,
        positions: tuple[int, ...],
        cost: float,
        algorithm: str,
        optimal: bool,
        problem: OrderingProblem,
    ) -> CachedPlan:
        """Store (or refresh) the plan cached for ``fingerprint``.

        ``problem`` is the instance the plan was optimized for; the entry
        keeps a :class:`DriftReference` of its parameters in canonical order,
        not the problem.
        """
        if len(positions) != fingerprint.size:
            raise ServingError(
                f"plan covers {len(positions)} positions but the fingerprint has "
                f"{fingerprint.size} services"
            )
        entry = CachedPlan(
            fingerprint=fingerprint,
            positions=tuple(positions),
            cost=cost,
            algorithm=algorithm,
            optimal=optimal,
            reference=DriftReference.of(problem, fingerprint.canonical_order),
            created_at=self.clock(),
        )
        key = fingerprint.key
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            self._stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
        return entry

    def invalidate(self, fingerprint: ProblemFingerprint) -> bool:
        """Drop the entry for ``fingerprint``; returns whether one existed."""
        with self._lock:
            return self._entries.pop(fingerprint.key, None) is not None

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[str]:
        """Every cached key (what the sharding tier's rebalance measures scan)."""
        with self._lock:
            return list(self._entries)

    # -- revalidation ------------------------------------------------------

    def needs_revalidation(
        self,
        entry: CachedPlan,
        problem: OrderingProblem,
        fingerprint: ProblemFingerprint,
        drift_threshold: float,
    ) -> bool:
        """Whether ``problem`` drifted too far from the entry's reference parameters.

        Quantization maps nearby problems to one fingerprint; this measures the
        *actual* parameter drift (:meth:`DriftReference.drift`) between the
        problem the plan was optimized for and the one now asking, whose
        fingerprint is ``fingerprint``.  Services are paired by canonical
        position, as the cached plan is: renaming the services of a problem
        does not make it drift.  A problem of another size is conservatively
        reported as needing revalidation.
        """
        try:
            drift = entry.reference.drift(problem, fingerprint.canonical_order)
        except EstimationError:
            drifted = True
        else:
            drifted = drift.exceeds(drift_threshold)
        if drifted:
            with self._lock:
                self._stats.revalidations += 1
        return drifted

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """A snapshot copy of the cache counters."""
        with self._lock:
            return CacheStats(**vars(self._stats))

    def _is_expired(self, entry: CachedPlan) -> bool:
        return self.ttl is not None and self.clock() - entry.created_at > self.ttl
