"""A stateful model of the plan cache: LRU order, TTL expiry and
stale-while-revalidate, checked step by step against a plain reference.

Hypothesis drives random sequences of puts, gets, clock advances and
invalidations on a :class:`PlanCache` of capacity 3 under a fake clock and a
TTL, once with stale-while-revalidate off and once with it on; then without a
TTL (pure LRU), and at capacity 1.  After every step the cache must agree
with the model on the lookup outcome (hit, stale or miss), on every counter,
on its size and on its keys in recency order.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import OrderingProblem
from repro.serving import PlanCache, fingerprint_problem

CAPACITY = 3
TTL = 10.0


def _problem(seed: int) -> OrderingProblem:
    rng = random.Random(seed)
    size = 4
    costs = [rng.uniform(0.1, 5.0) for _ in range(size)]
    selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


# Five distinct keys over a capacity of three, so eviction is exercised.
PROBLEMS = [_problem(seed) for seed in range(5)]
FINGERPRINTS = [fingerprint_problem(problem) for problem in PROBLEMS]

keys = st.integers(min_value=0, max_value=len(PROBLEMS) - 1)
# Whole steps up to past the TTL, so ages land exactly on the boundary too.
steps = st.sampled_from([0.0, 1.0, 4.0, 10.0, 11.0])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class PlanCacheModel(RuleBasedStateMachine):
    """Compares :class:`PlanCache` with a list-and-dict reference model."""

    capacity = CAPACITY
    ttl: float | None = TTL
    stale_while_revalidate = False

    @initialize()
    def start(self) -> None:
        self.clock = FakeClock()
        self.cache = PlanCache(
            capacity=self.capacity,
            ttl=self.ttl,
            stale_while_revalidate=self.stale_while_revalidate,
            clock=self.clock,
        )
        # key -> (cost, created_at); ``order`` lists keys least recent first.
        self.entries: dict[str, tuple[float, float]] = {}
        self.order: list[str] = []
        self.counters = dict.fromkeys(
            ("hits", "stale_hits", "misses", "insertions", "evictions", "expirations"), 0
        )
        self.puts = 0

    def _promote(self, key: str) -> None:
        self.order.remove(key)
        self.order.append(key)

    @rule(index=keys)
    def put(self, index: int) -> None:
        fingerprint = FINGERPRINTS[index]
        self.puts += 1
        cost = float(self.puts)  # tells entries of one key apart
        self.cache.put(
            fingerprint,
            positions=fingerprint.to_positions(tuple(range(fingerprint.size))),
            cost=cost,
            algorithm="model",
            optimal=False,
            problem=PROBLEMS[index],
        )
        key = fingerprint.key
        if key in self.entries:
            self.order.remove(key)
        self.entries[key] = (cost, self.clock.now)
        self.order.append(key)
        self.counters["insertions"] += 1
        while len(self.order) > self.capacity:
            del self.entries[self.order.pop(0)]
            self.counters["evictions"] += 1

    @rule(index=keys)
    def get(self, index: int) -> None:
        lookup = self.cache.get(FINGERPRINTS[index])
        key = FINGERPRINTS[index].key
        expected = self._model_get(key)
        if expected is None:
            assert lookup.entry is None
            return
        cost, stale = expected
        assert lookup.entry is not None and lookup.entry.cost == cost
        assert lookup.stale == stale

    def _model_get(self, key: str) -> tuple[float, bool] | None:
        if key not in self.entries:
            self.counters["misses"] += 1
            return None
        cost, created_at = self.entries[key]
        expired = self.ttl is not None and self.clock.now - created_at > self.ttl
        if expired and not self.stale_while_revalidate:
            del self.entries[key]
            self.order.remove(key)
            self.counters["expirations"] += 1
            self.counters["misses"] += 1
            return None
        self._promote(key)
        self.counters["stale_hits" if expired else "hits"] += 1
        return cost, expired

    @rule(seconds=steps)
    def advance(self, seconds: float) -> None:
        self.clock.now += seconds

    @rule(index=keys)
    def invalidate(self, index: int) -> None:
        key = FINGERPRINTS[index].key
        existed = key in self.entries
        assert self.cache.invalidate(FINGERPRINTS[index]) == existed
        if existed:
            del self.entries[key]
            self.order.remove(key)

    @invariant()
    def agrees_with_the_model(self) -> None:
        stats = self.cache.stats()
        for counter, value in self.counters.items():
            assert getattr(stats, counter) == value, counter
        # Every stale hit flags a revalidation; nothing else does here.
        assert stats.revalidations == self.counters["stale_hits"]
        assert len(self.cache) == len(self.order)
        assert self.cache.keys() == self.order


class StaleWhileRevalidateModel(PlanCacheModel):
    stale_while_revalidate = True


class NoTtlModel(PlanCacheModel):
    """Pure LRU: without a TTL no entry ever expires, however far time moves."""

    ttl = None


class SingleEntryModel(StaleWhileRevalidateModel):
    """Capacity 1: every put of a new key evicts the only entry."""

    capacity = 1


_settings = settings(max_examples=60, stateful_step_count=40, deadline=None)

TestPlanCacheModel = PlanCacheModel.TestCase
TestPlanCacheModel.settings = _settings
TestStaleWhileRevalidateModel = StaleWhileRevalidateModel.TestCase
TestStaleWhileRevalidateModel.settings = _settings
TestNoTtlModel = NoTtlModel.TestCase
TestNoTtlModel.settings = _settings
TestSingleEntryModel = SingleEntryModel.TestCase
TestSingleEntryModel.settings = _settings
