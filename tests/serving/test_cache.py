"""Unit tests of the LRU + TTL plan cache."""

from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrderingProblem
from repro.estimation import DriftReference, compute_drift
from repro.exceptions import ServingError
from repro.serving import PlanCache, fingerprint_problem


def random_problem(size: int, seed: int) -> OrderingProblem:
    """A small random problem (mirrors the helper in the top-level conftest)."""
    rng = random.Random(seed)
    costs = [rng.uniform(0.1, 5.0) for _ in range(size)]
    selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


class FakeClock:
    """A manually advanced monotonic clock for deterministic TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def store(cache: PlanCache, problem: OrderingProblem, cost: float = 1.0):
    fingerprint = fingerprint_problem(problem)
    order = tuple(range(problem.size))
    cache.put(
        fingerprint,
        positions=fingerprint.to_positions(order),
        cost=cost,
        algorithm="test",
        optimal=False,
        problem=problem,
    )
    return fingerprint


class TestLru:
    def test_capacity_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        first = store(cache, random_problem(4, 0))
        second = store(cache, random_problem(4, 1))
        # Touch the first entry so the second becomes the LRU victim.
        assert cache.get(first).hit
        third = store(cache, random_problem(4, 2))
        assert len(cache) == 2
        assert cache.get(first).hit
        assert cache.get(third).hit
        assert not cache.get(second).hit
        assert cache.stats().evictions == 1

    def test_put_refreshes_existing_entry_without_growing(self):
        cache = PlanCache(capacity=2)
        problem = random_problem(4, 0)
        store(cache, problem, cost=5.0)
        store(cache, problem, cost=3.0)
        assert len(cache) == 1
        lookup = cache.get(fingerprint_problem(problem))
        assert lookup.entry is not None and lookup.entry.cost == 3.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ServingError):
            PlanCache(capacity=0)
        with pytest.raises(ServingError):
            PlanCache(capacity=1, ttl=0.0)

    def test_position_count_must_match_fingerprint(self):
        cache = PlanCache(capacity=2)
        problem = random_problem(4, 0)
        fingerprint = fingerprint_problem(problem)
        with pytest.raises(ServingError):
            cache.put(fingerprint, (0, 1), 1.0, "test", False, problem)


class TestTtl:
    def test_expired_entries_are_misses_by_default(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        problem = random_problem(4, 1)
        fingerprint = store(cache, problem)
        clock.advance(9.0)
        assert cache.get(fingerprint).hit
        clock.advance(2.0)
        lookup = cache.get(fingerprint)
        assert not lookup.hit
        assert cache.stats().expirations == 1
        assert len(cache) == 0

    def test_stale_while_revalidate_serves_expired_entries(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, stale_while_revalidate=True, clock=clock)
        problem = random_problem(4, 2)
        fingerprint = store(cache, problem)
        clock.advance(11.0)
        lookup = cache.get(fingerprint)
        assert lookup.hit and lookup.stale
        stats = cache.stats()
        assert stats.stale_hits == 1
        assert stats.revalidations == 1
        # The entry stays until a put replaces it.
        assert len(cache) == 1
        store(cache, problem)
        assert not cache.get(fingerprint).stale

    def test_an_entry_exactly_ttl_old_is_still_fresh(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        fingerprint = store(cache, random_problem(4, 4))
        clock.advance(10.0)
        lookup = cache.get(fingerprint)
        assert lookup.hit and not lookup.stale
        assert cache.stats().hits == 1 and cache.stats().expirations == 0

    def test_a_refreshing_put_restarts_the_ttl(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=10.0, clock=clock)
        problem = random_problem(4, 5)
        fingerprint = store(cache, problem)
        clock.advance(8.0)
        store(cache, problem)
        clock.advance(8.0)  # 16 s after the first put, 8 s after the second
        lookup = cache.get(fingerprint)
        assert lookup.hit and not lookup.stale

    def test_a_stale_hit_promotes_the_entry(self):
        clock = FakeClock()
        cache = PlanCache(capacity=2, ttl=10.0, stale_while_revalidate=True, clock=clock)
        first = store(cache, random_problem(4, 6))
        clock.advance(11.0)
        second = store(cache, random_problem(4, 7))
        assert cache.get(first).stale  # the fresh second entry becomes the LRU victim
        third = store(cache, random_problem(4, 8))
        assert cache.keys() == [first.key, third.key]
        assert cache.stats().evictions == 1
        assert not cache.get(second).hit

    def test_an_expired_entry_displaced_by_a_put_counts_as_an_eviction(self):
        clock = FakeClock()
        cache = PlanCache(capacity=1, ttl=10.0, clock=clock)
        store(cache, random_problem(4, 9))
        clock.advance(11.0)  # expired, but never looked up
        store(cache, random_problem(4, 10))
        stats = cache.stats()
        assert stats.evictions == 1 and stats.expirations == 0

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl=None, clock=clock)
        fingerprint = store(cache, random_problem(4, 3))
        clock.advance(1e9)
        assert cache.get(fingerprint).hit


class TestDriftRevalidation:
    def test_drifted_problem_triggers_revalidation(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 4)
        fingerprint = store(cache, problem)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        drifted = OrderingProblem.from_parameters(
            [cost * 2.0 + 0.1 for cost in problem.costs],
            list(problem.selectivities),
            problem.transfer.as_lists(),
        )
        assert cache.needs_revalidation(
            entry, drifted, fingerprint_problem(drifted), drift_threshold=0.05
        )
        assert not cache.needs_revalidation(entry, problem, fingerprint, drift_threshold=0.05)
        assert cache.stats().revalidations == 1

    def test_renamed_services_are_compared_by_canonical_position(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 5)
        fingerprint = store(cache, problem)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        renamed = OrderingProblem.from_parameters(
            list(problem.costs),
            list(problem.selectivities),
            problem.transfer.as_lists(),
            names=["p", "q", "r", "s"],
        )
        renamed_fingerprint = fingerprint_problem(renamed)
        assert renamed_fingerprint.key == fingerprint.key
        assert not cache.needs_revalidation(
            entry, renamed, renamed_fingerprint, drift_threshold=0.05
        )
        assert cache.stats().revalidations == 0

    def test_a_problem_of_another_size_is_conservatively_revalidated(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 5)
        fingerprint = store(cache, problem)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        larger = random_problem(5, 5)
        assert cache.needs_revalidation(
            entry, larger, fingerprint_problem(larger), drift_threshold=0.05
        )


@st.composite
def reindexed_within_the_grid(draw):
    """A problem on the precision-2 grid, and a re-indexed copy of it whose
    parameters moved inside their quantization cells (same fingerprint)."""
    size = draw(st.integers(1, 6))
    names = [f"s{i}" for i in range(size)]
    cells = st.integers(0, 400)
    costs = draw(st.lists(cells, min_size=size, max_size=size))
    selectivities = draw(st.lists(st.integers(1, 150), min_size=size, max_size=size))
    flat = draw(st.lists(cells, min_size=size * size, max_size=size * size))
    rows = [[0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]

    def moved(cell):
        # At most 0.4 of a cell away, never below zero: quantizes to ``cell``.
        return max(0.0, (cell + draw(st.floats(-0.4, 0.4))) / 100)

    problem = OrderingProblem.from_parameters(
        [cell / 100 for cell in costs],
        [cell / 100 for cell in selectivities],
        [[cell / 100 for cell in row] for row in rows],
        names=names,
    )
    permutation = draw(st.permutations(range(size)))
    observed = OrderingProblem.from_parameters(
        [moved(costs[i]) for i in permutation],
        [moved(selectivities[i]) for i in permutation],
        [[0.0 if i == j else moved(rows[i][j]) for j in permutation] for i in permutation],
        names=[names[i] for i in permutation],
    )
    return problem, observed


@settings(max_examples=100, deadline=None)
@given(reindexed_within_the_grid())
def test_canonical_pairing_of_a_reindexed_problem_is_name_pairing(case):
    """With one name set, drift through the two canonical orders is
    bit-identical to ``compute_drift``: names are the canonical tie-break."""
    problem, observed = case
    reference_print = fingerprint_problem(problem, precision=2)
    observed_print = fingerprint_problem(observed, precision=2)
    assert observed_print.key == reference_print.key
    reference = DriftReference.of(problem, reference_print.canonical_order)
    assert reference.drift(observed, observed_print.canonical_order) == compute_drift(
        problem, observed
    )


class TestCounters:
    def test_hit_rate_accounts_for_all_lookup_kinds(self):
        cache = PlanCache(capacity=4)
        problem = random_problem(4, 6)
        fingerprint = store(cache, problem)
        missing = fingerprint_problem(random_problem(5, 7))
        cache.get(fingerprint)
        cache.get(missing)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert set(stats.as_dict()) >= {"hits", "misses", "evictions", "hit_rate"}

    def test_concurrent_access_is_consistent(self):
        cache = PlanCache(capacity=16)
        problems = [random_problem(4, seed) for seed in range(8)]
        fingerprints = [store(cache, problem) for problem in problems]

        def hammer() -> None:
            for _ in range(200):
                for fingerprint, problem in zip(fingerprints, problems):
                    if not cache.get(fingerprint).hit:
                        store(cache, problem)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats.lookups == 4 * 200 * 8
        assert len(cache) == 8


class TestEntryMap:
    """The entry map's own surface: recency, removal, listing, bounds."""

    def test_a_hit_promotes_the_entry_and_steers_eviction(self):
        cache = PlanCache(capacity=3)
        fingerprints = [store(cache, random_problem(4, seed)) for seed in range(3)]
        assert cache.get(fingerprints[0]).hit  # the second entry becomes the LRU victim
        fourth = store(cache, random_problem(4, 3))
        assert len(cache) == 3
        assert sorted(cache.keys()) == sorted(
            fingerprint.key for fingerprint in (fingerprints[0], fingerprints[2], fourth)
        )
        assert cache.stats().evictions == 1

    def test_a_refreshing_put_evicts_nothing(self):
        cache = PlanCache(capacity=1)
        problem = random_problem(4, 0)
        store(cache, problem, cost=5.0)
        store(cache, problem, cost=3.0)
        stats = cache.stats()
        assert stats.insertions == 2 and stats.evictions == 0

    def test_invalidate_reports_whether_an_entry_existed(self):
        cache = PlanCache(capacity=3)
        fingerprint = store(cache, random_problem(4, 0))
        assert cache.invalidate(fingerprint)
        assert not cache.invalidate(fingerprint)
        assert not cache.get(fingerprint).hit

    def test_keys_and_clear(self):
        cache = PlanCache(capacity=3)
        first = store(cache, random_problem(4, 0))
        second = store(cache, random_problem(4, 1))
        assert cache.keys() == [first.key, second.key]  # least recently used first
        cache.invalidate(first)
        assert cache.keys() == [second.key]
        cache.clear()
        assert len(cache) == 0 and cache.keys() == []
        assert cache.stats().insertions == 2  # counters survive a clear

    def test_put_get_roundtrip(self):
        clock = FakeClock()
        clock.advance(7.0)
        cache = PlanCache(capacity=3, clock=clock)
        problem = random_problem(4, 0)
        fingerprint = store(cache, problem, cost=2.5)
        entry = cache.get(fingerprint).entry
        assert entry is not None
        assert entry.fingerprint.key == fingerprint.key
        assert entry.positions == fingerprint.to_positions(tuple(range(problem.size)))
        assert entry.cost == 2.5 and entry.algorithm == "test" and not entry.optimal
        # The drift reference keeps the parameters in canonical order, not names.
        assert list(entry.reference.values[: problem.size]) == [
            problem.costs[index] for index in fingerprint.canonical_order
        ]
        assert entry.created_at == 7.0
        assert len(cache) == 1

    def test_put_keeps_no_reference_to_the_problem(self):
        cache = PlanCache(capacity=3)
        problem = random_problem(6, 0)
        problem.evaluator()  # the heaviest thing a served problem carries
        fingerprint = store(cache, problem)
        alive = weakref.ref(problem)
        del problem
        gc.collect()
        assert alive() is None, "a cache entry must not keep its problem alive"
        assert cache.get(fingerprint).hit

    def test_a_miss_leaves_entries_and_recency_unchanged(self):
        cache = PlanCache(capacity=3)
        first = store(cache, random_problem(4, 0))
        second = store(cache, random_problem(4, 1))
        assert not cache.get(fingerprint_problem(random_problem(4, 2))).hit
        assert not cache.invalidate(fingerprint_problem(random_problem(4, 2)))
        assert cache.keys() == [first.key, second.key]
        stats = cache.stats()
        assert stats.misses == 1 and stats.evictions == 0 and stats.expirations == 0

    def test_a_refreshing_put_promotes_the_entry(self):
        cache = PlanCache(capacity=2)
        problem = random_problem(4, 0)
        first = store(cache, problem)
        second = store(cache, random_problem(4, 1))
        store(cache, problem, cost=2.0)  # the second entry becomes the LRU victim
        assert cache.keys() == [second.key, first.key]
        third = store(cache, random_problem(4, 2))
        assert cache.keys() == [first.key, third.key]
        assert cache.stats().evictions == 1

    def test_invalidate_is_neither_an_eviction_nor_an_expiration(self):
        clock = FakeClock()
        cache = PlanCache(capacity=2, ttl=10.0, clock=clock)
        fingerprint = store(cache, random_problem(4, 0))
        clock.advance(11.0)  # expired, but only a lookup counts that
        assert cache.invalidate(fingerprint)
        stats = cache.stats()
        assert stats.evictions == 0 and stats.expirations == 0 and stats.lookups == 0
        assert len(cache) == 0

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_a_capacity_below_one_is_refused(self, capacity):
        with pytest.raises(ServingError, match="at least 1"):
            PlanCache(capacity=capacity)

    def test_concurrent_expiry_and_eviction_lose_no_entry(self):
        """Every inserted entry is still cached, evicted or expired, however
        lookups, expiries and evictions interleave across threads."""
        ticks = itertools.count()  # every clock read is one tick
        cache = PlanCache(capacity=8, ttl=2.0, clock=lambda: float(next(ticks)))
        workers, per_worker = 6, 24
        owned = [
            [random_problem(4, 1000 * worker + k) for k in range(per_worker)]
            for worker in range(workers)
        ]
        fingerprints = {
            id(problem): fingerprint_problem(problem) for own in owned for problem in own
        }

        def churn(own) -> None:
            # Look up the fresh key and the one before it, which is old
            # enough to have expired; older keys are left to LRU eviction.
            for index, problem in enumerate(own):
                store(cache, problem)
                cache.get(fingerprints[id(problem)])
                if index:
                    cache.get(fingerprints[id(own[index - 1])])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(own,)) for own in owned]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats.insertions == workers * per_worker  # every key is put once
        assert stats.insertions == len(cache) + stats.evictions + stats.expirations
        assert stats.lookups == workers * (2 * per_worker - 1)
        assert len(cache) <= 8
