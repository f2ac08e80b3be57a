"""Tests of the shard router: placement, batch split/merge, resize, processes."""

from __future__ import annotations

import os
import signal

import pytest

from repro.exceptions import ShardingError
from repro.serving import PlanServiceConfig, fingerprint_problem
from repro.sharding import ShardRouter, ShardRouterConfig


def fast_config(**overrides) -> PlanServiceConfig:
    """A deterministic, portfolio-light service config for router tests."""
    defaults = dict(budget_seconds=None, algorithms=("greedy_min_term", "branch_and_bound"))
    defaults.update(overrides)
    return PlanServiceConfig(**defaults)


@pytest.fixture
def router():
    config = ShardRouterConfig(shards=3, backend="inproc", service_config=fast_config())
    with ShardRouter(config) as router:
        yield router


class TestRouting:
    def test_identical_problems_route_to_one_shard_and_hit_its_cache(
        self, router, make_random_problem
    ):
        problem = make_random_problem(5, 0)
        twin = make_random_problem(5, 0)
        first = router.submit(problem)
        second = router.submit(twin)
        assert not first.cache_hit and second.cache_hit
        assert first.fingerprint == second.fingerprint
        # Exactly one shard holds the entry, and it is the ring's owner.
        keys = router.cache_keys()
        holders = [shard_id for shard_id, shard_keys in keys.items() if shard_keys]
        assert holders == [router.shard_for(first.fingerprint)]

    def test_distinct_problems_spread_over_shards(self, router, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(12)]
        for problem in problems:
            router.submit(problem)
        keys = router.cache_keys()
        assert sum(len(shard_keys) for shard_keys in keys.values()) == 12
        assert sum(1 for shard_keys in keys.values() if shard_keys) >= 2

    def test_placement_matches_the_ring(self, router, make_random_problem):
        problem = make_random_problem(6, 3)
        key = fingerprint_problem(problem).key
        response = router.submit(problem)
        assert response.fingerprint == key
        assert key in router.cache_keys()[router.shard_for(key)]


class TestBatches:
    def test_batch_responses_come_back_in_request_order(self, router, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(8)]
        responses = router.optimize_batch(problems * 2)
        assert len(responses) == 16
        for index, response in enumerate(responses):
            problem = problems[index % 8]
            problem.validate_plan(response.order)
            assert response.cost == pytest.approx(problem.cost(response.order))
            assert response.fingerprint == fingerprint_problem(problem).key

    def test_batch_dedup_still_holds_per_shard(self, router, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(4)]
        responses = router.optimize_batch(problems * 3)
        stats = router.stats()
        # 12 requests, 4 unique fingerprints: every duplicate coalesced or hit.
        assert stats["requests"]["answered"] == 12
        cold_leaders = [
            r for r in responses if not r.cache_hit and not r.coalesced
        ]
        assert len(cold_leaders) == 4

    def test_empty_batch(self, router):
        assert router.optimize_batch([]) == []


class TestStats:
    def test_aggregate_counts_sum_over_shards(self, router, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(6)]
        for problem in problems:
            router.submit(problem)
            router.submit(problem)
        stats = router.stats()
        assert stats["shards"] == 3
        assert stats["down"] == [] and router.down_shards() == []
        assert stats["cache"]["capacity"] == 3 * 1024
        assert stats["requests"]["answered"] == 12
        assert stats["cache"]["hits"] == 6
        assert stats["cache"]["misses"] == 6
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        per_shard = stats["per_shard"]
        assert set(per_shard) == set(router.shard_ids)
        assert sum(s["requests"]["answered"] for s in per_shard.values()) == 12

    def test_routing_breakdown_sums_to_the_total(self, router, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(6)]
        for problem in problems:
            router.submit(problem)
        router.optimize_batch(problems[:3])
        routing = router.stats()["routing"]
        assert set(routing["by_shard"]) <= set(router.shard_ids)
        assert routing["total"] == sum(routing["by_shard"].values()) == 9


class TestResize:
    def test_add_shard_moves_keys_only_onto_the_newcomer(self, router, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(16)]
        problem_of_key = {fingerprint_problem(p).key: p for p in problems}
        for problem in problems:
            router.submit(problem)
        keys = [key for shard_keys in router.cache_keys().values() for key in shard_keys]
        assert sorted(keys) == sorted(problem_of_key)
        before = {key: router.shard_for(key) for key in keys}
        newcomer = router.add_shard()
        after = {key: router.shard_for(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        assert all(after[key] == newcomer for key in moved)
        # A moved key re-optimizes on its new shard, then hits there.
        if moved:
            problem = problem_of_key[moved[0]]
            response = router.submit(problem)
            assert not response.cache_hit
            assert router.submit(problem).cache_hit

    def test_remove_shard_redistributes_and_rejects_unknown(self, router):
        with pytest.raises(ShardingError):
            router.remove_shard("no-such-shard")
        victim = router.shard_ids[0]
        router.remove_shard(victim)
        assert victim not in router.shard_ids
        assert len(router.shard_ids) == 2

    def test_capacity_total_follows_resizes(self, router):
        assert router.stats()["cache"]["capacity"] == 3 * 1024
        added = router.add_shard()
        assert router.stats()["cache"]["capacity"] == 4 * 1024
        router.remove_shard(added)
        router.remove_shard(router.shard_ids[0])
        assert router.stats()["cache"]["capacity"] == 2 * 1024

    def test_last_shard_cannot_be_removed(self, make_random_problem):
        config = ShardRouterConfig(shards=1, service_config=fast_config())
        with ShardRouter(config) as router:
            with pytest.raises(ShardingError):
                router.remove_shard(router.shard_ids[0])
            assert router.submit(make_random_problem(4, 0)).cost > 0


class TestLifecycle:
    def test_closed_router_rejects_requests(self, make_random_problem):
        config = ShardRouterConfig(shards=2, service_config=fast_config())
        router = ShardRouter(config)
        router.close()
        router.close()  # idempotent
        with pytest.raises(ShardingError):
            router.submit(make_random_problem(4, 0))
        with pytest.raises(ShardingError):
            router.optimize_batch([make_random_problem(4, 0)])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ShardingError):
            ShardRouterConfig(shards=0)
        with pytest.raises(ShardingError):
            ShardRouterConfig(backend="threads")


class TestProcessBackend:
    def test_process_shards_serve_submits_batches_and_stats(self, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(4)]
        config = ShardRouterConfig(
            shards=2, backend="processes", service_config=fast_config()
        )
        with ShardRouter(config) as router:
            cold = router.submit(problems[0])
            warm = router.submit(problems[0])
            assert not cold.cache_hit and warm.cache_hit
            assert warm.cost == pytest.approx(cold.cost)
            responses = router.optimize_batch(problems * 2)
            assert len(responses) == 8
            for index, response in enumerate(responses):
                problems[index % 4].validate_plan(response.order)
            stats = router.stats()
            assert stats["requests"]["answered"] == 10
            assert stats["backend"] == "processes"
            keys = router.cache_keys()
            assert sum(len(shard_keys) for shard_keys in keys.values()) == 4

    def test_shard_side_errors_keep_their_type(self, make_random_problem):
        from repro.exceptions import OptimizationError

        config = ShardRouterConfig(
            shards=2,
            backend="processes",
            service_config=fast_config(
                algorithms=("exhaustive",),
                algorithm_options={"exhaustive": {"max_size": 3}},
                cache_enabled=False,
            ),
        )
        with ShardRouter(config) as router:
            with pytest.raises(OptimizationError):
                router.submit(make_random_problem(5, 0))


def kill_shard(router: ShardRouter, shard_id: str) -> None:
    """SIGKILL one process shard's child and wait until it is gone."""
    process = router._shards[shard_id]._process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5.0)
    assert not process.is_alive()


class TestDeadShards:
    def process_router(self) -> ShardRouter:
        return ShardRouter(
            ShardRouterConfig(shards=2, backend="processes", service_config=fast_config())
        )

    def test_a_killed_shard_is_down_until_removed(self, make_random_problem):
        with self.process_router() as router:
            victim, survivor = router.shard_ids
            assert router._shards[victim].alive()
            kill_shard(router, victim)
            assert not router._shards[victim].alive()
            assert router.down_shards() == [victim]
            stats = router.stats()
            assert stats["down"] == [victim]
            assert stats["cache"]["capacity"] == 1024  # the survivor's alone
            # Taking the dead shard off the ring restores a healthy tier.
            router.remove_shard(victim)
            assert router.down_shards() == []
            assert router.shard_ids == (survivor,)
            assert router.submit(make_random_problem(5, 0)).cost > 0
            assert router.stats()["down"] == []

    def test_stats_answer_when_every_shard_is_down(self):
        with self.process_router() as router:
            for shard_id in router.shard_ids:
                kill_shard(router, shard_id)
            assert router.down_shards() == sorted(router.shard_ids)
            stats = router.stats()
            assert stats["shards"] == 2
            assert stats["down"] == sorted(router.shard_ids)
            assert stats["per_shard"] == {}
            assert stats["cache"] == {"hit_rate": 0.0}
            assert stats["requests"]["answered"] == 0
