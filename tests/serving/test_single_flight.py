"""Tests of single-flight miss coalescing and batch optimization.

The stampede test is a satellite acceptance criterion: N concurrent cache
misses on one fingerprint must run exactly one optimization — the rest of
the herd waits for the leader's answer instead of each racing the portfolio.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.exceptions import ServingError
from repro.serving import PlanService, PlanServiceConfig, SingleFlight, fingerprint_problem


def _started(compute, calls=None):
    """A flight ``start`` that runs ``compute`` on its own thread."""

    def start() -> Future:
        if calls is not None:
            calls.append(1)
        future: Future = Future()

        def run() -> None:
            try:
                future.set_result(compute())
            except Exception as error:
                future.set_exception(error)

        threading.Thread(target=run).start()
        return future

    return start


class TestSingleFlightPrimitive:
    def test_sequential_calls_each_lead(self):
        flight = SingleFlight()
        calls = []
        for _ in range(3):
            future, leader = flight.join("k", _started(lambda: len(calls), calls))
            assert leader
            assert future.result(timeout=5.0) == len(calls)
        assert len(calls) == 3
        assert flight.in_flight() == 0

    def test_concurrent_calls_coalesce(self):
        flight = SingleFlight()
        release = threading.Event()
        calls = []

        def compute():
            release.wait(timeout=5.0)
            return "answer"

        joined = [flight.join("k", _started(compute, calls)) for _ in range(4)]
        assert flight.waiting("k") == 3
        release.set()

        assert len(calls) == 1, "exactly one computation per concurrent burst"
        assert [future.result(timeout=5.0) for future, _ in joined] == ["answer"] * 4
        assert [leader for _, leader in joined] == [True, False, False, False]
        limit = time.monotonic() + 5.0
        while flight.in_flight():  # the flight lands once its future resolves
            assert time.monotonic() < limit, "the flight never landed"
            time.sleep(0.001)

    def test_leader_error_propagates_to_followers(self):
        flight = SingleFlight()
        release = threading.Event()

        def explode():
            release.wait(timeout=5.0)
            raise ValueError("boom")

        leader_future, leader = flight.join("k", _started(explode))
        follower_future, follower_leads = flight.join("k", _started(lambda: "never"))
        assert leader and not follower_leads
        release.set()
        with pytest.raises(ValueError):
            leader_future.result(timeout=5.0)
        error = SingleFlight.follower_error(follower_future.exception(timeout=5.0))
        assert isinstance(error, ServingError) and "boom" in str(error)


class TestStampede:
    def test_concurrent_misses_on_one_fingerprint_optimize_once(self, four_service_problem):
        """Satellite acceptance: N concurrent misses -> exactly one optimization."""
        herd = 8
        config = PlanServiceConfig(budget_seconds=None, max_in_flight=herd, queue_depth=herd)
        with PlanService(config) as service:
            key = fingerprint_problem(four_service_problem).key
            optimize_calls = []
            calls_lock = threading.Lock()
            barrier = threading.Barrier(herd)
            original = service._portfolio.optimize

            def counting_optimize(problem, budget_seconds=None):
                with calls_lock:
                    optimize_calls.append(threading.current_thread().name)
                # Hold the leader inside the optimization until the whole herd
                # has piled onto the flight (bounded, in case of a regression
                # where followers optimize instead of waiting).
                limit = time.monotonic() + 5.0
                while service._single_flight.waiting(key) < herd - 1 and time.monotonic() < limit:
                    time.sleep(0.001)
                return original(problem, budget_seconds=budget_seconds)

            service._portfolio.optimize = counting_optimize

            responses = []
            responses_lock = threading.Lock()

            def request():
                barrier.wait(timeout=5.0)
                response = service.submit(four_service_problem)
                with responses_lock:
                    responses.append(response)

            threads = [threading.Thread(target=request) for _ in range(herd)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)

            assert len(responses) == herd
            assert len(optimize_calls) == 1, "the herd must coalesce onto one optimization"
            costs = {response.cost for response in responses}
            assert len(costs) == 1
            orders = {response.order for response in responses}
            assert len(orders) == 1
            assert sum(1 for r in responses if not r.cache_hit and not r.coalesced) == 1
            assert service.metrics.coalesced == herd - 1
            assert service.metrics.snapshot()["coalesced"] == herd - 1


class TestShardedStampede:
    def test_concurrent_misses_through_the_router_optimize_once(self, four_service_problem):
        """Satellite acceptance: a herd through the shard router still coalesces.

        Consistent-hash routing sends every request for one fingerprint to the
        same shard, so that shard's single-flight must absorb the whole herd —
        exactly one optimization across the entire tier.
        """
        from repro.sharding import ShardRouter, ShardRouterConfig

        herd = 8
        config = ShardRouterConfig(
            shards=3,
            backend="inproc",
            service_config=PlanServiceConfig(
                budget_seconds=None, max_in_flight=herd, queue_depth=herd
            ),
        )
        with ShardRouter(config) as router:
            key = fingerprint_problem(four_service_problem).key
            owner = router.shard_for(key)
            owner_service = router._shards[owner]
            optimize_calls = []
            calls_lock = threading.Lock()

            for shard_id, service in router._shards.items():
                original = service._portfolio.optimize

                def counting_optimize(
                    problem,
                    budget_seconds=None,
                    _original=original,
                    _shard_id=shard_id,
                ):
                    with calls_lock:
                        optimize_calls.append(_shard_id)
                    # Hold the leader until the rest of the herd has piled
                    # onto the owning shard's flight (bounded, in case of a
                    # regression where followers optimize instead of waiting).
                    limit = time.monotonic() + 5.0
                    while (
                        owner_service._single_flight.waiting(key) < herd - 1
                        and time.monotonic() < limit
                    ):
                        time.sleep(0.001)
                    return _original(problem, budget_seconds=budget_seconds)

                service._portfolio.optimize = counting_optimize

            barrier = threading.Barrier(herd)
            responses = []
            responses_lock = threading.Lock()

            def request():
                barrier.wait(timeout=5.0)
                response = router.submit(four_service_problem)
                with responses_lock:
                    responses.append(response)

            threads = [threading.Thread(target=request) for _ in range(herd)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)

            assert len(responses) == herd
            assert optimize_calls == [owner], (
                "the whole herd must coalesce onto one optimization on the "
                "owning shard"
            )
            assert len({response.cost for response in responses}) == 1
            assert len({response.order for response in responses}) == 1
            assert sum(1 for r in responses if not r.cache_hit and not r.coalesced) == 1
            assert owner_service.metrics.coalesced == herd - 1


class TestOptimizeBatch:
    def test_batch_deduplicates_structural_twins(self, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(3)]
        config = PlanServiceConfig(budget_seconds=None)
        with PlanService(config) as service:
            optimize_calls = []
            original = service._portfolio.optimize

            def counting_optimize(problem, budget_seconds=None):
                optimize_calls.append(problem)
                return original(problem, budget_seconds=budget_seconds)

            service._portfolio.optimize = counting_optimize
            responses = service.optimize_batch(problems * 3)

            assert len(optimize_calls) == 3, "one optimization per unique fingerprint"
            assert len(responses) == 9
            for index, response in enumerate(responses):
                problem = problems[index % 3]
                problem.validate_plan(response.order)
                assert response.cost == pytest.approx(problem.cost(response.order))
            leaders = [r for r in responses if not r.coalesced and not r.cache_hit]
            assert len(leaders) == 3
            assert service.metrics.coalesced == 6

    def test_batch_serves_warm_entries_from_the_cache(self, four_service_problem):
        with PlanService(PlanServiceConfig(budget_seconds=None)) as service:
            cold = service.submit(four_service_problem)
            responses = service.optimize_batch([four_service_problem] * 2)
            assert all(r.cache_hit for r in responses)
            assert all(r.cost == pytest.approx(cold.cost) for r in responses)

    def test_batch_with_cache_disabled_optimizes_every_member_cold(
        self, four_service_problem
    ):
        # cache_enabled=False is the opt-out from fingerprint-approximate
        # answers, so batch members must not share quantization-equal plans.
        config = PlanServiceConfig(budget_seconds=None, cache_enabled=False)
        with PlanService(config) as service:
            optimize_calls = []
            original = service._portfolio.optimize

            def counting_optimize(problem, budget_seconds=None):
                optimize_calls.append(problem)
                return original(problem, budget_seconds=budget_seconds)

            service._portfolio.optimize = counting_optimize
            responses = service.optimize_batch([four_service_problem] * 3)
            assert len(optimize_calls) == 3
            assert [r.cache_hit for r in responses] == [False] * 3
            assert [r.coalesced for r in responses] == [False] * 3
            assert len(service.cache) == 0

    def test_empty_batch(self, four_service_problem):
        with PlanService(PlanServiceConfig(budget_seconds=None)) as service:
            assert service.optimize_batch([]) == []

    def test_closed_service_rejects_batches(self, four_service_problem):
        service = PlanService(PlanServiceConfig(budget_seconds=None))
        service.close()
        with pytest.raises(ServingError):
            service.optimize_batch([four_service_problem])

    def test_batch_counts_one_admission_unit(self, make_random_problem):
        problems = [make_random_problem(4, seed) for seed in range(6)]
        config = PlanServiceConfig(budget_seconds=None, max_in_flight=1, queue_depth=0)
        with PlanService(config) as service:
            responses = service.optimize_batch(problems)
            assert len(responses) == 6
            assert service.metrics.rejected == 0
