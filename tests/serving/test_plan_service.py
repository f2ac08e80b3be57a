"""Tests of the :class:`PlanService` façade, its metrics and admission control."""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time

import pytest

from repro.core import OrderingProblem, optimize
from repro.core.optimizer import ALGORITHMS
from repro.exceptions import AdmissionError, ServingError
from repro.serving import LatencySummary, PlanService, PlanServiceConfig, ServingMetrics


def random_problem(size: int, seed: int) -> OrderingProblem:
    """A small random problem (mirrors the helper in the top-level conftest)."""
    rng = random.Random(seed)
    costs = [rng.uniform(0.1, 5.0) for _ in range(size)]
    selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


@pytest.fixture
def service():
    with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
        yield plan_service


class TestSubmit:
    def test_cold_then_hit(self, service, four_service_problem):
        cold = service.submit(four_service_problem)
        hit = service.submit(four_service_problem)
        assert not cold.cache_hit and hit.cache_hit
        assert hit.order == cold.order
        assert hit.cost == pytest.approx(cold.cost)
        assert hit.fingerprint == cold.fingerprint
        four_service_problem.validate_plan(hit.order)

    def test_answer_is_optimal_with_unbounded_budget(self, service, four_service_problem):
        response = service.submit(four_service_problem)
        exact = optimize(four_service_problem, algorithm="branch_and_bound")
        assert response.cost == pytest.approx(exact.cost)

    def test_repeated_submits_hit_the_cache(self, service):
        problems = [random_problem(4, seed) for seed in range(3)]
        responses = [service.submit(problem) for problem in problems + problems]
        assert len(responses) == 6
        assert [r.cache_hit for r in responses] == [False, False, False, True, True, True]
        for problem, response in zip(problems, responses[3:]):
            assert response.cost == pytest.approx(problem.cost(response.order))

    def test_warm_prepopulates_the_cache(self, service):
        problems = [random_problem(5, seed) for seed in range(4)]
        assert service.warm(problems) == 4
        for problem in problems:
            assert service.submit(problem).cache_hit

    def test_disabled_cache_always_optimizes_cold(self, four_service_problem):
        config = PlanServiceConfig(budget_seconds=None, cache_enabled=False)
        with PlanService(config) as plan_service:
            responses = [plan_service.submit(four_service_problem) for _ in range(3)]
            assert [r.cache_hit for r in responses] == [False, False, False]
            assert len(plan_service.cache) == 0
            assert plan_service.warm([four_service_problem]) == 1
            assert len(plan_service.cache) == 0

    def test_close_stops_members_still_racing(self, make_resistant_problem, monkeypatch):
        problem = make_resistant_problem(11)
        member_threads = []
        exhaustive = ALGORITHMS["exhaustive"]

        def tracked(problem, **options):
            member_threads.append(threading.current_thread())
            return exhaustive(problem, **options)

        monkeypatch.setitem(ALGORITHMS, "exhaustive", tracked)
        config = PlanServiceConfig(
            budget_seconds=None,  # only a proof or close() ends this race
            algorithms=("greedy_min_term", "exhaustive"),
            algorithm_options={"exhaustive": {"max_size": 12}},
        )
        service = PlanService(config)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as caller:
            answer = caller.submit(service.submit, problem)
            deadline = time.monotonic() + 5.0
            while not member_threads and time.monotonic() < deadline:
                time.sleep(0.01)
            [member_thread] = member_threads
            service.close()
            member_thread.join(timeout=1.0)
            assert not member_thread.is_alive(), "close() must stop the racing member"
            # The request still gets the seed's plan.
            assert answer.result(timeout=5.0).algorithm == "greedy_min_term"

    def test_a_full_cache_forgets_the_least_recently_used_plan(self):
        problems = [random_problem(4, seed) for seed in range(3)]
        config = PlanServiceConfig(budget_seconds=None, cache_capacity=2)
        with PlanService(config) as plan_service:
            for problem in problems:
                assert not plan_service.submit(problem).cache_hit
            assert plan_service.submit(problems[2]).cache_hit
            assert not plan_service.submit(problems[0]).cache_hit  # evicted
            cache = plan_service.stats()["cache"]
            assert cache["size"] == 2 and cache["capacity"] == 2
            assert cache["evictions"] == 2

    def test_closed_service_rejects_submissions(self, four_service_problem):
        plan_service = PlanService(PlanServiceConfig(budget_seconds=None))
        plan_service.close()
        with pytest.raises(ServingError):
            plan_service.submit(four_service_problem)

    def test_stats_shape(self, service, four_service_problem):
        service.submit(four_service_problem)
        stats = service.stats()
        assert stats["cache"]["size"] == 1
        assert stats["cache"]["capacity"] == 1024
        assert stats["requests"]["answered"] == 1
        assert stats["admission"]["pending"] == 0
        assert stats["portfolio"]["algorithms"][0] == "greedy_min_term"


class TestAdmissionControl:
    def test_overload_is_rejected_with_admission_error(self, four_service_problem):
        config = PlanServiceConfig(budget_seconds=None, max_in_flight=1, queue_depth=0)
        with PlanService(config) as plan_service:
            release = threading.Event()
            entered = threading.Event()

            original = plan_service._answer

            def slow_answer(problem, budget, fingerprint=None):
                entered.set()
                release.wait(timeout=5.0)
                return original(problem, budget, fingerprint)

            plan_service._answer = slow_answer
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(plan_service.submit, four_service_problem)
                assert entered.wait(timeout=5.0)
                with pytest.raises(AdmissionError):
                    plan_service.submit(four_service_problem)
                release.set()
                assert blocked.result(timeout=5.0).cost > 0
            assert plan_service.metrics.rejected == 1

    def test_queue_depth_admits_waiting_requests(self, four_service_problem):
        config = PlanServiceConfig(budget_seconds=None, max_in_flight=2, queue_depth=16)
        with PlanService(config) as plan_service:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(plan_service.submit, four_service_problem) for _ in range(10)
                ]
                responses = [future.result(timeout=30.0) for future in futures]
            assert len(responses) == 10
            assert plan_service.metrics.rejected == 0

    def test_blocking_callers_run_at_most_max_in_flight_optimizations(self):
        limit, callers = 2, 6
        config = PlanServiceConfig(budget_seconds=None, max_in_flight=limit, queue_depth=callers)
        with PlanService(config) as plan_service:
            running, peak = 0, 0
            lock = threading.Lock()
            original = plan_service._portfolio.optimize

            def counting_optimize(problem, budget_seconds=None):
                nonlocal running, peak
                with lock:
                    running += 1
                    peak = max(peak, running)
                time.sleep(0.05)
                try:
                    return original(problem, budget_seconds=budget_seconds)
                finally:
                    with lock:
                        running -= 1

            plan_service._portfolio.optimize = counting_optimize
            problems = [random_problem(5, seed) for seed in range(callers)]
            barrier = threading.Barrier(callers)

            def submit(problem):
                barrier.wait(timeout=5.0)
                return plan_service.submit(problem)

            with concurrent.futures.ThreadPoolExecutor(max_workers=callers) as pool:
                responses = list(pool.map(submit, problems))
            assert [r.cache_hit for r in responses] == [False] * callers
            assert peak == limit


class TestStaleWhileRevalidate:
    def test_expired_entry_is_served_stale_and_refreshed(self, four_service_problem):
        config = PlanServiceConfig(
            budget_seconds=None, cache_ttl=0.05, stale_while_revalidate=True
        )
        with PlanService(config) as plan_service:
            cold = plan_service.submit(four_service_problem)
            assert not cold.cache_hit
            time.sleep(0.1)
            stale = plan_service.submit(four_service_problem)
            assert stale.cache_hit and stale.stale
            # The background refresh re-inserts a fresh entry.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                response = plan_service.submit(four_service_problem)
                if response.cache_hit and not response.stale:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("the stale entry was never refreshed in the background")

    def test_drifted_parameters_trigger_background_refresh(self):
        problem = random_problem(5, 11)
        # Coarse fingerprints bucket the drifted problem onto the same key.
        config = PlanServiceConfig(
            budget_seconds=None, fingerprint_precision=0, drift_threshold=0.01
        )
        with PlanService(config) as plan_service:
            plan_service.submit(problem)
            drifted = OrderingProblem.from_parameters(
                [cost * 1.04 for cost in problem.costs],
                list(problem.selectivities),
                problem.transfer.as_lists(),
            )
            response = plan_service.submit(drifted)
            if response.cache_hit:
                assert plan_service.cache.stats().revalidations >= 1


class TestStress:
    def test_no_lost_or_duplicated_responses_under_concurrency(self):
        """Satellite acceptance: many threads, every request answered exactly once."""
        problems = [random_problem(5, seed) for seed in range(6)]
        requests = 400
        config = PlanServiceConfig(
            budget_seconds=0.5, max_in_flight=4, queue_depth=requests
        )
        results: dict[int, object] = {}
        results_lock = threading.Lock()
        with PlanService(config) as plan_service:

            def worker(request_id: int) -> None:
                response = plan_service.submit(problems[request_id % len(problems)])
                with results_lock:
                    assert request_id not in results, "duplicated response"
                    results[request_id] = response

            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                list(pool.map(worker, range(requests)))

            assert sorted(results) == list(range(requests)), "lost responses"
            for request_id, response in results.items():
                problem = problems[request_id % len(problems)]
                problem.validate_plan(response.order)
                assert response.cost == pytest.approx(problem.cost(response.order))
            stats = plan_service.stats()
            assert stats["requests"]["answered"] == requests
            assert stats["cache"]["hit_rate"] > 0.9


class TestServingMetrics:
    def test_latency_summary_quantiles(self):
        # Nearest-rank: the q-quantile of n samples is the ceil(q*n)-th order
        # statistic, so of 1..100 the p50 is the 50th sample and p95 the 95th.
        summary = LatencySummary.of([float(i) for i in range(1, 101)])
        assert summary.count == 100
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0
        assert summary.p99 == 99.0
        assert summary.max == 100.0
        assert LatencySummary.of([]).count == 0

    def test_latency_summary_small_populations(self):
        # A single sample is every quantile of itself.
        single = LatencySummary.of([3.0])
        assert (single.p50, single.p95, single.p99, single.max) == (3.0, 3.0, 3.0, 3.0)
        # With n=4, p95/p99 must be the maximum (rank ceil(0.95*4)=4), and the
        # p50 the 2nd order statistic — the truncation rule used to pick the
        # 3rd for p50 and could never be pinned to a rank definition.
        four = LatencySummary.of([4.0, 1.0, 3.0, 2.0])
        assert four.p50 == 2.0
        assert four.p95 == 4.0
        assert four.p99 == 4.0

    def test_snapshot_reuses_sorted_reservoir_until_dirty(self):
        metrics = ServingMetrics()
        metrics.observe("hit", 0.3, 1.0, False)
        metrics.observe("hit", 0.1, 1.0, False)
        first = metrics.snapshot()["latency"]["hit"]
        assert first["p50"] == 0.1 and first["max"] == 0.3
        # A second snapshot without new observations serves the cached sort.
        assert metrics.snapshot()["latency"]["hit"] == first
        # New observations invalidate the cache and show up in the next snapshot.
        metrics.observe("hit", 0.2, 1.0, False)
        second = metrics.snapshot()["latency"]["hit"]
        assert second["count"] == 3 and second["p50"] == 0.2

    def test_observe_rejects_unknown_source(self):
        metrics = ServingMetrics()
        with pytest.raises(ServingError):
            metrics.observe("warp", 0.1, 1.0, True)
        with pytest.raises(ServingError):
            metrics.latency("warp")

    def test_snapshot_counts(self):
        metrics = ServingMetrics()
        metrics.observe("cold", 0.5, 2.0, True)
        metrics.observe("hit", 0.001, 2.0, True)
        metrics.record_rejection()
        metrics.record_failure()
        snapshot = metrics.snapshot()
        assert snapshot["answered"] == 2
        assert snapshot["rejected"] == 1
        assert snapshot["failed"] == 1
        assert snapshot["by_source"] == {"hit": 1, "stale": 0, "cold": 1}
        assert snapshot["optimal_answers"] == 2
        assert snapshot["mean_plan_cost"] == pytest.approx(2.0)

    def test_reservoir_stays_bounded(self):
        metrics = ServingMetrics(reservoir_size=8)
        for index in range(100):
            metrics.observe("hit", float(index), 1.0, False)
        assert metrics.latency("hit").count == 8
        assert metrics.snapshot()["by_source"]["hit"] == 100


class TestKernelConfig:
    def test_unknown_kernel_is_rejected_at_config_time(self):
        with pytest.raises(ServingError):
            PlanServiceConfig(kernel="simd")

    def test_stats_report_requested_and_active_kernel(self, service):
        kernel = service.stats()["kernel"]
        assert kernel["requested"] == "auto"
        assert kernel["active"] in ("scalar", "vector")
        assert isinstance(kernel["numpy"], bool)
        assert kernel["active"] == service.active_kernel()

    def test_explicit_scalar_kernel_installs_process_default(self):
        from repro.core.vector import default_kernel, set_default_kernel

        try:
            config = PlanServiceConfig(budget_seconds=None, kernel="scalar")
            with PlanService(config) as plan_service:
                assert plan_service.active_kernel() == "scalar"
                assert default_kernel() == "scalar"
                kernel = plan_service.stats()["kernel"]
                assert kernel["requested"] == "scalar"
                assert kernel["active"] == "scalar"
        finally:
            set_default_kernel(None)

    def test_kernel_active_gauge_is_one_hot(self, service, four_service_problem):
        service.submit(four_service_problem)
        rendered = service.obs.registry.render()
        active = service.active_kernel()
        inactive = "scalar" if active == "vector" else "vector"
        assert f'repro_kernel_active{{kernel="{active}"}} 1' in rendered
        assert f'repro_kernel_active{{kernel="{inactive}"}} 0' in rendered
