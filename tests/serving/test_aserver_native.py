"""Tests of the awaitable shard path: POSTs complete as event-loop futures.

Every backend — a process-shard or in-proc :class:`ShardRouter`, a single
:class:`PlanService` — exposes ``submit_async`` / ``optimize_batch_async``,
and the asyncio front end awaits plan traffic with no handler thread.  These
tests cover the async surface, response parity with the blocking router,
trace stitching through the awaitable path, admission semantics, and
shard-process death mid-request.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import urllib.error
import urllib.request

import pytest
from serving_helpers import get_json, post_json

from repro.exceptions import AdmissionError, ShardingError
from repro.serialization import problem_to_dict
from repro.serving import PlanService, PlanServiceConfig, serve_async
from repro.serving.http import response_to_dict
from repro.sharding import ProcessShard, ShardRouter, ShardRouterConfig
from repro.serving.fingerprint import fingerprint_problem
from repro.sharding.multiplexer import ResponseMultiplexer


def fast_config(**overrides) -> PlanServiceConfig:
    defaults = dict(budget_seconds=None, algorithms=("greedy_min_term",))
    defaults.update(overrides)
    return PlanServiceConfig(**defaults)


def process_router(shards: int = 2, **overrides) -> ShardRouter:
    return ShardRouter(
        ShardRouterConfig(
            shards=shards, backend="processes", service_config=fast_config(**overrides)
        )
    )


def post_traced(url: str, payload: dict, trace_id: str) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", "X-Trace-Id": trace_id},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def thread_names() -> set[str]:
    return {thread.name for thread in threading.enumerate()}


@pytest.fixture(scope="module")
def native_server():
    with process_router() as router:
        with serve_async(router, host="127.0.0.1", port=0) as handle:
            host, port = handle.address
            yield f"http://{host}:{port}", router, handle.server


class TestNativeDetection:
    def test_process_router_supports_async(self, make_random_problem):
        with process_router() as router:
            problem = make_random_problem(4, 0)
            response = asyncio.run(router.submit_async(problem))
            assert sorted(response.order) == list(range(4))

    def test_inproc_router_is_async_too(self, make_random_problem):
        config = ShardRouterConfig(shards=2, service_config=fast_config())
        with ShardRouter(config) as router:
            problem = make_random_problem(4, 0)
            cold = asyncio.run(router.submit_async(problem))
            warm = asyncio.run(router.submit_async(problem))
            assert not cold.cache_hit and warm.cache_hit
            assert warm.order == cold.order

    def test_in_proc_service_is_served_without_bridge_threads(self, make_random_problem):
        with PlanService(fast_config()) as plan_service:
            with serve_async(plan_service, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                before = thread_names()
                status, _ = post_json(
                    f"http://{host}:{port}/plan",
                    problem_to_dict(make_random_problem(5, 3)),
                )
                assert status == 200
                # The only thread a request may start is the service's
                # optimizer-pool worker running its cold optimization.
                new = thread_names() - before
                assert all(name.startswith("plan-optimize") for name in new), new


class TestNativeParity:
    """Native answers are identical to the blocking router's, byte for byte
    modulo the per-call latency measurement."""

    @staticmethod
    def _comparable(document: dict) -> dict:
        return {
            key: value
            for key, value in document.items()
            if key not in ("latency_seconds", "trace_id")
        }

    def test_plan_matches_sync_router(self, native_server, make_random_problem):
        url, router, _ = native_server
        problem = make_random_problem(6, 11)
        post_json(f"{url}/plan", problem_to_dict(problem))  # warm the shard cache
        sync_document = response_to_dict(router.submit(problem))
        status, native_document = post_json(f"{url}/plan", problem_to_dict(problem))
        assert status == 200
        assert self._comparable(native_document) == self._comparable(sync_document)

    def test_batch_answers_in_request_order(self, native_server, make_random_problem):
        url, router, _ = native_server
        problems = [make_random_problem(5, seed) for seed in range(8)]
        document = {"problems": [problem_to_dict(problem) for problem in problems]}
        status, payload = post_json(f"{url}/plan/batch", document)
        assert status == 200
        assert len(payload["responses"]) == len(problems)
        sync_responses = router.optimize_batch(problems)
        for native_document, sync_response in zip(payload["responses"], sync_responses):
            assert native_document["order"] == list(sync_response.order)
            assert native_document["cost"] == sync_response.cost
            assert native_document["fingerprint"] == sync_response.fingerprint

    def test_malformed_documents_keep_the_shared_status_map(self, native_server):
        url, _, _ = native_server
        status, payload = post_json(f"{url}/plan", {"nonsense": True})
        assert status == 400
        status, payload = post_json(f"{url}/plan/batch", {"problems": []})
        assert status == 400
        assert "non-empty" in payload["error"]

    def test_no_bridge_threads_after_native_traffic(self, native_server, make_random_problem):
        url, _, _ = native_server
        before = thread_names()
        for seed in range(4):
            status, _ = post_json(
                f"{url}/plan", problem_to_dict(make_random_problem(5, 20 + seed))
            )
            assert status == 200
        assert thread_names() <= before  # no thread per request, anywhere


class TestOneEventLoop:
    """A process-shard deployment serves sockets and shard pipes on one loop."""

    def test_front_end_and_multiplexer_share_one_thread(
        self, native_server, make_random_problem, monkeypatch
    ):
        url, router, _ = native_server
        served_on: list[str] = []
        submit_async = router.submit_async

        async def recording(problem, **options):
            served_on.append(threading.current_thread().name)
            return await submit_async(problem, **options)

        monkeypatch.setattr(router, "submit_async", recording)
        status, _ = post_json(f"{url}/plan", problem_to_dict(make_random_problem(5, 40)))
        assert status == 200
        assert served_on == [router.multiplexer.thread_name] == ["shard-mux"]
        assert "aserver-loop" not in thread_names()

    def test_blocking_batch_and_stats_still_answer_while_served(
        self, native_server, make_random_problem
    ):
        """Callers off the loop keep a thread future the loop resolves: a
        private ``asyncio.run`` loop, a blocking submit and ``/stats``."""
        url, router, _ = native_server
        problems = [make_random_problem(5, 50 + seed) for seed in range(6)]
        responses = router.optimize_batch(problems)
        assert [sorted(response.order) for response in responses] == [list(range(5))] * 6
        assert router.submit(problems[0]).cache_hit
        status, payload = get_json(f"{url}/stats")
        assert status == 200
        assert payload["shards"] == 2 and payload["down"] == []


class TestNativeTraceStitching:
    def test_one_tree_spans_all_four_layers(self, native_server, make_random_problem):
        """The ISSUE acceptance: http.request → router.submit → shard.submit →
        service.submit in one stitched tree, with the trace activated around
        the await rather than riding a bridge thread."""
        url, _, _ = native_server
        trace_id = "nativetrace01"
        problem = make_random_problem(7, 42)
        status, payload = post_traced(f"{url}/plan", problem_to_dict(problem), trace_id)
        assert status == 200
        assert payload["trace_id"] == trace_id
        status, tree = get_json(f"{url}/trace/{trace_id}")
        assert status == 200
        assert tree["trace_id"] == trace_id

        def chain(node) -> list[str]:
            names = [node["name"]]
            children = node.get("children", [])
            while children:
                # Follow the submit chain (first child is the dispatch path).
                node = children[0]
                names.append(node["name"])
                children = node.get("children", [])
            return names

        roots = tree["roots"]
        assert len(roots) == 1
        names = chain(roots[0])
        for expected in ("http.request", "router.submit", "shard.submit", "service.submit"):
            assert expected in names, f"{expected} missing from {names}"
        positions = [names.index(expected) for expected in (
            "http.request", "router.submit", "shard.submit", "service.submit"
        )]
        assert positions == sorted(positions)  # nested in layer order


class TestNativeAdmission:
    def test_native_path_keeps_503_semantics(self, make_random_problem):
        # The backend refuses one request with its admission-control error:
        # the front end answers 503 and keeps serving.
        with process_router() as router:
            with serve_async(router, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                real_submit = router.submit_async
                refusals = iter([AdmissionError("plan service over capacity: test")])

                async def refuse_once(problem, budget_seconds=None, timeout_seconds=None):
                    for error in refusals:
                        raise error
                    return await real_submit(problem, budget_seconds, timeout_seconds)

                router.submit_async = refuse_once
                status, payload = post_json(
                    f"http://{host}:{port}/plan",
                    problem_to_dict(make_random_problem(5, 1)),
                )
                assert status == 503
                assert "over capacity" in payload["error"]
                status, _ = post_json(
                    f"http://{host}:{port}/plan",
                    problem_to_dict(make_random_problem(5, 1)),
                )
                assert status == 200
                # Liveness survives saturation, unchanged.
                status, _ = get_json(f"http://{host}:{port}/healthz")
                assert status == 200


class TestRouterAsyncSurface:
    def test_submit_async_matches_submit(self, make_random_problem):
        with process_router() as router:
            problem = make_random_problem(6, 5)
            sync_response = router.submit(problem)

            async def call():
                return await router.submit_async(problem)

            native_response = asyncio.run(call())
            assert native_response.order == sync_response.order
            assert native_response.cost == sync_response.cost
            assert native_response.cache_hit  # second answer for the fingerprint

    def test_batch_async_deadline_surfaces_as_sharding_error(self, make_random_problem):
        with process_router() as router:
            problems = [make_random_problem(5, seed) for seed in range(4)]

            async def call():
                return await router.optimize_batch_async(
                    problems, timeout_seconds=1e-6
                )

            with pytest.raises(ShardingError, match="deadline"):
                asyncio.run(call())
            # The router survives the deadline: late answers are dropped, not
            # resolved into dead futures, and fresh requests still work.
            response = router.submit(problems[0])
            assert sorted(response.order) == list(range(5))


class TestShardDeathOnAsyncPath:
    def test_pending_future_fails_with_typed_shard_error(self, make_random_problem):
        """A request in flight when the shard process dies fails with the
        typed error instead of hanging the event loop."""
        mux = ResponseMultiplexer(name="test-mux-async-death")
        shard = ProcessShard("doomed-async", fast_config(), multiplexer=mux)
        try:

            async def scenario():
                await shard.submit_async(make_random_problem(4, 0))  # child is up
                shard._process.terminate()
                shard._process.join(timeout=5.0)
                # Refused at once if the child's exit was seen already;
                # otherwise the waiter registers and the exit fails it.
                await shard.submit_async(make_random_problem(4, 1))

            with pytest.raises(ShardingError, match="died"):
                asyncio.run(scenario())
        finally:
            shard.close()
            mux.close()

    def test_survivors_answer_and_healthz_names_the_dead_shard(self, make_random_problem):
        with process_router() as router:
            with serve_async(router, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                url = f"http://{host}:{port}"
                precision = router.config.service_config.fingerprint_precision
                by_shard: dict[str, object] = {}
                for seed in range(64):
                    problem = make_random_problem(5, 100 + seed)
                    key = fingerprint_problem(problem, precision).key
                    by_shard.setdefault(router._ring.node_for(key), problem)
                    if len(by_shard) == len(router._shards):
                        break
                assert len(by_shard) == 2, "need one problem per shard"
                victim_id, survivor_id = sorted(by_shard)
                router._shards[victim_id]._process.terminate()
                router._shards[victim_id]._process.join(timeout=5.0)

                status, payload = post_json(
                    f"{url}/plan", problem_to_dict(by_shard[victim_id])
                )
                assert status == 500
                assert "died" in payload["error"]
                status, payload = post_json(
                    f"{url}/plan", problem_to_dict(by_shard[survivor_id])
                )
                assert status == 200
                assert sorted(payload["order"]) == list(range(5))
                status, payload = get_json(f"{url}/healthz")
                assert status == 503
                assert payload == {"status": "degraded", "down": [victim_id]}

    def test_healthz_and_stats_name_a_sigkilled_shard(self):
        with process_router() as router:
            with serve_async(router, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                url = f"http://{host}:{port}"
                status, payload = get_json(f"{url}/healthz")
                assert status == 200 and payload == {"status": "ok"}
                assert router.down_shards() == []
                victim_id, survivor_id = router.shard_ids
                victim = router._shards[victim_id]._process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)
                status, payload = get_json(f"{url}/healthz")
                assert status == 503
                assert payload == {"status": "degraded", "down": [victim_id]}
                # /stats still answers: the dead shard is named, not called.
                status, payload = get_json(f"{url}/stats")
                assert status == 200
                assert payload["down"] == [victim_id]
                assert payload["shards"] == 2
                assert list(payload["per_shard"]) == [survivor_id]
