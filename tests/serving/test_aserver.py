"""Tests of the asyncio front end: the route and status contract, slow-client
isolation, saturation behaviour, graceful shutdown (real sockets, ephemeral port)."""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from serving_helpers import StubBackend, get_json, post_json, raw_http

from repro.exceptions import OptimizationError
from repro.serialization import problem_to_dict
from repro.serving import (
    MAX_BODY_BYTES,
    PlanService,
    PlanServiceConfig,
    serve_async,
)
from repro.sharding import ShardRouter, ShardRouterConfig
from repro.workloads import credit_card_screening


@pytest.fixture
def server():
    with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
        with serve_async(plan_service, host="127.0.0.1", port=0) as handle:
            host, port = handle.address
            yield f"http://{host}:{port}", (host, port)


class TestEndpointParity:
    """The front end answers every route with the shared status contract."""

    def test_post_plan_answers_with_the_plan(self, server):
        url, _ = server
        problem = credit_card_screening()
        status, payload = post_json(f"{url}/plan", problem_to_dict(problem))
        assert status == 200
        assert sorted(payload["order"]) == list(range(problem.size))
        assert payload["cost"] == pytest.approx(problem.cost(payload["order"]))
        assert payload["cache_hit"] is False

    def test_second_request_hits_the_cache(self, server):
        url, _ = server
        problem = credit_card_screening()
        post_json(f"{url}/plan", problem_to_dict(problem))
        status, payload = post_json(f"{url}/plan", problem_to_dict(problem))
        assert status == 200
        assert payload["cache_hit"] is True

    def test_batch_answers_in_order_and_deduplicates(self, server):
        url, _ = server
        problem = credit_card_screening()
        document = problem_to_dict(problem)
        status, payload = post_json(
            f"{url}/plan/batch", {"problems": [document, document, document]}
        )
        assert status == 200
        responses = payload["responses"]
        assert len(responses) == 3
        assert [r["coalesced"] for r in responses] == [False, True, True]

    def test_stats_and_healthz(self, server):
        url, _ = server
        problem = credit_card_screening()
        post_json(f"{url}/plan", problem_to_dict(problem))
        post_json(f"{url}/plan", problem_to_dict(problem))
        status, payload = get_json(f"{url}/stats")
        assert status == 200
        assert payload["requests"]["answered"] == 2
        assert payload["cache"]["hits"] == 1
        status, payload = get_json(f"{url}/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_error_mapping_parity(self, server):
        url, address = server
        # 400: malformed problem document and non-numeric budget.
        status, payload = post_json(f"{url}/plan", {"services": "nope"})
        assert status == 400 and "error" in payload
        status, payload = post_json(
            f"{url}/plan",
            {"problem": problem_to_dict(credit_card_screening()), "budget_seconds": "0.2"},
        )
        assert status == 400 and "budget_seconds" in payload["error"]
        # 404: unknown paths on both methods.
        assert post_json(f"{url}/nope", {})[0] == 404
        assert get_json(f"{url}/nope")[0] == 404
        # 400: framing (missing / invalid / truncated Content-Length).
        assert raw_http(address, b"POST /plan HTTP/1.1\r\nHost: x\r\n\r\n") == 400
        assert (
            raw_http(address, b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: no\r\n\r\n")
            == 400
        )
        assert (
            raw_http(
                address,
                b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n{\"a\":",
            )
            == 400
        )

    def test_oversized_body_is_a_413_without_reading_it(self, server):
        _, address = server
        declared = MAX_BODY_BYTES + 1
        status = raw_http(
            address,
            f"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n".encode(),
            half_close=False,
        )
        assert status == 413

    def test_backend_failures_map_to_500(self):
        problem_document = problem_to_dict(credit_card_screening())
        for error in (OptimizationError("no plan"), RuntimeError("boom")):
            with serve_async(StubBackend(error=error), host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                status, payload = post_json(
                    f"http://{host}:{port}/plan", problem_document
                )
                assert status == 500
                assert "error" in payload


class TestSaturationAndConcurrency:
    def test_backend_overload_answers_503_but_healthz_survives(self):
        config = PlanServiceConfig(budget_seconds=None, max_in_flight=1, queue_depth=0)
        with PlanService(config) as service:
            release = threading.Event()
            original = service._portfolio.optimize

            def held_optimize(problem, budget_seconds=None):
                release.wait(timeout=10.0)
                return original(problem, budget_seconds=budget_seconds)

            service._portfolio.optimize = held_optimize
            with serve_async(service, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                url = f"http://{host}:{port}"
                document = problem_to_dict(credit_card_screening())
                with ThreadPoolExecutor(max_workers=1) as pool:
                    first = pool.submit(post_json, f"{url}/plan", document)
                    limit = time.monotonic() + 5.0
                    while service.stats()["admission"]["pending"] < 1:
                        assert time.monotonic() < limit, "the first request never arrived"
                        time.sleep(0.01)
                    # The only admission slot is held: the service refuses.
                    status, payload = post_json(f"{url}/plan", document)
                    assert status == 503
                    assert "over capacity" in payload["error"]
                    # Liveness and stats never wait behind the held request.
                    assert get_json(f"{url}/healthz")[0] == 200
                    status, payload = get_json(f"{url}/stats")
                    assert status == 200 and payload["admission"]["pending"] == 1
                    release.set()
                    assert first.result()[0] == 200

    def test_interleaved_plan_and_batch_against_a_router(self, make_random_problem):
        config = ShardRouterConfig(
            shards=2,
            backend="inproc",
            service_config=PlanServiceConfig(
                budget_seconds=None, algorithms=("greedy_min_term",)
            ),
        )
        problems = [make_random_problem(5, seed) for seed in range(12)]
        with ShardRouter(config) as router:
            with serve_async(router, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                url = f"http://{host}:{port}"

                def one(problem):
                    return post_json(f"{url}/plan", problem_to_dict(problem))

                def batch(chunk):
                    return post_json(
                        f"{url}/plan/batch",
                        {"problems": [problem_to_dict(p) for p in chunk]},
                    )

                with ThreadPoolExecutor(max_workers=8) as pool:
                    singles = [pool.submit(one, p) for p in problems]
                    batches = [
                        pool.submit(batch, problems[i : i + 4]) for i in range(0, 12, 4)
                    ]
                    for future, problem in zip(singles, problems):
                        status, payload = future.result()
                        assert status == 200
                        assert payload["cost"] == pytest.approx(
                            problem.cost(payload["order"])
                        )
                    for future in batches:
                        status, payload = future.result()
                        assert status == 200
                        assert len(payload["responses"]) == 4

    def test_slow_client_does_not_block_fast_requests(self, server):
        url, address = server
        problem_document = problem_to_dict(credit_card_screening())
        post_json(f"{url}/plan", problem_document)  # warm the cache
        body = json.dumps(problem_document).encode()
        with socket.create_connection(address, timeout=30) as slow:
            head = (
                f"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode()
            slow.sendall(head + body[:10])  # stall mid-body, holding the socket
            latencies = []
            for _ in range(5):
                started = time.monotonic()
                status, _payload = post_json(f"{url}/plan", problem_document)
                latencies.append(time.monotonic() - started)
                assert status == 200
            assert max(latencies) < 5.0  # fast path unaffected by the stalled peer
            slow.sendall(body[10:])  # let the slow request complete
            status_line = slow.makefile("rb").readline().decode("latin-1")
            assert int(status_line.split()[1]) == 200


class TestGracefulShutdown:
    def test_in_flight_request_survives_graceful_close(self):
        backend = StubBackend(delay=0.4)
        handle = serve_async(backend, host="127.0.0.1", port=0)
        host, port = handle.address
        statuses: list[int] = []

        def request() -> None:
            status, _ = post_json(
                f"http://{host}:{port}/plan", problem_to_dict(credit_card_screening())
            )
            statuses.append(status)

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.15)  # the request is now sleeping inside the backend
        drained = handle.close(timeout=5.0, close_backend=True)
        thread.join(timeout=10.0)
        assert statuses == [200]
        assert drained
        assert backend.closed

    def test_idle_keepalive_connections_do_not_stall_the_drain(self):
        handle = serve_async(StubBackend(), host="127.0.0.1", port=0)
        host, port = handle.address
        idle = socket.create_connection((host, port), timeout=10)
        try:
            time.sleep(0.1)  # the connection is accepted and parked in readuntil
            started = time.monotonic()
            assert handle.close(timeout=5.0)
            # Idle connections are cancelled, not waited out.
            assert time.monotonic() - started < 3.0
        finally:
            idle.close()

    def test_bind_errors_reraise_in_the_caller(self):
        backend = StubBackend()
        with serve_async(backend, host="127.0.0.1", port=0) as handle:
            _, port = handle.address
            with pytest.raises(OSError):
                serve_async(backend, host="127.0.0.1", port=port)
