"""End-to-end tests of the JSON/HTTP plan endpoint (real sockets, ephemeral port)."""

from __future__ import annotations

import threading
import time

import pytest
from serving_helpers import StubBackend, get_json, post_json, raw_http

from repro.core.optimizer import ALGORITHMS
from repro.serialization import problem_to_dict
from repro.serving import PlanService, PlanServiceConfig, serve_async
from repro.serving.http import MAX_BODY_BYTES
from repro.workloads import credit_card_screening


@pytest.fixture
def server():
    with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
        with serve_async(plan_service, host="127.0.0.1", port=0) as handle:
            host, port = handle.address
            yield f"http://{host}:{port}"


class TestPlanEndpoint:
    def test_post_plan_answers_with_the_plan(self, server):
        problem = credit_card_screening()
        status, payload = post_json(f"{server}/plan", problem_to_dict(problem))
        assert status == 200
        assert sorted(payload["order"]) == list(range(problem.size))
        assert payload["cost"] == pytest.approx(problem.cost(payload["order"]))
        assert payload["cache_hit"] is False
        assert set(payload) >= {"algorithm", "optimal", "fingerprint", "latency_seconds"}

    def test_second_request_hits_the_cache(self, server):
        problem = credit_card_screening()
        post_json(f"{server}/plan", problem_to_dict(problem))
        status, payload = post_json(f"{server}/plan", problem_to_dict(problem))
        assert status == 200
        assert payload["cache_hit"] is True

    def test_wrapped_document_with_budget(self, server):
        problem = credit_card_screening()
        status, payload = post_json(
            f"{server}/plan",
            {"problem": problem_to_dict(problem), "budget_seconds": 0.5},
        )
        assert status == 200
        assert sorted(payload["order"]) == list(range(problem.size))

    def test_malformed_document_is_a_400(self, server):
        status, payload = post_json(f"{server}/plan", {"services": "nope"})
        assert status == 400
        assert "error" in payload

    def test_unknown_path_is_a_404(self, server):
        status, payload = post_json(f"{server}/nope", {})
        assert status == 404
        status, payload = get_json(f"{server}/nope")
        assert status == 404


class TestFailureAccounting:
    def test_untyped_member_error_is_a_500_and_counts_as_failed(self, monkeypatch):
        def broken_member(problem, **options):
            raise ValueError("member exploded")

        # The proof runs on every cold miss (beam search only runs when it
        # does not finish in time), so inject the fault there.
        monkeypatch.setitem(ALGORITHMS, "branch_and_bound", broken_member)
        with PlanService(PlanServiceConfig(budget_seconds=None)) as plan_service:
            with serve_async(plan_service, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                base = f"http://{host}:{port}"
                _, before = get_json(f"{base}/stats")
                status, payload = post_json(
                    f"{base}/plan", problem_to_dict(credit_card_screening())
                )
                _, after = get_json(f"{base}/stats")
        assert status == 500
        assert "ValueError" in payload["error"]
        assert after["requests"]["failed"] == before["requests"]["failed"] + 1


class TestBatchEndpoint:
    def test_post_batch_answers_in_order_and_deduplicates(self, server):
        problem = credit_card_screening()
        document = problem_to_dict(problem)
        status, payload = post_json(
            f"{server}/plan/batch", {"problems": [document, document, document]}
        )
        assert status == 200
        responses = payload["responses"]
        assert len(responses) == 3
        for response in responses:
            assert sorted(response["order"]) == list(range(problem.size))
            assert response["cost"] == pytest.approx(problem.cost(response["order"]))
        # One leader optimized; the structural twins rode along.
        assert [r["coalesced"] for r in responses] == [False, True, True]
        status, stats = get_json(f"{server}/stats")
        assert stats["requests"]["coalesced"] == 2

    def test_batch_with_budget_wrapper(self, server):
        problem = credit_card_screening()
        status, payload = post_json(
            f"{server}/plan/batch",
            {"problems": [problem_to_dict(problem)], "budget_seconds": 0.5},
        )
        assert status == 200
        assert len(payload["responses"]) == 1

    def test_malformed_batch_is_a_400(self, server):
        for bad in ({}, {"problems": []}, {"problems": "nope"}, {"problems": [{"services": 1}]}):
            status, payload = post_json(f"{server}/plan/batch", bad)
            assert status == 400
            assert "error" in payload

    def test_non_numeric_budget_is_a_400(self, server):
        problem_document = problem_to_dict(credit_card_screening())
        status, payload = post_json(
            f"{server}/plan/batch",
            {"problems": [problem_document], "budget_seconds": "0.2"},
        )
        assert status == 400
        assert "budget_seconds" in payload["error"]
        status, payload = post_json(
            f"{server}/plan",
            {"problem": problem_document, "budget_seconds": "0.2"},
        )
        assert status == 400
        assert "budget_seconds" in payload["error"]


class TestBodyFraming:
    """Regression: Content-Length used to be trusted blindly."""

    def address(self, server):
        host, port = server.rsplit(":", 1)
        return (host.removeprefix("http://"), int(port))

    def test_missing_content_length_is_a_400(self, server):
        status = raw_http(
            self.address(server),
            b"POST /plan HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert status == 400

    def test_invalid_content_length_is_a_400(self, server):
        status = raw_http(
            self.address(server),
            b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
        )
        assert status == 400

    def test_oversized_body_is_a_413_without_reading_it(self, server):
        # Declare a body over the bound but never send it: the server must
        # answer from the header alone instead of blocking on a bounded read.
        declared = MAX_BODY_BYTES + 1
        started = time.monotonic()
        status = raw_http(
            self.address(server),
            f"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n".encode(),
            half_close=False,
        )
        assert status == 413
        assert time.monotonic() - started < 5.0

    def test_truncated_body_is_a_400(self, server):
        status = raw_http(
            self.address(server),
            b"POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{\"a\":",
        )
        assert status == 400


class TestGracefulShutdown:
    def test_in_flight_request_survives_graceful_close(self):
        backend = StubBackend(delay=0.4)
        handle = serve_async(backend, host="127.0.0.1", port=0)
        host, port = handle.address
        statuses: list[int] = []

        def request() -> None:
            status, payload = post_json(
                f"http://{host}:{port}/plan", problem_to_dict(credit_card_screening())
            )
            statuses.append(status)

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.15)  # the request is now sleeping inside the backend
        drained = handle.close(timeout=5.0, close_backend=True)
        thread.join(timeout=10.0)
        assert statuses == [200]  # the in-flight request completed first
        assert drained
        assert backend.closed  # ... and only then was the backend closed

    def test_drain_deadline_is_honoured(self):
        backend = StubBackend(delay=1.5)
        handle = serve_async(backend, host="127.0.0.1", port=0)
        host, port = handle.address
        outcomes: list[BaseException] = []

        def request() -> None:
            try:
                post_json(f"http://{host}:{port}/plan", problem_to_dict(credit_card_screening()))
            except OSError as error:
                outcomes.append(error)

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.15)
        started = time.monotonic()
        drained = handle.close(timeout=0.2)
        assert not drained  # the request outlived the deadline
        assert time.monotonic() - started < 1.0
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcomes  # ... and its connection was cut, not answered

    def test_graceful_close_without_serving_just_closes(self):
        handle = serve_async(StubBackend(), host="127.0.0.1", port=0)
        assert handle.close(timeout=0.5)

    def test_idle_keepalive_connection_does_not_stall_the_drain(self):
        """Regression: the drain used to count open connections, so an idle
        keep-alive connection parked between requests pinned the whole timeout."""
        import http.client

        handle = serve_async(StubBackend(), host="127.0.0.1", port=0)
        host, port = handle.address
        idle = http.client.HTTPConnection(host, port, timeout=10)
        try:
            idle.request("GET", "/healthz")
            idle.getresponse().read()  # answered; the connection stays open
            time.sleep(0.1)
            started = time.monotonic()
            assert handle.close(timeout=5.0)  # drains clean...
            assert time.monotonic() - started < 3.0  # ...without the timeout
        finally:
            idle.close()


class TestStatsAndHealth:
    def test_stats_reflects_traffic(self, server):
        problem = credit_card_screening()
        post_json(f"{server}/plan", problem_to_dict(problem))
        post_json(f"{server}/plan", problem_to_dict(problem))
        status, payload = get_json(f"{server}/stats")
        assert status == 200
        assert payload["requests"]["answered"] == 2
        assert payload["cache"]["hits"] == 1

    def test_healthz(self, server):
        status, payload = get_json(f"{server}/healthz")
        assert status == 200
        assert payload == {"status": "ok"}
