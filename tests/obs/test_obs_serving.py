"""End-to-end observability: ``/metrics`` on the front end, stitched traces.

The acceptance path of the subsystem: a traced request through a sharded,
process-backed serving stack must produce *one* span tree — front end →
router → shard process → race worker — queryable at ``GET /trace/<id>``,
and the HTTP front end must serve the Prometheus text exposition.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.obs import labelled, parse_prometheus_text
from repro.serialization import problem_to_dict
from repro.serving import PlanService, PlanServiceConfig, serve_async
from repro.workloads import credit_card_screening

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _post(url: str, payload: dict, headers: dict | None = None) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _get(url: str) -> tuple[int, str, str]:
    """GET returning (status, content type, raw body text)."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read().decode("utf-8")


def _observable_config(**overrides) -> PlanServiceConfig:
    defaults = dict(
        budget_seconds=None,
        algorithms=("greedy_min_term", "branch_and_bound"),
        observability=True,
        slow_request_seconds=0.0,
    )
    defaults.update(overrides)
    return PlanServiceConfig(**defaults)


@pytest.fixture
def traced_server():
    with PlanService(_observable_config()) as plan_service:
        with serve_async(plan_service, host="127.0.0.1", port=0) as handle:
            host, port = handle.address
            yield f"http://{host}:{port}"


def _walk(node: dict, depth: int = 0):
    yield node, depth
    for child in node["children"]:
        yield from _walk(child, depth + 1)


class TestMetricsEndpoint:
    def test_threaded_server_serves_prometheus_text(self, traced_server):
        problem = credit_card_screening()
        _post(f"{traced_server}/plan", problem_to_dict(problem))
        status, content_type, text = _get(f"{traced_server}/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_requests_answered_total counter" in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_requests_answered_total"][(("source", "cold"),)] == 1
        assert labelled(parsed["repro_http_requests_total"], "route")["/plan"] == 1
        # The request latency histogram carries the observation.
        assert parsed["repro_request_latency_seconds_count"][(("source", "cold"),)] == 1
        # Kernel profiling feeds evaluation counters through the scrape refresh.
        assert sum(parsed["repro_kernel_evaluations_total"].values()) > 0

    def test_async_server_serves_prometheus_text(self):
        with PlanService(_observable_config()) as plan_service:
            with serve_async(plan_service, host="127.0.0.1", port=0) as handle:
                host, port = handle.address
                url = f"http://{host}:{port}"
                problem = credit_card_screening()
                status, payload = _post(
                    f"{url}/plan", problem_to_dict(problem), {"X-Trace-Id": "ad" * 16}
                )
                assert status == 200
                assert payload["trace_id"] == "ad" * 16
                status, content_type, text = _get(f"{url}/metrics")
                assert status == 200
                assert content_type == PROMETHEUS_CONTENT_TYPE
                parsed = parse_prometheus_text(text)
                assert parsed["repro_requests_answered_total"][(("source", "cold"),)] == 1
                status, _, text = _get(f"{url}/trace/{'ad' * 16}")
                assert status == 200
                assert json.loads(text)["trace_id"] == "ad" * 16

    def test_metrics_without_an_instrumented_backend_is_a_404(self):
        # A bare callable backend has no Observability bundle; the route must
        # answer 404, not crash.
        from repro.serving.http import dispatch_request

        class Bare:
            pass

        status, payload = asyncio.run(dispatch_request(Bare(), "GET", "/metrics"))
        assert status == 404


class TestTraceEndpoint:
    def test_a_trace_id_is_minted_and_queryable(self, traced_server):
        problem = credit_card_screening()
        status, payload = _post(f"{traced_server}/plan", problem_to_dict(problem))
        assert status == 200
        trace_id = payload["trace_id"]
        assert len(trace_id) == 32
        status, _, text = _get(f"{traced_server}/trace/{trace_id}")
        assert status == 200
        tree = json.loads(text)
        names = {node["name"] for root in tree["roots"] for node, _ in _walk(root)}
        assert {"http.request", "service.submit", "cache.get"} <= names

    def test_the_x_trace_id_header_is_adopted(self, traced_server):
        problem = credit_card_screening()
        trace_id = "feed" * 8
        status, payload = _post(
            f"{traced_server}/plan", problem_to_dict(problem), {"X-Trace-Id": trace_id}
        )
        assert status == 200
        assert payload["trace_id"] == trace_id
        status, _, text = _get(f"{traced_server}/trace/{trace_id}")
        assert status == 200
        assert json.loads(text)["trace_id"] == trace_id

    def test_unknown_trace_is_a_404(self, traced_server):
        status, _, _ = _get(f"{traced_server}/trace/{'0' * 32}")
        assert status == 404

    def test_slow_requests_enter_the_slow_log(self, traced_server):
        problem = credit_card_screening()
        _post(f"{traced_server}/plan", problem_to_dict(problem))
        status, _, text = _get(f"{traced_server}/slowlog")
        assert status == 200
        payload = json.loads(text)
        assert payload["threshold_seconds"] == 0.0
        assert len(payload["entries"]) >= 1
        assert payload["entries"][0]["name"] == "http.request"


class TestShardedTracePropagation:
    def test_one_stitched_tree_across_process_shards_and_race_workers(
        self, make_random_problem
    ):
        from repro.sharding import ShardRouter, ShardRouterConfig

        config = _observable_config(budget_seconds=2.0, slow_request_seconds=None)
        router_config = ShardRouterConfig(
            shards=2, backend="processes", service_config=config
        )
        with ShardRouter(router_config) as router:
            handle = serve_async(router, host="127.0.0.1", port=0)
            host, port = handle.address
            url = f"http://{host}:{port}"
            try:
                trace_id = "cafe" * 8
                problem = make_random_problem(5, 1)
                status, payload = _post(
                    f"{url}/plan", problem_to_dict(problem), {"X-Trace-Id": trace_id}
                )
                assert status == 200
                assert payload["trace_id"] == trace_id

                status, _, text = _get(f"{url}/trace/{trace_id}")
                assert status == 200
                tree = json.loads(text)
                assert tree["trace_id"] == trace_id

                # One tree: a single front-end root with every other span
                # stitched beneath it.
                assert [root["name"] for root in tree["roots"]] == ["http.request"]
                nodes = list(_walk(tree["roots"][0]))
                names = {node["name"] for node, _ in nodes}
                assert {
                    "http.request",
                    "router.submit",
                    "shard.submit",
                    "service.submit",
                    "portfolio.race",
                    "portfolio.member",
                } <= names

                # Every span of the tree belongs to the request's trace, and
                # timings are monotonic-consistent: a child starts no earlier
                # than its parent (one wall clock, small scheduling slack).
                by_id = {node["span_id"]: node for node, _ in nodes}
                for node, _ in nodes:
                    assert node["trace_id"] == trace_id
                    assert node["duration"] >= 0.0
                    parent = by_id.get(node["parent_id"] or "")
                    if parent is not None:
                        assert node["start"] >= parent["start"] - 0.05

                # The cross-process chain: the shard span carries its shard id
                # and sits under the router span; the race members ran on the
                # shard's portfolio threads and still stitched beneath the race.
                shard_span = next(node for node, _ in nodes if node["name"] == "shard.submit")
                assert shard_span["annotations"]["shard"] in router.shard_ids
                assert by_id[shard_span["parent_id"]]["name"] == "router.submit"
                member = next(node for node, _ in nodes if node["name"] == "portfolio.member")
                assert by_id[member["parent_id"]]["name"] == "portfolio.race"

                # The router counted the routed request against its shard, and
                # the aggregate equals the per-shard sum.
                status, _, text = _get(f"{url}/metrics")
                assert status == 200
                by_shard = labelled(
                    parse_prometheus_text(text).get("repro_router_requests_total", {}),
                    "shard",
                )
                assert sum(by_shard.values()) == 1
            finally:
                handle.close()


class TestTopCommand:
    def test_repro_top_polls_metrics_and_renders_shard_load(self, traced_server, capsys):
        problem = credit_card_screening()
        _post(f"{traced_server}/plan", problem_to_dict(problem))
        code = main(
            ["top", "--url", traced_server, "--iterations", "2", "--interval", "0.05"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("repro top —") == 2
        assert "answered=1" in output
        assert "(+0.0/s)" in output  # the second poll carries rates

    def test_repro_top_json_mode(self, traced_server, capsys):
        problem = credit_card_screening()
        _post(f"{traced_server}/plan", problem_to_dict(problem))
        code = main(
            ["top", "--url", traced_server, "--iterations", "1", "--interval", "0.05", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["poll"] == 1
        assert document["answered"] == 1
        assert document["by_source"]["cold"] == 1

    def test_repro_top_against_a_dead_server_is_a_cli_error(self, capsys):
        code = main(["top", "--url", "http://127.0.0.1:9", "--iterations", "1"])
        assert code == 2
        assert "cannot scrape" in capsys.readouterr().err
