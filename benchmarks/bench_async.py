"""Slow-client isolation of the asyncio front end.

The scenario is the head-of-line regime the async front end exists for: a
warm :class:`~repro.serving.service.PlanService` (fast requests are cache
hits, sub-millisecond), **K deliberately slow clients** that connect and
trickle their request bodies over several seconds, and a handful of fast
clients measuring request latency the whole time.  The server
(:mod:`repro.serving.aserver`) gives the slow cohort exactly K parked
coroutines and answers only *complete* requests, so fast-client p50 stays
at its no-slow-client baseline (acceptance: within 1.5x).

A second section verifies the other half of this PR's tentpole on a live
router: N process shards are served by **one** response multiplexer thread
(``shard-mux``), not N per-shard reader threads.

Usage::

    PYTHONPATH=src python benchmarks/bench_async.py           # full run
    PYTHONPATH=src python benchmarks/bench_async.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_async.py -o out.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import socket
import statistics
import threading
import time
from pathlib import Path

from repro.serialization import problem_to_dict
from repro.serving import PlanService, PlanServiceConfig, serve_async
from repro.sharding import ShardRouter, ShardRouterConfig
from repro.utils import runtime_provenance
from repro.workloads import credit_card_screening

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_async.json"

ASYNC_DEGRADATION_LIMIT = 1.5
"""Acceptance: contended/baseline fast-client p50 bound for the async server."""


def service_config() -> PlanServiceConfig:
    """Cheap, deterministic service: the benchmark measures the front end."""
    return PlanServiceConfig(
        algorithms=("greedy_min_term",),
        budget_seconds=None,
        cache_ttl=None,
        drift_threshold=None,
    )


def fast_request(address: tuple[str, int], body: bytes, timeout: float) -> float:
    """One fast client request on a fresh connection; returns its latency."""
    started = time.monotonic()
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        connection.request(
            "POST", "/plan", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        payload = response.read()
        assert response.status == 200, (response.status, payload[:200])
    finally:
        connection.close()
    return time.monotonic() - started


def slow_client(
    address: tuple[str, int], body: bytes, hold_seconds: float, results: list[int]
) -> None:
    """Trickle a request body over ``hold_seconds``, then finish it."""
    with socket.create_connection(address, timeout=hold_seconds + 30) as sock:
        head = (
            f"POST /plan HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        sock.sendall(head)
        steps = 10
        prefix = body[:steps]
        for index in range(steps):
            sock.sendall(prefix[index : index + 1])  # one byte per step: stalled
            time.sleep(hold_seconds / steps)
        sock.sendall(body[steps:])
        status_line = sock.makefile("rb").readline().decode("latin-1")
        results.append(int(status_line.split()[1]))


def fast_phase(
    address: tuple[str, int],
    body: bytes,
    duration: float,
    clients: int,
    timeout: float,
) -> list[float]:
    """``clients`` threads issuing fast requests for ``duration`` seconds."""
    latencies: list[float] = []
    lock = threading.Lock()
    deadline = time.monotonic() + duration

    def loop() -> None:
        while time.monotonic() < deadline:
            latency = fast_request(address, body, timeout)
            with lock:
                latencies.append(latency)

    threads = [threading.Thread(target=loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies


def measure_server(
    kind: str,
    address: tuple[str, int],
    body: bytes,
    *,
    slow_clients: int,
    hold_seconds: float,
    fast_clients: int,
    baseline_seconds: float,
) -> dict:
    """Baseline then contended fast-client latency against one server."""
    request_timeout = hold_seconds + 30
    baseline = fast_phase(address, body, baseline_seconds, fast_clients, request_timeout)

    slow_statuses: list[int] = []
    slow_threads = [
        threading.Thread(
            target=slow_client, args=(address, body, hold_seconds, slow_statuses)
        )
        for _ in range(slow_clients)
    ]
    for thread in slow_threads:
        thread.start()
        time.sleep(0.02)  # stagger so each connection is accepted in turn
    time.sleep(0.3)  # the slow cohort now holds its sockets/threads
    # Measure strictly *inside* the hold window (requests started before the
    # deadline still record their full latency): sampling past the cohort's
    # departure would dilute the median with recovered-fast requests.
    contended_window = max(0.3, hold_seconds - 0.9)
    contended = fast_phase(
        address, body, contended_window, fast_clients, request_timeout
    )
    for thread in slow_threads:
        thread.join()

    baseline_p50 = statistics.median(baseline)
    contended_p50 = statistics.median(contended)
    run = {
        "server": kind,
        "baseline_requests": len(baseline),
        "baseline_p50_ms": baseline_p50 * 1e3,
        "contended_requests": len(contended),
        "contended_p50_ms": contended_p50 * 1e3,
        "contended_p90_ms": sorted(contended)[int(0.9 * (len(contended) - 1))] * 1e3,
        "degradation_ratio": contended_p50 / baseline_p50,
        "slow_client_statuses": sorted(set(slow_statuses)),
    }
    print(
        f"{kind}: baseline p50 {run['baseline_p50_ms']:.2f} ms "
        f"({run['baseline_requests']} reqs) -> contended p50 "
        f"{run['contended_p50_ms']:.2f} ms ({run['contended_requests']} reqs), "
        f"degradation {run['degradation_ratio']:.2f}x"
    )
    return run


def run_isolation(quick: bool) -> dict:
    slow = 8 if quick else 12
    hold_seconds = 1.2 if quick else 3.0
    fast_clients = 2 if quick else 4
    baseline_seconds = 0.6 if quick else 1.5

    problem = credit_card_screening()
    body = json.dumps(problem_to_dict(problem)).encode("utf-8")
    print(
        f"slow-client isolation: {slow} slow clients holding {hold_seconds:.1f} s, "
        f"{fast_clients} fast clients, warm cache"
    )

    with PlanService(service_config()) as service:
        service.submit(problem)  # warm: fast requests are cache hits
        with serve_async(service, port=0) as handle:
            run = measure_server(
                "async",
                handle.address,
                body,
                slow_clients=slow,
                hold_seconds=hold_seconds,
                fast_clients=fast_clients,
                baseline_seconds=baseline_seconds,
            )
    return {
        "workload": {
            "slow_clients": slow,
            "hold_seconds": hold_seconds,
            "fast_clients": fast_clients,
            "baseline_seconds": baseline_seconds,
        },
        "runs": [run],
    }


def run_multiplexer_check(quick: bool) -> dict:
    """A live router must run one mux thread, not one reader per shard."""
    shards = 2 if quick else 4
    config = ShardRouterConfig(
        shards=shards, backend="processes", service_config=service_config()
    )
    with ShardRouter(config) as router:
        reader_threads = [
            t.name for t in threading.enumerate() if t.name.startswith("shard-reader-")
        ]
        mux_threads = [t.name for t in threading.enumerate() if t.name == "shard-mux"]
        response = router.submit(credit_card_screening())  # proof of life
        assert sorted(response.order) == list(range(credit_card_screening().size))
        registered = router.multiplexer.ports()
    result = {
        "process_shards": shards,
        "per_shard_reader_threads": len(reader_threads),
        "multiplexer_threads": len(mux_threads),
        "registered_response_pipes": registered,
    }
    print(
        f"multiplexer: {shards} process shards -> {result['multiplexer_threads']} "
        f"mux thread(s), {result['per_shard_reader_threads']} per-shard readers"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short holds / small cohorts; used as the CI smoke invocation",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    isolation = run_isolation(args.quick)
    multiplexer = run_multiplexer_check(args.quick)

    degradation = isolation["runs"][0]["degradation_ratio"]
    acceptance = {
        "slow_clients": isolation["workload"]["slow_clients"],
        "async_degradation_ratio": degradation,
        "async_within_limit": degradation <= ASYNC_DEGRADATION_LIMIT,
        "async_degradation_limit": ASYNC_DEGRADATION_LIMIT,
        "one_multiplexer_not_reader_threads": (
            multiplexer["multiplexer_threads"] == 1
            and multiplexer["per_shard_reader_threads"] == 0
        ),
    }

    payload = {
        "benchmark": "bench_async",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "provenance": runtime_provenance(),
        "isolation": isolation,
        "multiplexer": multiplexer,
        "acceptance": acceptance,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"acceptance: async degradation {acceptance['async_degradation_ratio']:.2f}x "
        f"<= {ASYNC_DEGRADATION_LIMIT}x ({acceptance['async_within_limit']}), "
        f"one multiplexer: {acceptance['one_multiplexer_not_reader_threads']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
