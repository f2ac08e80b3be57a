"""The awaitable shard path under paced load on a warm process-shard router.

One warm :class:`~repro.sharding.router.ShardRouter` over N process shards,
served by the :class:`~repro.serving.aserver.AsyncPlanServer`: every request
is awaited end to end — the shard answer resolves the request's future from
the (single) response-multiplexer thread, and **no** per-request handler
thread exists.

Concurrent keep-alive clients cycle through the same warm (cache-hit)
problem set.  The clients are *paced* (a fixed per-client think time between
requests) so the server runs at high-but-not-saturated utilisation: that is
the regime where p50 measures per-request latency rather than pure queueing.
The payload also audits live thread counts during the run (no thread beyond
those alive when the clients started, 1 ``shard-mux`` selector) and checks
that the served responses are byte-identical to the blocking router's for
the same problems (modulo the per-call latency measurement).

Usage::

    PYTHONPATH=src python benchmarks/bench_async_shards.py           # full run
    PYTHONPATH=src python benchmarks/bench_async_shards.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import statistics
import threading
import time
from pathlib import Path

from repro.core.problem import OrderingProblem
from repro.serialization import problem_to_dict
from repro.serving import PlanServiceConfig
from repro.serving.aserver import serve_async
from repro.serving.http import response_to_dict
from repro.sharding import ShardRouter, ShardRouterConfig
from repro.utils import runtime_provenance

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_async_shards.json"


def service_config() -> PlanServiceConfig:
    """Cheap, deterministic shards: the benchmark measures the request path."""
    return PlanServiceConfig(
        algorithms=("greedy_min_term",),
        budget_seconds=None,
        cache_ttl=None,
        drift_threshold=None,
    )


def build_problems(count: int, size: int = 8) -> list[OrderingProblem]:
    """Distinct random problems so traffic spreads over every shard."""
    problems = []
    for seed in range(count):
        rng = random.Random(20260807 + seed)
        costs = [rng.uniform(0.5, 5.0) for _ in range(size)]
        selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
        rows = [
            [0.0 if i == j else rng.uniform(0.1, 4.0) for j in range(size)]
            for i in range(size)
        ]
        problems.append(OrderingProblem.from_parameters(costs, selectivities, rows))
    return problems


def client_loop(
    address: tuple[str, int],
    bodies: list[bytes],
    deadline: float,
    latencies: list[float],
    lock: threading.Lock,
    offset: int,
    think_seconds: float,
) -> None:
    """One paced keep-alive client cycling through the warm problem set."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    index = offset
    local: list[float] = []
    try:
        while time.monotonic() < deadline:
            body = bodies[index % len(bodies)]
            index += 1
            started = time.monotonic()
            connection.request(
                "POST", "/plan", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
            assert response.status == 200, (response.status, payload[:200])
            local.append(time.monotonic() - started)
            if think_seconds:
                time.sleep(think_seconds)
    finally:
        connection.close()
        with lock:
            latencies.extend(local)


def _client_worker_main(
    address, bodies, duration, threads_per_worker, offset, think_seconds, start, queue
):
    """Client-process entry point: drive ``threads_per_worker`` paced clients.

    Clients live in their own processes so their HTTP work never contends for
    the server process's GIL — the measured time is the server-side request
    path.  The worker signals readiness and then blocks on ``start`` so the
    measured window begins only after every client process has finished
    interpreter startup — on a small machine the simultaneous spawn storm
    would otherwise pollute the samples.
    """
    latencies: list[float] = []
    lock = threading.Lock()
    queue.put("ready")
    start.wait()
    deadline = time.monotonic() + duration
    workers = [
        threading.Thread(
            target=client_loop,
            args=(
                address,
                bodies,
                deadline,
                latencies,
                lock,
                offset + index,
                think_seconds,
            ),
        )
        for index in range(threads_per_worker)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    queue.put(latencies)


def run_trial(
    router: ShardRouter,
    bodies: list[bytes],
    *,
    clients: int,
    duration: float,
    think_seconds: float = 0.0,
) -> dict:
    """One measured window: raw latencies plus the thread audit."""
    import multiprocessing

    threads_per_worker = min(4, clients)
    workers = clients // threads_per_worker
    if workers * threads_per_worker != clients:
        raise ValueError(
            f"clients={clients} must divide into {threads_per_worker}-thread workers"
        )
    with serve_async(router, port=0) as handle:
        address = handle.address
        baseline = {thread.ident for thread in threading.enumerate()}
        peak_extra = 0
        sampling = threading.Event()

        def sample_threads() -> None:
            nonlocal peak_extra
            me = threading.get_ident()
            while not sampling.is_set():
                extra = [
                    thread for thread in threading.enumerate()
                    if thread.ident not in baseline and thread.ident != me
                ]
                peak_extra = max(peak_extra, len(extra))
                time.sleep(0.01)

        # spawn, not fork: the parent runs an event loop, a selector thread
        # and shard queues — forking that mid-flight is asking for inherited
        # locks; the client worker needs none of it.
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        start = context.Event()
        processes = [
            context.Process(
                target=_client_worker_main,
                args=(
                    address,
                    bodies,
                    duration,
                    threads_per_worker,
                    index * threads_per_worker,
                    think_seconds,
                    start,
                    queue,
                ),
            )
            for index in range(workers)
        ]
        sampler = threading.Thread(target=sample_threads)
        sampler.start()
        for process in processes:
            process.start()
        for _ in processes:  # all interpreters are up before the clock starts
            assert queue.get(timeout=60) == "ready"
        start.set()
        latencies: list[float] = []
        for _ in processes:
            latencies.extend(queue.get(timeout=duration + 60))
        for process in processes:
            process.join(timeout=30)
        sampling.set()
        sampler.join()
        mux_threads = len([t for t in threading.enumerate() if t.name == "shard-mux"])

    return {
        "latencies": latencies,
        "peak_handler_threads": peak_extra,
        "multiplexer_threads": mux_threads,
    }


def measure(
    router: ShardRouter,
    bodies: list[bytes],
    *,
    clients: int,
    duration: float,
    think_seconds: float = 0.0,
    trials: int = 1,
) -> dict:
    """Pool the latencies of ``trials`` windows into one run summary."""
    latencies: list[float] = []
    peak_handler_threads = 0
    multiplexer_threads = []
    for _ in range(trials):
        outcome = run_trial(
            router, bodies, clients=clients, duration=duration, think_seconds=think_seconds
        )
        latencies.extend(outcome["latencies"])
        peak_handler_threads = max(peak_handler_threads, outcome["peak_handler_threads"])
        multiplexer_threads.append(outcome["multiplexer_threads"])
    latencies.sort()
    run = {
        "trials": trials,
        "requests": len(latencies),
        "throughput_rps": len(latencies) / (duration * trials),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": latencies[int(0.9 * (len(latencies) - 1))] * 1e3,
        "p99_ms": latencies[int(0.99 * (len(latencies) - 1))] * 1e3,
        "peak_handler_threads": peak_handler_threads,
        "multiplexer_threads": max(multiplexer_threads),
    }
    print(
        f"{run['requests']} requests over {trials} trial(s), "
        f"p50 {run['p50_ms']:.2f} ms, p90 {run['p90_ms']:.2f} ms, "
        f"{run['throughput_rps']:.0f} req/s, "
        f"peak handler threads {run['peak_handler_threads']}"
    )
    return run


def parity_check(router: ShardRouter, problems: list[OrderingProblem]) -> dict:
    """Served answers vs the blocking router, byte for byte.

    Both sides answer from the warm shard cache, so every field except the
    per-call latency measurement must match exactly.
    """
    volatile = ("latency_seconds", "trace_id")
    mismatches = 0
    with serve_async(router, port=0) as handle:
        connection = http.client.HTTPConnection(*handle.address, timeout=30)
        try:
            for problem in problems:
                body = json.dumps(problem_to_dict(problem)).encode("utf-8")
                connection.request(
                    "POST", "/plan", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                served_document = json.loads(response.read())
                assert response.status == 200
                sync_document = response_to_dict(router.submit(problem))
                served_comparable = {
                    key: value for key, value in served_document.items()
                    if key not in volatile
                }
                sync_comparable = {
                    key: value for key, value in sync_document.items()
                    if key not in volatile
                }
                if served_comparable != sync_comparable:
                    mismatches += 1
        finally:
            connection.close()
    result = {"problems_compared": len(problems), "mismatches": mismatches}
    print(f"parity: {len(problems)} problems, {mismatches} mismatches")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small cohort / short run; used as the CI smoke invocation",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    shards = 2 if args.quick else 4
    clients = 8 if args.quick else 32
    duration = 1.0 if args.quick else 2.0
    trials = 1 if args.quick else 3
    # Pace each client so aggregate load sits at high-but-not-saturated
    # utilisation; see the module docstring for why the latency regime (and
    # not the saturation regime) is the one under test.
    think_seconds = 0.016 if args.quick else 0.048
    problems = build_problems(8 if args.quick else 16)
    print(
        f"async shard path: {shards} process shards, {clients} concurrent clients "
        f"({think_seconds * 1e3:.0f} ms think time), {trials} x {duration:.0f} s "
        f"trials, warm cache"
    )

    config = ShardRouterConfig(
        shards=shards, backend="processes", service_config=service_config()
    )
    with ShardRouter(config) as router:
        for problem in problems:  # warm: every request below is a cache hit
            router.submit(problem)
        bodies = [
            json.dumps(problem_to_dict(problem)).encode("utf-8") for problem in problems
        ]
        run = measure(
            router,
            bodies,
            clients=clients,
            duration=duration,
            think_seconds=think_seconds,
            trials=trials,
        )
        parity = parity_check(router, problems)

    acceptance = {
        "concurrent_clients": clients,
        "native_zero_handler_threads": run["peak_handler_threads"] == 0,
        "one_multiplexer_thread": run["multiplexer_threads"] == 1,
        "responses_byte_identical": parity["mismatches"] == 0,
    }

    payload = {
        "benchmark": "bench_async_shards",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "provenance": runtime_provenance(),
        "workload": {
            "process_shards": shards,
            "concurrent_clients": clients,
            "think_seconds_per_client": think_seconds,
            "seconds_per_trial": duration,
            "trials": trials,
            "distinct_problems": len(problems),
        },
        "runs": [run],
        "parity": parity,
        "acceptance": acceptance,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"acceptance: zero handler threads: {acceptance['native_zero_handler_threads']}, "
        f"one multiplexer: {acceptance['one_multiplexer_thread']}, byte-identical: "
        f"{acceptance['responses_byte_identical']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
