"""Warm-cache overhead of tracing: the observability subsystem's price tag.

The observability acceptance bar is that turning tracing *on* must not tax
the latency-critical path noticeably: the warm-cache p50 of
:meth:`~repro.serving.service.PlanService.submit` with an active trace
scope (exactly what the HTTP front ends do per request — enter
:func:`~repro.obs.activate_trace`, serve, hand the finished activation to
:meth:`~repro.obs.Observability.record_trace`) must stay within 5% of the
same service answering untraced.

A warm-cache submit is a fingerprint + cache lookup — a few hundred
microseconds — so the measurement is deliberately noise-hardened:

* the traced and untraced services run *interleaved rounds* with the order
  alternating every round (A/B, B/A, A/B, …), so CPU-frequency drift and
  container neighbours bias both paths equally;
* the reported overhead is the **median of the per-round ratios** — each
  ratio compares two back-to-back measurements, which cancels slow drift
  that a single pooled comparison would absorb as fake overhead.

A second section microbenchmarks the primitives themselves: the disabled
path of :func:`~repro.obs.trace_span` (one contextvar read, paid by every
un-traced request) and the per-span cost under an active trace.

Usage::

    PYTHONPATH=src python benchmarks/bench_observability.py           # full run
    PYTHONPATH=src python benchmarks/bench_observability.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_observability.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from pathlib import Path

from repro.core import OrderingProblem
from repro.obs import activate_trace, trace_span
from repro.serving import PlanService, PlanServiceConfig
from repro.utils import runtime_provenance

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_observability.json"

OVERHEAD_THRESHOLD = 0.05
"""Acceptance: traced warm-cache p50 within 5% of the untraced p50."""

PROBLEM_SIZE = 12
"""The serving-workload size the parallel benchmark uses; a warm submit is
fingerprint + cache lookup, so the instance size sets the base latency the
fixed per-request tracing cost is judged against."""

UNIQUE_PROBLEMS = 16


def warm_problem(size: int, seed: int) -> OrderingProblem:
    """A small random instance (mirrors the test suite's ``random_problem``)."""
    rng = random.Random(seed)
    costs = [rng.uniform(0.0, 5.0) for _ in range(size)]
    selectivities = [rng.uniform(0.1, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.0, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, name=f"warm-n{size}-seed{seed}"
    )


def build_service(observability: bool) -> PlanService:
    config = PlanServiceConfig(
        budget_seconds=None,
        algorithms=("greedy_min_term", "branch_and_bound"),
        observability=observability,
    )
    return PlanService(config)


def warm(service: PlanService, problems: list) -> None:
    for problem in problems:
        service.submit(problem)


def measure_p50(service: PlanService, problems: list, iterations: int, traced: bool) -> float:
    """p50 of one warm submit (seconds), cycling the warmed problem set."""
    count = len(problems)
    samples = []
    if traced:
        for index in range(iterations):
            problem = problems[index % count]
            started = time.perf_counter()
            with activate_trace() as active:
                service.submit(problem)
            service.obs.record_trace(active)
            samples.append(time.perf_counter() - started)
    else:
        for index in range(iterations):
            problem = problems[index % count]
            started = time.perf_counter()
            service.submit(problem)
            samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_overhead(quick: bool) -> dict:
    rounds = 3 if quick else 9
    iterations = 300 if quick else 1500

    problems = [warm_problem(PROBLEM_SIZE, seed) for seed in range(UNIQUE_PROBLEMS)]
    base_service = build_service(observability=False)
    traced_service = build_service(observability=True)
    warm(base_service, problems)
    warm(traced_service, problems)
    try:
        base_rounds: list[float] = []
        traced_rounds: list[float] = []
        for round_index in range(rounds):
            # Alternate the order so neither path always runs on the warmer
            # (or colder) half of the round.
            if round_index % 2 == 0:
                base = measure_p50(base_service, problems, iterations, traced=False)
                traced = measure_p50(traced_service, problems, iterations, traced=True)
            else:
                traced = measure_p50(traced_service, problems, iterations, traced=True)
                base = measure_p50(base_service, problems, iterations, traced=False)
            base_rounds.append(base)
            traced_rounds.append(traced)
    finally:
        base_service.close()
        traced_service.close()

    ratios = [traced / base for base, traced in zip(base_rounds, traced_rounds)]
    overhead = statistics.median(ratios) - 1.0
    base_p50 = min(base_rounds)
    traced_p50 = min(traced_rounds)
    print(
        f"warm-cache p50 over {rounds} interleaved rounds x {iterations} submits: "
        f"untraced {base_p50 * 1e6:.1f} us, traced {traced_p50 * 1e6:.1f} us, "
        f"median per-round overhead {overhead * 100:.2f}%"
    )
    return {
        "workload": {
            "problem_size": PROBLEM_SIZE,
            "unique_problems": UNIQUE_PROBLEMS,
            "rounds": rounds,
            "iterations_per_round": iterations,
        },
        "untraced_p50_seconds": base_p50,
        "traced_p50_seconds": traced_p50,
        "untraced_round_p50s": base_rounds,
        "traced_round_p50s": traced_rounds,
        "round_overheads": [ratio - 1.0 for ratio in ratios],
        "overhead": overhead,
    }


def run_primitives(quick: bool) -> dict:
    iterations = 20_000 if quick else 200_000

    started = time.perf_counter()
    for _ in range(iterations):
        with trace_span("bench.noop"):
            pass
    disabled_ns = (time.perf_counter() - started) / iterations * 1e9

    started = time.perf_counter()
    with activate_trace():
        for _ in range(iterations):
            with trace_span("bench.span"):
                pass
    enabled_ns = (time.perf_counter() - started) / iterations * 1e9

    print(
        f"trace_span: disabled path {disabled_ns:.0f} ns/span, "
        f"active trace {enabled_ns:.0f} ns/span ({iterations} iterations)"
    )
    return {
        "iterations": iterations,
        "disabled_ns_per_span": disabled_ns,
        "active_ns_per_span": enabled_ns,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer rounds / iterations; used as the CI smoke invocation",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    overhead = run_overhead(args.quick)
    primitives = run_primitives(args.quick)

    acceptance = {
        "overhead_threshold": OVERHEAD_THRESHOLD,
        "overhead": overhead["overhead"],
        "passed": overhead["overhead"] <= OVERHEAD_THRESHOLD,
    }

    payload = {
        "benchmark": "bench_observability",
        "mode": "quick" if args.quick else "full",
        "provenance": runtime_provenance(),
        "warm_cache_overhead": overhead,
        "primitives": primitives,
        "acceptance": acceptance,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"acceptance: traced warm-cache p50 overhead {acceptance['overhead'] * 100:.2f}% "
        f"(threshold {OVERHEAD_THRESHOLD * 100:.0f}%, passed={acceptance['passed']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
