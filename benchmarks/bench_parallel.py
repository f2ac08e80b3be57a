"""Batch-throughput and hard-cancellation numbers of bulk plan compilation.

The benchmark replays a *serving trace* — ``unique`` pruning-resistant
problems arriving ``duplication`` times each, shuffled, every occurrence its
own :class:`~repro.core.problem.OrderingProblem` instance (exactly how
repeated traffic reaches a service) — through two paths:

* **sequential** — one cold ``optimize()`` call per request, on the parent
  process;
* **engine** — :func:`repro.experiments.harness.optimize_suite` at 1, 2 and
  4 workers (1 and 2 with ``--quick``): it collapses the trace to its unique
  problems and compiles those in process (1 worker) or on a process pool.

The reported batch speedup therefore compounds *deduplication* (pays off
everywhere, including single-core CI containers; the 1-worker row is
deduplication alone) with *multi-core scaling* (pays off on real hardware).
Pool rows exclude the executor's startup and shutdown, measured on an idle
executor of the same size just before each run and recorded as
``executor_seconds``.

The second section demonstrates cooperative cancellation: a portfolio race
with a deliberately over-budget exhaustive member (11 services, ~minutes of
enumeration) must return within its budget plus a grace period, because the
member's stop signal ends the enumeration at its next prefix once the
deadline passes.  The race runs its members on the caller's thread, so no
thread it started may still be alive after the optimizer is closed.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # full run
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.core import OrderingProblem, optimize
from repro.experiments import optimize_suite
from repro.serving import PortfolioOptimizer, PortfolioOptions
from repro.sharding.process import preferred_context
from repro.utils import runtime_provenance
from repro.workloads import hard_problem

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_parallel.json"

ALGORITHM = "branch_and_bound"
"""The cold-compile algorithm of the throughput section (the service default)."""

ACCEPTANCE_WORKERS = 4
ACCEPTANCE_SPEEDUP = 2.0
"""Acceptance: >= 2x batch throughput at 4 workers vs the sequential path."""


def serving_trace(
    size: int, unique: int, duplication: int, seed: int = 0
) -> list[OrderingProblem]:
    """``unique * duplication`` requests; every occurrence is a fresh instance."""
    order = [index % unique for index in range(unique * duplication)]
    random.Random(seed).shuffle(order)
    return [hard_problem(size, seed=index) for index in order]


def time_sequential(trace: list[OrderingProblem]) -> float:
    started = time.perf_counter()
    for problem in trace:
        optimize(problem, algorithm=ALGORITHM)
    return time.perf_counter() - started


def executor_seconds(workers: int) -> float:
    """Start an idle pool as ``optimize_suite`` does, run one no-op per
    worker, and shut it down (0 for one worker, which runs in process)."""
    if workers <= 1:
        return 0.0
    started = time.perf_counter()
    with ProcessPoolExecutor(workers, mp_context=preferred_context()) as executor:
        list(executor.map(abs, range(workers)))
    return time.perf_counter() - started


def time_engine(trace: list[OrderingProblem], workers: int) -> tuple[float, float]:
    """``optimize_suite`` wall time without the executor's lifecycle, and that lifecycle."""
    overhead = executor_seconds(workers)
    started = time.perf_counter()
    results = optimize_suite(trace, ALGORITHM, workers=workers)
    elapsed = time.perf_counter() - started
    assert len(results) == len(trace)
    return elapsed - overhead, overhead


def run_throughput(quick: bool) -> dict:
    size = 9 if quick else 12
    unique = 6 if quick else 24
    duplication = 3 if quick else 4
    worker_counts = (1, 2) if quick else (1, 2, ACCEPTANCE_WORKERS)

    trace = serving_trace(size, unique, duplication)
    requests = len(trace)
    sequential_seconds = time_sequential(trace)
    sequential_rps = requests / sequential_seconds
    print(
        f"sequential: {requests} requests ({unique} unique x{duplication}) "
        f"in {sequential_seconds:.3f} s -> {sequential_rps:.1f} req/s"
    )

    runs = []
    for workers in worker_counts:
        # Fresh instances per run: no evaluator cache leaks between paths.
        trace = serving_trace(size, unique, duplication)
        elapsed, overhead = time_engine(trace, workers)
        run = {
            "workers": workers,
            "seconds": elapsed,
            "executor_seconds": overhead,
            "requests_per_second": requests / elapsed,
            "speedup_vs_sequential": sequential_seconds / elapsed,
        }
        runs.append(run)
        print(
            f"engine w={workers}: {elapsed:.3f} s (+{overhead:.3f} s executor) -> "
            f"{run['requests_per_second']:.1f} req/s "
            f"({run['speedup_vs_sequential']:.2f}x vs sequential)"
        )

    return {
        "workload": {
            "algorithm": ALGORITHM,
            "size": size,
            "unique_problems": unique,
            "duplication_factor": duplication,
            "requests": requests,
        },
        "sequential": {
            "seconds": sequential_seconds,
            "requests_per_second": sequential_rps,
        },
        "engine_runs": runs,
    }


def run_cancellation(quick: bool) -> dict:
    size = 10 if quick else 11
    budget = 0.5 if quick else 0.75
    problem = hard_problem(size, seed=0)
    options = PortfolioOptions(
        algorithms=("greedy_min_term", "exhaustive"),
        budget_seconds=budget,
        # Lift the size guard so exhaustive genuinely chews on n! permutations
        # (minutes of work) instead of refusing the instance.
        algorithm_options={"exhaustive": {"max_size": 12}},
    )
    before = set(threading.enumerate())
    portfolio = PortfolioOptimizer(options)
    started = time.perf_counter()
    race = portfolio.optimize(problem)
    elapsed = time.perf_counter() - started
    portfolio.close()
    grace = 1.0  # time the member may take to notice its deadline
    race_threads = [thread for thread in threading.enumerate() if thread not in before]
    for thread in race_threads:
        thread.join(timeout=grace)
    no_thread_outlives_race = not any(thread.is_alive() for thread in race_threads)
    within_budget = elapsed <= budget + grace
    print(
        f"race n={size} budget={budget}s: returned in {elapsed:.3f} s, "
        f"best={race.best.algorithm} ({race.best.cost:.6g}), "
        f"timed out: {', '.join(race.timed_out) or '(none)'}; "
        f"threads started by the race: {len(race_threads)}, "
        f"none alive after close: {no_thread_outlives_race}"
    )
    return {
        "size": size,
        "budget_seconds": budget,
        "elapsed_seconds": elapsed,
        "grace_seconds": grace,
        "within_budget": within_budget,
        "timed_out": list(race.timed_out),
        "completed": sorted(race.results),
        "race_threads": len(race_threads),
        "no_thread_outlives_race": no_thread_outlives_race,
        "best_algorithm": race.best.algorithm,
        "best_cost": race.best.cost,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small trace / small sizes; used as the CI smoke invocation",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    throughput = run_throughput(args.quick)
    cancellation = run_cancellation(args.quick)

    top_run = max(throughput["engine_runs"], key=lambda run: run["workers"])
    acceptance = {
        "batch_speedup_threshold": ACCEPTANCE_SPEEDUP,
        "batch_speedup_workers": top_run["workers"],
        "batch_speedup": top_run["speedup_vs_sequential"],
        "batch_speedup_passed": top_run["speedup_vs_sequential"] >= ACCEPTANCE_SPEEDUP,
        "race_within_budget": cancellation["within_budget"],
        "no_thread_outlives_race": cancellation["no_thread_outlives_race"],
    }

    payload = {
        "benchmark": "bench_parallel",
        "mode": "quick" if args.quick else "full",
        "provenance": runtime_provenance(),
        "throughput": throughput,
        "cancellation": cancellation,
        "acceptance": acceptance,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"acceptance: batch {acceptance['batch_speedup']:.2f}x at "
        f"{acceptance['batch_speedup_workers']} workers "
        f"(threshold {ACCEPTANCE_SPEEDUP}x, passed={acceptance['batch_speedup_passed']}), "
        f"race within budget: {acceptance['race_within_budget']}, "
        f"no thread outlives the race: {acceptance['no_thread_outlives_race']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
