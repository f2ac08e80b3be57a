"""Batch-throughput and hard-cancellation numbers of the parallel engine.

The benchmark replays a *serving trace* — ``unique`` pruning-resistant
problems arriving ``duplication`` times each, shuffled, every occurrence its
own :class:`~repro.core.problem.OrderingProblem` instance (exactly how
repeated traffic reaches a service) — through two paths:

* **sequential** — the pre-engine path: one cold ``optimize()`` call per
  request, on the parent process;
* **engine** — :meth:`repro.parallel.pool.OptimizerPool.optimize_many` at
  several worker counts: batch single-flight collapses the trace to its
  unique problems, and the worker processes compile those concurrently with
  warm per-problem evaluator caches.

The reported batch speedup therefore compounds *deduplication* (pays off
everywhere, including single-core CI containers) with *multi-core scaling*
(pays off on real hardware); the JSON records the workload's duplication
factor, the per-worker-count runs, and a no-dedup run so the two effects can
be separated.  The second section demonstrates cooperative cancellation: a
portfolio race with a deliberately over-budget exhaustive member
(11 services, ~minutes of enumeration) must return within its budget, and
the member's thread must exit within a grace period after that, because the
race's stop signal ends the enumeration at its next prefix.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # full run
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import threading
import time
from pathlib import Path

from repro.core import OrderingProblem, optimize
from repro.parallel import OptimizerPool
from repro.serving import PortfolioOptimizer, PortfolioOptions

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_parallel.json"

ALGORITHM = "branch_and_bound"
"""The cold-compile algorithm of the throughput section (the service default)."""

ACCEPTANCE_WORKERS = 4
ACCEPTANCE_SPEEDUP = 2.0
"""Acceptance: >= 2x batch throughput at 4 workers vs the sequential path."""


def git_commit() -> str | None:
    """The checkout's commit (``-dirty`` when uncommitted changes were measured)."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return described.stdout.strip() or None


def hard_problem(size: int, seed: int) -> OrderingProblem:
    """A pruning-resistant instance (mirrors ``bench_optimizers.hard_problem``)."""
    rng = random.Random(seed)
    costs = [rng.uniform(1.0, 1.3) for _ in range(size)]
    selectivities = [rng.uniform(0.9, 1.0) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(0.5, 4.0) for j in range(size)] for i in range(size)
    ]
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, name=f"hard-n{size}-seed{seed}"
    )


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


def time_engine(trace: list[OrderingProblem], workers: int, dedup: bool) -> float:
    with OptimizerPool(workers=workers) as pool:
        started = time.perf_counter()
        results = pool.optimize_many(trace, algorithm=ALGORITHM, dedup=dedup)
        elapsed = time.perf_counter() - started
    assert len(results) == len(trace)
    return elapsed


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
        elapsed = time_engine(trace, workers, dedup=True)
        run = {
            "workers": workers,
            "dedup": True,
            "seconds": elapsed,
            "requests_per_second": requests / elapsed,
            "speedup_vs_sequential": sequential_seconds / elapsed,
        }
        runs.append(run)
        print(
            f"engine w={workers} dedup: {elapsed:.3f} s -> "
            f"{run['requests_per_second']:.1f} req/s "
            f"({run['speedup_vs_sequential']:.2f}x vs sequential)"
        )
    # One no-dedup run at the top worker count isolates pure process scaling
    # (every request compiled, warm caches still amortize decode + kernel).
    trace = serving_trace(size, unique, duplication)
    no_dedup_seconds = time_engine(trace, worker_counts[-1], dedup=False)
    runs.append(
        {
            "workers": worker_counts[-1],
            "dedup": False,
            "seconds": no_dedup_seconds,
            "requests_per_second": requests / no_dedup_seconds,
            "speedup_vs_sequential": sequential_seconds / no_dedup_seconds,
        }
    )
    print(
        f"engine w={worker_counts[-1]} no-dedup: {no_dedup_seconds:.3f} s "
        f"({sequential_seconds / no_dedup_seconds:.2f}x vs sequential)"
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
    # The executor's threads live until it shuts down; once it has, each
    # exits as soon as its member has seen the stop signal.
    member_threads = [thread for thread in threading.enumerate() if thread not in before]
    portfolio.close()
    grace = 1.0  # time the member may take to stop and its thread to exit
    for thread in member_threads:
        thread.join(timeout=grace)
    exit_seconds = time.perf_counter() - started - elapsed
    member_exited = bool(member_threads) and not any(t.is_alive() for t in member_threads)
    within_budget = elapsed <= budget + grace
    print(
        f"race n={size} budget={budget}s: returned in {elapsed:.3f} s, "
        f"best={race.best.algorithm} ({race.best.cost:.6g}), "
        f"timed out: {', '.join(race.timed_out) or '(none)'}; "
        f"member thread exited {exit_seconds * 1e3:.1f} ms later: {member_exited}"
    )
    return {
        "size": size,
        "budget_seconds": budget,
        "elapsed_seconds": elapsed,
        "grace_seconds": grace,
        "within_budget": within_budget,
        "timed_out": list(race.timed_out),
        "completed": sorted(race.results),
        "member_threads": len(member_threads),
        "member_thread_exited": member_exited,
        "member_exit_seconds": exit_seconds,
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

    top_run = max(
        (run for run in throughput["engine_runs"] if run["dedup"]),
        key=lambda run: run["workers"],
    )
    acceptance = {
        "batch_speedup_threshold": ACCEPTANCE_SPEEDUP,
        "batch_speedup_workers": top_run["workers"],
        "batch_speedup": top_run["speedup_vs_sequential"],
        "batch_speedup_passed": top_run["speedup_vs_sequential"] >= ACCEPTANCE_SPEEDUP,
        "race_within_budget": cancellation["within_budget"],
        "race_straggler_cancelled": cancellation["member_thread_exited"],
    }

    payload = {
        "benchmark": "bench_parallel",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
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
        f"straggler cancelled: {acceptance['race_straggler_cancelled']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
