"""Cold-optimize timings across the whole algorithm registry.

This script starts the repository's performance trajectory: it times a cold
``optimize()`` call per (algorithm, size) cell on pruning-resistant instances
(near-unit selectivities keep every prefix product close to 1, so exact
searches cannot close subtrees early and the numbers reflect raw evaluation
throughput), and writes the results — together with per-plan costs, so a
future regression in *quality* is as visible as one in speed — to a
machine-readable JSON file.

The file also embeds the pre-kernel baseline (the same harness run at the
commit before the evaluation kernel of :mod:`repro.core.evaluation` landed,
on the same class of machine) and reports the speedup per cell, so the
kernel's headline numbers (>= 3x on exhaustive n=9 and local search n=12)
stay reproducible claims rather than folklore.

Usage::

    PYTHONPATH=src python benchmarks/bench_optimizers.py           # full run
    PYTHONPATH=src python benchmarks/bench_optimizers.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_optimizers.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.core import optimize
from repro.utils import runtime_provenance
from repro.workloads import hard_problem

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_optimizers.json"

# Measured at commit b470099 (the last commit before the evaluation kernel),
# with this same harness (best of 3, pruning-resistant instances) on the CI
# reference container.  Speedups below are relative to these numbers; cells
# absent here had no pre-kernel measurement.
PRE_KERNEL_BASELINE_SECONDS = {
    "exhaustive:n9": 5.6828,
    "hill_climbing:n12": 0.021554,
    "simulated_annealing:n12": 0.118003,
    "branch_and_bound:n12": 0.030515,
    "beam_search:n12": 0.017989,
    "dynamic_programming:n12": 0.079099,
    "greedy_min_term:n12": 0.00037049,
}

# (algorithm, problem size) cells; exhaustive enumerates n! plans, so its size
# is kept small.  Quick mode shrinks everything to keep the CI smoke fast.
FULL_CELLS = [
    ("exhaustive", 9),
    ("branch_and_bound", 12),
    ("dynamic_programming", 12),
    ("beam_search", 12),
    ("hill_climbing", 12),
    ("simulated_annealing", 12),
    ("greedy_min_term", 12),
    ("greedy_nearest_successor", 12),
]
QUICK_CELLS = [
    ("exhaustive", 7),
    ("branch_and_bound", 9),
    ("dynamic_programming", 9),
    ("beam_search", 9),
    ("hill_climbing", 9),
    ("simulated_annealing", 9),
    ("greedy_min_term", 9),
    ("greedy_nearest_successor", 9),
]


def time_cell(algorithm: str, size: int, repeats: int) -> dict:
    """Best-of-``repeats`` cold timing of one (algorithm, size) cell."""
    best_seconds = float("inf")
    cost = None
    name = ""
    for _ in range(repeats):
        # A fresh structurally-identical problem per repeat keeps the kernel
        # construction inside the measurement: these are *cold* numbers.
        fresh = hard_problem(size)
        name = fresh.name
        started = time.perf_counter()
        result = optimize(fresh, algorithm=algorithm)
        elapsed = time.perf_counter() - started
        if elapsed < best_seconds:
            best_seconds = elapsed
        cost = result.cost
    assert cost is not None
    return {
        "algorithm": algorithm,
        "size": size,
        "seconds": best_seconds,
        "cost": cost,
        "problem": name,
        "repeats": repeats,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes / single repeat; used as the CI smoke invocation",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per cell")
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    cells = QUICK_CELLS if args.quick else FULL_CELLS
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)

    results = []
    for algorithm, size in cells:
        cell = time_cell(algorithm, size, repeats)
        key = f"{algorithm}:n{size}"
        baseline = PRE_KERNEL_BASELINE_SECONDS.get(key)
        if baseline is not None:
            cell["pre_kernel_seconds"] = baseline
            cell["speedup_vs_pre_kernel"] = baseline / cell["seconds"]
        results.append(cell)
        speedup = (
            f"  ({cell['speedup_vs_pre_kernel']:.2f}x vs pre-kernel)"
            if baseline is not None
            else ""
        )
        print(
            f"{algorithm:26s} n={size:<3d} {cell['seconds'] * 1e3:10.3f} ms  "
            f"cost={cell['cost']:.6g}{speedup}"
        )

    payload = {
        "benchmark": "bench_optimizers",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "provenance": runtime_provenance(),
        "results": results,
        "pre_kernel_baseline_seconds": PRE_KERNEL_BASELINE_SECONDS,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
