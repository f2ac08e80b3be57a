"""Scalar-vs-vector subset-DP benchmark: whole optimizer runs.

The vector kernel (:mod:`repro.core.vector`) serves only the subset DP, so
each cell times one whole :class:`~repro.core.dynamic_programming.DynamicProgrammingOptimizer`
run on ``hard_problem(n)`` with each kernel.  Both kernels return the same
plan, bit-identical cost and the same ``dp_states``, asserted here on every
cell (and property-tested in ``tests/core/test_vector.py``), so the speedups
below are free.

* **Full mode** sweeps n = 6…16.  The cells below 8 show the crossover that
  sets :data:`repro.core.vector.AUTO_MIN_SIZE`: the smallest n at which the
  vector run wins.
* **Quick mode** (the CI smoke) times n = 8 and 12.

The gate: the vector run is at least 1.5x faster than scalar at every
n >= 12; the script exits 1 otherwise.  The payload embeds interpreter,
numpy/BLAS, CPU-count and commit provenance so the numbers stay
interpretable across machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_vector.py           # full run
    PYTHONPATH=src python benchmarks/bench_vector.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_vector.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core.dynamic_programming import DynamicProgrammingOptimizer
from repro.core.vector import AUTO_MIN_SIZE, numpy_available
from repro.utils import runtime_provenance
from repro.workloads import hard_problem

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_vector.json"

FULL_SIZES = list(range(6, 17))
QUICK_SIZES = [8, 12]
GATE_MIN_SIZE = 12
GATE_SPEEDUP = 1.5


def _timed_run(problem, kernel: str):
    started = time.perf_counter()
    result = DynamicProgrammingOptimizer(max_size=problem.size, kernel=kernel).optimize(problem)
    return time.perf_counter() - started, result


def bench_dp(size: int, repeats: int) -> dict:
    """Best-of-``repeats`` whole DP runs on both kernels, alternated."""
    problem = hard_problem(size)
    _, scalar_result = _timed_run(problem, "scalar")
    _, vector_result = _timed_run(problem, "vector")
    assert vector_result.plan.order == scalar_result.plan.order, "kernel mismatch"
    assert vector_result.cost == scalar_result.cost, "kernel mismatch"
    dp_states = scalar_result.statistics.extra["dp_states"]
    assert vector_result.statistics.extra["dp_states"] == dp_states, "kernel mismatch"

    scalar = vector = float("inf")
    for _ in range(repeats):
        scalar = min(scalar, _timed_run(problem, "scalar")[0])
        vector = min(vector, _timed_run(problem, "vector")[0])
    return {
        "kind": "dp",
        "family": "hard_problem",
        "size": size,
        "dp_states": dp_states,
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n = 8 and 12 only, fewer repeats; used as the CI smoke invocation",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timed runs per kernel per cell")
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    if not numpy_available():
        print("bench_vector: numpy is not installed (pip install 'repro[fast]'); nothing to time")
        return 2

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 5)

    results = []
    for size in sizes:
        cell = bench_dp(size, repeats)
        results.append(cell)
        print(
            f"dp n={size:<3d} dp_states={cell['dp_states']:<8d} "
            f"scalar={cell['scalar_seconds'] * 1e3:9.2f}ms "
            f"vector={cell['vector_seconds'] * 1e3:9.2f}ms "
            f"{cell['speedup']:6.2f}x"
        )

    gated = [cell for cell in results if cell["size"] >= GATE_MIN_SIZE]
    min_gated = min(cell["speedup"] for cell in gated)
    passed = min_gated >= GATE_SPEEDUP
    claims = {
        "gate_min_size": GATE_MIN_SIZE,
        "threshold": GATE_SPEEDUP,
        "min_gated_speedup": min_gated,
        "gated_cells": len(gated),
        "passed": passed,
        "auto_min_size": AUTO_MIN_SIZE,
    }
    print(
        f"\ngate (whole DP runs, n>={GATE_MIN_SIZE}): min {min_gated:.2f}x over "
        f"{len(gated)} cells, threshold {GATE_SPEEDUP}x: {'passed' if passed else 'FAILED'}"
    )

    payload = {
        "benchmark": "bench_vector",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "provenance": runtime_provenance(),
        "claims": claims,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
