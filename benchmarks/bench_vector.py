"""Scalar-vs-vector kernel microbenchmark: whole candidate sets per call.

Times the two implementations of the kernel contract the optimizers are
written against (:func:`repro.core.vector.evaluation_kernel`) — the scalar
:class:`~repro.core.evaluation.PlanEvaluator` and the vector
:class:`~repro.core.vector.BatchEvaluator` — on the shapes the vector
kernel was built for:

* ``plans``     — score a batch of complete plans (vector ``score_orders``
  vs a loop of the contract's ``cost``), swept over batch sizes;
* ``beam``      — ``score_front``: every feasible extension of a beam front,
  swept over front widths;
* ``neighbours``— ``best_neighbor``: one steepest-descent step over the full
  swap/relocate neighbourhood.

Both kernels return bit-identical results (asserted here on every cell, and
property-tested exhaustively in ``tests/core/test_vector.py``), so the
speedups below are free.

The committed ``BENCH_vector.json`` backs the headline claim: >= 3x over
scalar for beam-front and neighbourhood scoring at n >= 16 with batches of
>= 256 candidates.  (The scalar ``score_front`` scores a child without
building it, so below ~256 candidates the vector kernel's fixed numpy call
overhead keeps its beam-front lead under 2x.)  The payload embeds
interpreter/numpy/BLAS provenance so the numbers stay interpretable across
machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_vector.py           # full run
    PYTHONPATH=src python benchmarks/bench_vector.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_vector.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro.core.vector import evaluation_kernel, numpy_available
from repro.utils import runtime_provenance
from repro.workloads import hard_problem

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_vector.json"

FULL_SIZES = [8, 16, 24]
QUICK_SIZES = [8, 16]
FULL_PLAN_BATCHES = [16, 64, 256, 1024]
QUICK_PLAN_BATCHES = [16, 64]
FULL_BEAM_WIDTHS = [4, 16, 64]
QUICK_BEAM_WIDTHS = [4, 16]


def best_seconds(fn, repeats: int, inner: int) -> float:
    """Best-of-``repeats`` timing of ``inner`` back-to-back calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - started) / inner)
    return best


def bench_plans(problem, batch_size: int, repeats: int, inner: int, rng) -> dict:
    """Complete-plan batch scoring: ``score_orders`` vs a scalar ``cost`` loop."""
    evaluator = evaluation_kernel(problem, "scalar")
    batch = evaluation_kernel(problem, "vector")
    orders = [tuple(rng.sample(range(problem.size), problem.size)) for _ in range(batch_size)]

    vector_scores = batch.score_orders(orders)
    scalar_scores = [evaluator.cost(order) for order in orders]
    assert all(v == s for v, s in zip(vector_scores, scalar_scores)), "kernel mismatch"

    scalar = best_seconds(lambda: [evaluator.cost(order) for order in orders], repeats, inner)
    vector = best_seconds(lambda: batch.score_orders(orders), repeats, inner)
    return {
        "kind": "plans",
        "size": problem.size,
        "batch": batch_size,
        "candidates": batch_size,
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
    }


def bench_beam_front(problem, width: int, repeats: int, inner: int, rng) -> dict:
    """Beam-front scoring: ``score_front`` on both kernels."""
    evaluator = evaluation_kernel(problem, "scalar")
    batch = evaluation_kernel(problem, "vector")
    size = problem.size
    depth = size // 2
    root = evaluator.root()
    front = []
    for _ in range(width):
        state = root
        for service in rng.sample(range(size), depth):
            state = state.extend(service)
        front.append(state)
    candidates = width * (size - depth)
    assert evaluator.score_front(front, False)[2] == batch.score_front(front, False)[2].tolist()

    scalar = best_seconds(lambda: evaluator.score_front(front, False), repeats, inner)
    vector = best_seconds(lambda: batch.score_front(front, False), repeats, inner)
    return {
        "kind": "beam",
        "size": size,
        "width": width,
        "candidates": candidates,
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
    }


def bench_neighbourhood(problem, repeats: int, inner: int, rng) -> dict:
    """One steepest-descent step: ``best_neighbor`` on both kernels."""
    evaluator = evaluation_kernel(problem, "scalar")
    batch = evaluation_kernel(problem, "vector")
    size = problem.size
    order = tuple(rng.sample(range(size), size))
    candidates = size * (size - 1) // 2 + size * (size - 1)

    base_cost = evaluator.cost(order)
    assert evaluator.best_neighbor(order, base_cost) == batch.best_neighbor(order, base_cost)
    scalar = best_seconds(lambda: evaluator.best_neighbor(order, base_cost), repeats, inner)
    vector = best_seconds(lambda: batch.best_neighbor(order, base_cost), repeats, inner)
    return {
        "kind": "neighbours",
        "size": size,
        "candidates": candidates,
        "scalar_seconds": scalar,
        "vector_seconds": vector,
        "speedup": scalar / vector,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep / fewer repeats; used as the CI smoke invocation",
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

    if not numpy_available():
        print("bench_vector: numpy is not installed (pip install 'repro[fast]'); nothing to time")
        return 2

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    plan_batches = QUICK_PLAN_BATCHES if args.quick else FULL_PLAN_BATCHES
    beam_widths = QUICK_BEAM_WIDTHS if args.quick else FULL_BEAM_WIDTHS
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 5)
    inner = 1 if args.quick else 3
    rng = random.Random(7)

    results = []
    for size in sizes:
        problem = hard_problem(size)
        for batch_size in plan_batches:
            results.append(bench_plans(problem, batch_size, repeats, inner, rng))
        for width in beam_widths:
            results.append(bench_beam_front(problem, width, repeats, inner, rng))
        results.append(bench_neighbourhood(problem, repeats, inner, rng))

    for cell in results:
        shape = cell.get("batch") or cell.get("width") or "-"
        print(
            f"{cell['kind']:11s} n={cell['size']:<3d} shape={shape!s:>5s} "
            f"candidates={cell['candidates']:<5d} "
            f"scalar={cell['scalar_seconds'] * 1e6:9.1f}us "
            f"vector={cell['vector_seconds'] * 1e6:9.1f}us "
            f"{cell['speedup']:6.2f}x"
        )

    # The headline claim the committed JSON backs: beam-front and
    # neighbourhood scoring at n >= 16 with >= 256 candidates per call.
    headline = [
        cell
        for cell in results
        if cell["kind"] in ("beam", "neighbours")
        and cell["size"] >= 16
        and cell["candidates"] >= 256
    ]
    claims = {
        "min_headline_speedup": min((c["speedup"] for c in headline), default=None),
        "headline_cells": len(headline),
        "threshold": 3.0,
    }
    if headline:
        print(
            f"\nheadline (beam/neighbours, n>=16, >=256 candidates): "
            f"min {claims['min_headline_speedup']:.2f}x over {len(headline)} cells"
        )

    payload = {
        "benchmark": "bench_vector",
        "mode": "quick" if args.quick else "full",
        "provenance": runtime_provenance(),
        "claims": claims,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
