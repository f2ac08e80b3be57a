"""Throughput and rebalance numbers of the sharded serving tier.

The benchmark replays the *96-request mixed trace* (24 unique
pruning-resistant problems arriving 4x each, shuffled — the same workload
shape as ``bench_parallel``) through a :class:`~repro.sharding.ShardRouter`
over 1, 2 and 4 process shards, delivered as a stream of mixed batches the
way ``POST /plan/batch`` traffic arrives.

Every shard runs a full :class:`~repro.serving.service.PlanService` with a
deliberately *bounded* plan cache (16 entries — smaller than the trace's
24-key working set, the realistic regime where cached state outgrows any one
process).  The shard count therefore compounds two effects, and the JSON
separates them:

* **aggregate cache capacity** — one shard thrashes its LRU on the 24-key
  working set and keeps re-optimizing plans it just evicted, while 4 shards
  hold ~6 keys each and answer every repeat warm.  This pays off everywhere,
  including the single-core CI container (each run records its cache
  hits/misses so the effect is visible, not inferred);
* **multi-core scaling** — shards are OS processes, so cold optimizations
  proceed concurrently on real hardware (``cpu_count`` is recorded; on a
  1-CPU container this contributes ~nothing, exactly like
  ``bench_parallel``'s no-dedup control).

The second section measures the *rebalance* property with actual cached
keys, not theory: after the top run the shards' caches are scanned, one
shard is added, and the fraction of cached keys whose owner changed is
compared against the ~1/N consistent-hashing ideal (a 2048-key synthetic
placement is recorded alongside, as the large-sample view of the same ring).

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py           # full run
    PYTHONPATH=src python benchmarks/bench_sharding.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_sharding.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro.core import OrderingProblem
from repro.serving import PlanServiceConfig
from repro.sharding import ShardRouter, ShardRouterConfig
from repro.sharding.ring import HashRing
from repro.utils import runtime_provenance
from repro.workloads import hard_problem

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_sharding.json"

ALGORITHM = "branch_and_bound"
"""The cold-compile algorithm behind every shard (the service default)."""

ACCEPTANCE_SHARDS = 4
"""Acceptance: this many shards must beat one shard on the mixed trace."""


def serving_trace(
    size: int, unique: int, duplication: int, seed: int = 0
) -> list[OrderingProblem]:
    """``unique * duplication`` requests; every occurrence is a fresh instance."""
    order = [index % unique for index in range(unique * duplication)]
    random.Random(seed).shuffle(order)
    return [hard_problem(size, seed=index) for index in order]


def shard_config(cache_capacity: int) -> PlanServiceConfig:
    """One shard's service: single exact member, bounded cache, no expiry."""
    return PlanServiceConfig(
        algorithms=(ALGORITHM,),
        budget_seconds=None,
        cache_capacity=cache_capacity,
        cache_ttl=None,
        drift_threshold=None,
    )


def time_trace(
    router: ShardRouter, trace: list[OrderingProblem], batch_size: int
) -> float:
    started = time.perf_counter()
    answered = 0
    for start in range(0, len(trace), batch_size):
        answered += len(router.optimize_batch(trace[start : start + batch_size]))
    elapsed = time.perf_counter() - started
    assert answered == len(trace)
    return elapsed


def run_throughput(quick: bool) -> tuple[dict, ShardRouter]:
    size = 9 if quick else 12
    unique = 8 if quick else 24
    duplication = 3 if quick else 4
    # Half the working set: the regime where cached state has outgrown any
    # single process and sharding's aggregate capacity is the fix.
    cache_capacity = 4 if quick else 12
    batch_size = 6 if quick else 8
    shard_counts = (1, 2) if quick else (1, 2, ACCEPTANCE_SHARDS)

    requests = unique * duplication
    print(
        f"mixed trace: {requests} requests ({unique} unique x{duplication}, n={size}), "
        f"batches of {batch_size}, per-shard cache capacity {cache_capacity}"
    )

    runs = []
    top_router: ShardRouter | None = None
    for shards in shard_counts:
        router = ShardRouter(
            ShardRouterConfig(
                shards=shards,
                backend="processes",
                service_config=shard_config(cache_capacity),
            )
        )
        try:
            trace = serving_trace(size, unique, duplication)
            elapsed = time_trace(router, trace, batch_size)
            stats = router.stats()
            run = {
                "shards": shards,
                "seconds": elapsed,
                "requests_per_second": requests / elapsed,
                "cache_hits": stats["cache"]["hits"],
                "cache_misses": stats["cache"]["misses"],
                "cache_evictions": stats["cache"]["evictions"],
                "coalesced": stats["requests"]["coalesced"],
            }
            runs.append(run)
            print(
                f"shards={shards}: {elapsed:.3f} s -> {run['requests_per_second']:.1f} req/s "
                f"(hits={run['cache_hits']}, misses={run['cache_misses']}, "
                f"evictions={run['cache_evictions']})"
            )
        finally:
            if shards == shard_counts[-1]:
                top_router = router  # kept warm for the rebalance measurement
            else:
                router.close()

    baseline = runs[0]["seconds"]
    for run in runs:
        run["speedup_vs_1shard"] = baseline / run["seconds"]
    assert top_router is not None
    return (
        {
            "workload": {
                "algorithm": ALGORITHM,
                "size": size,
                "unique_problems": unique,
                "duplication_factor": duplication,
                "requests": requests,
                "batch_size": batch_size,
                "per_shard_cache_capacity": cache_capacity,
            },
            "runs": runs,
        },
        top_router,
    )


def run_rebalance(router: ShardRouter) -> dict:
    """Add one shard to the *warm* router; measure how many cached keys move."""
    shards_before = len(router.shard_ids)
    # Every cached key lives on the one shard that owns it; its placement is
    # what the rebalance measures.
    cached_keys = sorted(
        key for shard_keys in router.cache_keys().values() for key in shard_keys
    )
    before = {key: router.shard_for(key) for key in cached_keys}
    newcomer = router.add_shard()
    after = {key: router.shard_for(key) for key in cached_keys}
    moved = [key for key in cached_keys if before[key] != after[key]]
    moved_fraction = len(moved) / len(cached_keys) if cached_keys else 0.0
    all_to_newcomer = all(after[key] == newcomer for key in moved)

    # The same ring, measured on a large synthetic key population: the
    # cached-key number above is the deployment-sized sample of this.
    synthetic = [f"synthetic-{index:05d}" for index in range(2048)]
    ring_before = HashRing([f"shard-{i}" for i in range(shards_before)])
    placement_before = ring_before.placement(synthetic)
    ring_before.add_node(f"shard-{shards_before}")
    placement_after = ring_before.placement(synthetic)
    synthetic_moved = sum(
        1 for key in synthetic if placement_before[key] != placement_after[key]
    )

    ideal = 1.0 / (shards_before + 1)
    print(
        f"rebalance {shards_before}->{shards_before + 1} shards: "
        f"{len(moved)}/{len(cached_keys)} cached keys moved "
        f"({moved_fraction:.3f}; ideal {ideal:.3f}), all onto the new shard: "
        f"{all_to_newcomer}; synthetic 2048-key movement: "
        f"{synthetic_moved / len(synthetic):.3f}"
    )
    return {
        "shards_before": shards_before,
        "cached_keys": len(cached_keys),
        "moved_keys": len(moved),
        "moved_fraction": moved_fraction,
        "all_moves_to_new_shard": all_to_newcomer,
        "ideal_fraction": ideal,
        "synthetic_keys": len(synthetic),
        "synthetic_moved_fraction": synthetic_moved / len(synthetic),
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

    throughput, top_router = run_throughput(args.quick)
    try:
        rebalance = run_rebalance(top_router)
    finally:
        top_router.close()

    top_run = throughput["runs"][-1]
    # "~1/N": the cached-key population is deployment-sized (tens of keys),
    # so the acceptance bound is the 1/N envelope of the K/(N+1) ideal rather
    # than the ideal itself; the 2048-key measurement pins the tight value.
    movement_threshold = 1.0 / rebalance["shards_before"]
    acceptance = {
        "top_shards": top_run["shards"],
        "top_speedup_vs_1shard": top_run["speedup_vs_1shard"],
        "sharded_beats_single": top_run["speedup_vs_1shard"] > 1.0,
        "rebalance_moved_fraction": rebalance["moved_fraction"],
        "rebalance_threshold": movement_threshold,
        "rebalance_within_threshold": rebalance["moved_fraction"] <= movement_threshold,
        "rebalance_only_onto_new_shard": rebalance["all_moves_to_new_shard"],
    }

    payload = {
        "benchmark": "bench_sharding",
        "mode": "quick" if args.quick else "full",
        "provenance": runtime_provenance(),
        "throughput": throughput,
        "rebalance": rebalance,
        "acceptance": acceptance,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"acceptance: {top_run['shards']} shards {top_run['speedup_vs_1shard']:.2f}x "
        f"vs 1 shard (beats={acceptance['sharded_beats_single']}), rebalance moved "
        f"{rebalance['moved_fraction']:.3f} <= {movement_threshold:.3f} "
        f"({acceptance['rebalance_within_threshold']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
