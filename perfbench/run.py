"""End-to-end serving benchmark of the plan service.

Starts the real deployment (``repro serve --async --shards 2 --shard-backend
processes``) from the source tree next to this directory, drives one named
workload over HTTP from this process, checks every answer, and prints one
JSON line of metrics last::

    python3 perfbench/run.py --workload warm_n24 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
again and times every layer from outside (see ``perfbench/layers.py``),
printing the per-layer metrics.  Per-run details (provenance, per-phase
``/stats`` deltas, failures, spans) are written to ``perfbench/out/``.
The workloads are described in ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_timed
    from perfbench.layers import run_traced
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        run = run_traced if args.trace else run_timed
        result = run(ROOT, workload, args.seconds, out_dir)
    except Exception:  # noqa: BLE001 - report, exit non-zero, print no result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
