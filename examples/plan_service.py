"""Serving plans from a long-running service: cache, portfolio and HTTP.

The one-shot pipeline (build a problem, optimize, print) does not amortize
anything: every structurally identical request pays the full optimization
again.  This example walks through the serving subsystem that fixes that:

1. a :class:`~repro.serving.service.PlanService` answers a mixed stream of
   requests, optimizing cold misses with a deadline-budgeted portfolio
   (greedy anytime seed, then branch-and-bound's proof, with beam search
   only when the proof does not finish in time) and
   answering repeats from the fingerprint cache,
2. the fingerprint is permutation-invariant, so the *same* problem with its
   services listed in a different order still hits the cache — the cached
   plan is translated through canonical positions back into the caller's
   indices, and
3. the same service is then put behind the stdlib JSON/HTTP endpoint and
   queried over a real socket.

Run with ``PYTHONPATH=src python examples/plan_service.py``.
"""

from __future__ import annotations

import json
import urllib.request

from repro.core import CommunicationCostMatrix, OrderingProblem
from repro.serialization import problem_to_dict
from repro.serving import PlanService, PlanServiceConfig, serve_async
from repro.workloads import credit_card_screening, default_spec, generate_problem


def permuted_copy(problem: OrderingProblem) -> OrderingProblem:
    """The same problem with its services listed in reverse index order."""
    permutation = list(range(problem.size))[::-1]
    rows = [
        [problem.transfer_cost(permutation[i], permutation[j]) for j in range(problem.size)]
        for i in range(problem.size)
    ]
    sink = (
        [problem.sink_cost(index) for index in permutation]
        if problem.sink_transfer is not None
        else None
    )
    return OrderingProblem(
        [problem.service(index) for index in permutation],
        CommunicationCostMatrix(rows),
        sink_transfer=sink,
        name=f"{problem.name}-permuted",
    )


def main() -> None:
    """Demonstrate the plan service end to end."""
    config = PlanServiceConfig(budget_seconds=0.5, cache_ttl=300.0)
    with PlanService(config) as service:
        print("== mixed request stream ==")
        problems = [credit_card_screening()] + [
            generate_problem(default_spec(8), seed=seed) for seed in range(3)
        ]
        for round_number in range(2):
            for problem in problems:
                response = service.submit(problem)
                source = "cache " if response.cache_hit else "portfolio"
                print(
                    f"round {round_number} {problem.name or 'instance':>24}: "
                    f"cost={response.cost:8.4f} via {source} "
                    f"[{response.latency_seconds * 1e3:7.3f} ms]"
                )

        print("\n== permutation-invariant cache hits ==")
        original = problems[1]
        shuffled = permuted_copy(original)
        response = service.submit(shuffled)
        print(f"permuted resubmission: cache_hit={response.cache_hit}")
        print(f"plan (names): {' -> '.join(response.service_names)}")
        shuffled.validate_plan(response.order)

        stats = service.stats()
        print(f"\ncache hit rate: {stats['cache']['hit_rate']:.1%}")
        print(f"cold p50 latency: {stats['requests']['latency']['cold']['p50'] * 1e3:.2f} ms")
        print(f"hit  p50 latency: {stats['requests']['latency']['hit']['p50'] * 1e3:.2f} ms")

        print("\n== the same service over HTTP ==")
        with serve_async(service, host="127.0.0.1", port=0) as server:
            host, port = server.address
            body = json.dumps(problem_to_dict(problems[0])).encode("utf-8")
            request = urllib.request.Request(
                f"http://{host}:{port}/plan",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as raw:
                payload = json.loads(raw.read().decode("utf-8"))
            print(
                f"POST /plan -> cost={payload['cost']:.4f}, "
                f"cache_hit={payload['cache_hit']}, algorithm={payload['algorithm']}"
            )
            with urllib.request.urlopen(f"http://{host}:{port}/stats", timeout=30) as raw:
                remote_stats = json.loads(raw.read().decode("utf-8"))
            print(f"GET /stats -> answered={remote_stats['requests']['answered']}")


if __name__ == "__main__":
    main()
