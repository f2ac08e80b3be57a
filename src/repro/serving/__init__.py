"""Plan-serving subsystem: fingerprint cache + optimizer portfolio + service.

The one-shot pipeline (build a problem, run an optimizer, print the plan)
becomes a long-running service here:

* :mod:`repro.serving.fingerprint` — canonical, permutation-invariant hashing
  of :class:`~repro.core.problem.OrderingProblem` instances,
* :mod:`repro.serving.cache` — thread-safe LRU + TTL plan cache with
  stale-while-revalidate and drift-based refresh,
* :mod:`repro.serving.store` — the pluggable storage backends behind the
  cache (:class:`LocalStore` in-proc, :class:`SharedStore` file-backed and
  shareable across shard processes),
* :mod:`repro.serving.portfolio` — deadline-budgeted races over the algorithm
  registry (greedy anytime seed, refined by beam search / branch-and-bound)
  that end at the first proof of optimality or the deadline,
* :mod:`repro.serving.service` — the :class:`PlanService` façade with
  admission control, single-flight miss coalescing and batch optimization,
* :mod:`repro.serving.metrics` — per-request latency and quality metrics,
* :mod:`repro.serving.http` — the JSON/HTTP contract: routes, status
  mapping and the answer's wire form, in one request core,
* :mod:`repro.serving.aserver` — the :mod:`asyncio` front end serving those
  routes from one event loop: slow clients cost sockets, not threads.

Quickstart
----------
>>> from repro.serving import PlanService, PlanServiceConfig
>>> from repro.workloads import credit_card_screening
>>> service = PlanService(PlanServiceConfig(budget_seconds=0.5))
>>> first = service.submit(credit_card_screening())
>>> second = service.submit(credit_card_screening())
>>> first.cache_hit, second.cache_hit
(False, True)
>>> second.cost <= first.cost + 1e-9
True
"""

from repro.serving.aserver import AsyncPlanServer, AsyncServerHandle, serve_async
from repro.serving.cache import CachedPlan, CacheLookup, CacheStats, PlanCache, SingleFlight
from repro.serving.fingerprint import (
    DEFAULT_PRECISION,
    ProblemFingerprint,
    fingerprint_problem,
    quantize,
)
from repro.serving.http import (
    MAX_BODY_BYTES,
    dispatch_request,
    response_from_dict,
    response_to_dict,
)
from repro.serving.metrics import LatencySummary, ServingMetrics
from repro.serving.portfolio import (
    DEFAULT_PORTFOLIO,
    PortfolioOptimizer,
    PortfolioOptions,
    PortfolioResult,
    run_portfolio,
)
from repro.serving.service import PlanResponse, PlanService, PlanServiceConfig
from repro.serving.store import CacheStore, LocalStore, SharedStore

__all__ = [
    "DEFAULT_PORTFOLIO",
    "DEFAULT_PRECISION",
    "MAX_BODY_BYTES",
    "AsyncPlanServer",
    "AsyncServerHandle",
    "CacheLookup",
    "CacheStats",
    "CacheStore",
    "CachedPlan",
    "LatencySummary",
    "LocalStore",
    "PlanCache",
    "PlanResponse",
    "PlanService",
    "PlanServiceConfig",
    "PortfolioOptimizer",
    "PortfolioOptions",
    "PortfolioResult",
    "ProblemFingerprint",
    "ServingMetrics",
    "SharedStore",
    "SingleFlight",
    "dispatch_request",
    "fingerprint_problem",
    "quantize",
    "response_from_dict",
    "response_to_dict",
    "run_portfolio",
    "serve_async",
]
