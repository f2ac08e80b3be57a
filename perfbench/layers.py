"""The traced run: every layer timed from outside the program.

The program carries no tracing of its own here.  Instead this file records
spans (name, start, end, parent, request id) around calls into each layer's
public functions, by wrapping those functions in this process for the length
of one replay, and by timing the HTTP exchanges it sends itself.  The run:

1. serves the workload from the real deployment as the untraced run does
   (half as long), for the ``/stats`` counter ratios, the shard skew, the
   error share and the load generator's lateness;
2. sends ``trace_requests`` of the workload one at a time: ``frontend.rtt_us``,
   and each answer's ``latency_seconds``, the shard's own service time;
3. replays those requests in this process layer by layer: the codec and the
   router's fingerprint; cache hits through a :class:`PlanService` with the
   shards' configuration (service, fingerprint, cache lookup and drift spans)
   and through a process two-shard router (router and shard hop); the bare
   async front end over a backend that answers instantly (front-end self
   time);
4. times the size-dependent layers on seeded problems of every size the paper
   uses: fingerprint, portfolio race (with kernel evaluation counts) and each
   optimizer alone on one thread.

Per-request decomposition of the one-at-a-time requests (means over those
answered)::

    rtt = frontend.self + codec.json_loads + codec.from_dict
          + fingerprint (router) + ring.node_for + codec.to_wire + shard.hop
          + codec.from_wire + service + codec.response + unattributed

where ``service`` is the answer's ``latency_seconds`` (the shard's fingerprint,
cache lookup, drift check and, on a miss, portfolio race) and ``shard.hop``
is what a cache hit through the process router costs beyond its measured
parts.  Spans are written to ``perfbench/out/`` with self times.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import statistics
import threading
import time
from pathlib import Path

from repro.core.evaluation import disable_kernel_profiling, enable_kernel_profiling
from repro.core.optimizer import optimize
from repro.core.vector import set_default_kernel
from repro.serialization import problem_from_dict, problem_from_wire, problem_to_wire
from repro.serving import PlanResponse, PlanService
from repro.serving.aserver import serve_async
from repro.serving.cache import PlanCache
from repro.serving.fingerprint import fingerprint_problem
from repro.serving.http import response_from_dict, response_to_dict
from repro.serving import service as service_module
from repro.serving.portfolio import DEFAULT_PORTFOLIO, PortfolioOptimizer, PortfolioOptions
from repro.sharding import ShardRouter, ShardRouterConfig
from repro.sharding import process as process_module
from repro.sharding import router as router_module
from repro.sharding.ring import HashRing

from perfbench.bench import CONNECTIONS, Run, percentile, provenance
from perfbench.loadgen import closed_loop, open_loop, sequential
from perfbench.workloads import COLD_SIZES, Workload, generated_document, reindexed

PROBLEMS_PER_SIZE = 3
"""Seeded problems per size for the size-dependent layers."""

HIT_PROBLEMS = 16
"""Distinct problems of the workload replayed as cache hits (4 times each)."""

CODEC_PASSES = 5
"""Passes of the codec over the one-at-a-time requests."""

PER_LAYER_UNITS: dict[str, str] = {
    "frontend.rtt_us": "us",
    "frontend.self_us": "us",
    **{f"codec.{step}_us": "us" for step in
       ("json_loads", "from_dict", "to_wire", "from_wire", "response")},
    **{f"fingerprint.n{n}_us": "us" for n in COLD_SIZES},
    "router.submit_us": "us",
    "router.batch8_us": "us",
    "ring.node_for_us": "us",
    "router.shard_skew": "ratio",
    "shard.hop_us": "us",
    "service.hit_us": "us",
    "cache.get_us": "us",
    "cache.drift_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.stale_ratio": "ratio",
    "cache.evictions_per_kreq": "count",
    "cache.revalidations_per_kreq": "count",
    "service.coalesced_ratio": "ratio",
    "service.rejected": "count",
    **{f"portfolio.race_ms.n{n}": "ms" for n in COLD_SIZES},
    "portfolio.member_error_ratio": "ratio",
    "portfolio.timed_out_ratio": "ratio",
    "portfolio.improved_ratio": "ratio",
    **{f"optimize.{name}.n{n}_ms": "ms" for name in DEFAULT_PORTFOLIO for n in COLD_SIZES},
    **{f"kernel.evaluations.{kind}": "count" for kind in ("full", "bounded", "delta", "batch")},
    "loadgen.lateness_p99_ms": "ms",
    "error_frac": "ratio",
    "unattributed_us": "us",
}


class Tracer:
    """In-memory spans; a thread-local stack supplies each span's parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request if request is not None or parent is None else parent["request"],
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        except Exception as error:
            record["error"] = type(error).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def record(self, name: str, start: float, end: float, request: int) -> None:
        """A span timed elsewhere (an HTTP exchange seen by the client)."""
        with self._lock:
            self.spans.append({
                "id": next(self._ids), "name": name, "parent": None,
                "request": request, "start": start, "end": end,
            })

    @contextlib.contextmanager
    def wrapped(self, *targets: tuple[object, str, str]):
        """Wrap ``owner.attribute`` callables in spans named ``name`` while open."""
        originals = []
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, self._spanned(original, name))
        try:
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def _spanned(self, function, name: str):
        def call(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return call

    def finish(self) -> list[dict]:
        """Spans in start order, each with its self time (µs) filled in."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = children.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        for span in self.spans:
            duration = span["end"] - span["start"]
            span["duration_us"] = duration * 1e6
            span["self_us"] = (duration - children.get(span["id"], 0.0)) * 1e6
        return sorted(self.spans, key=lambda span: span["start"])

    def totals(self, name: str) -> dict[int, float]:
        """Summed duration (µs) of spans ``name`` per request id."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span["name"] == name and "error" not in span:
                totals[span["request"]] = totals.get(span["request"], 0.0) + (
                    span["end"] - span["start"]
                ) * 1e6
        return totals

    def durations(self, name: str, requests: set[int] | None = None) -> list[float]:
        """Durations (µs) of spans ``name``, optionally of some requests only."""
        return [
            (span["end"] - span["start"]) * 1e6
            for span in self.spans
            if span["name"] == name
            and "error" not in span
            and (requests is None or span["request"] in requests)
        ]

    def under(self, parent: dict) -> float:
        """Summed duration (µs) of the direct children of span ``parent``."""
        return sum(
            (span["end"] - span["start"]) * 1e6
            for span in self.spans
            if span["parent"] == parent["id"]
        )


class _InstantBackend:
    """Answers every plan request at once: isolates the async front end."""

    supports_async = True

    @staticmethod
    def _answer(problem) -> PlanResponse:
        order = tuple(range(problem.size))
        return PlanResponse(
            order=order,
            service_names=tuple(problem.service(i).name for i in order),
            cost=1.0, algorithm="instant", optimal=False, cache_hit=True, stale=False,
            fingerprint="instant", latency_seconds=0.0,
        )

    async def submit_async(self, problem, budget_seconds=None, timeout_seconds=None):
        return self._answer(problem)

    async def optimize_batch_async(self, problems, budget_seconds=None, timeout_seconds=None):
        return [self._answer(problem) for problem in problems]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _answers(exchange) -> list[dict]:
    document = json.loads(exchange.body)
    return document["responses"] if "responses" in document else [document]


def _serve_load(run: Run, workload: Workload, seconds: float, tracer: Tracer):
    """Steps 1-2 against the real deployment; returns (loaded, one-at-a-time)."""
    indices = itertools.count()
    closed_seconds = seconds * workload.closed_share
    server, _ = run.start()
    try:
        closed, _ = run.phase(server, "closed", lambda address: closed_loop(
            address, workload, indices, closed_seconds, CONNECTIONS))
        opened, _ = run.phase(server, "open", lambda address: open_loop(
            address, workload, indices, workload.open_rate, seconds - closed_seconds,
            CONNECTIONS))
        timed, _ = run.phase(server, "sequential", lambda address: sequential(
            address, workload, indices, workload.trace_requests))
        run.stop(server)
    finally:
        run.close()
    for exchange in closed + opened:
        tracer.record("loadgen.request", exchange.sent, exchange.done, exchange.index)
    for exchange in timed:
        tracer.record("http.request", exchange.sent, exchange.done, exchange.index)
    return closed + opened, opened, timed


def _load_metrics(run: Run, opened, verdicts) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name in ("closed", "open"):
        for counter, value in run.phases[name]["counters"].items():
            totals[counter] = totals.get(counter, 0) + value
    hits, stale = totals["cache.hits"], totals["cache.stale_hits"]
    lookups = hits + stale + totals["cache.misses"]
    answered = totals["requests.answered"]
    routed = [value for counter, value in totals.items() if counter.startswith("routing.")]
    return {
        "cache.hit_ratio": _ratio(hits + stale, lookups),
        "cache.stale_ratio": _ratio(stale, lookups),
        "cache.evictions_per_kreq": _ratio(totals["cache.evictions"] * 1e3, answered),
        "cache.revalidations_per_kreq": _ratio(totals["cache.revalidations"] * 1e3, answered),
        "service.coalesced_ratio": _ratio(totals["requests.coalesced"], answered),
        "service.rejected": totals["requests.rejected"],
        "router.shard_skew": _ratio(max(routed, default=0), statistics.fmean(routed or [0])),
        "error_frac": _ratio(sum(v is not None for v in verdicts), len(verdicts)),
        "loadgen.lateness_p99_ms": percentile([e.lateness for e in opened], 0.99) * 1e3,
    }


def _codec(workload: Workload, timed, tracer: Tracer) -> None:
    """Codec and router-fingerprint spans over the one-at-a-time requests."""
    answers = {
        e.index: [response_from_dict(a) for a in _answers(e)] for e in timed if e.status == 200
    }
    for _ in range(CODEC_PASSES):
        for exchange in timed:
            request = workload.request(exchange.index)
            batch = request.path == "/plan/batch"
            with tracer.span("codec.request", exchange.index):
                with tracer.span("codec.json_loads"):
                    document = json.loads(request.body)
                with tracer.span("codec.from_dict"):
                    problems = [
                        problem_from_dict(entry)
                        for entry in (document["problems"] if batch else [document])
                    ]
                with tracer.span("fingerprint"):
                    for problem in problems:
                        fingerprint_problem(problem)
                with tracer.span("codec.to_wire"):
                    payloads = [problem_to_wire(problem) for problem in problems]
                with tracer.span("codec.from_wire"):
                    for payload in payloads:
                        problem_from_wire(payload)
                responses = answers.get(exchange.index)
                if responses is not None:
                    with tracer.span("codec.response"):
                        out = [response_to_dict(response) for response in responses]
                        json.dumps({"responses": out} if batch else out[0]).encode("utf-8")


def _distinct_documents(workload: Workload, timed) -> list[dict]:
    documents, seen = [], set()
    for exchange in timed:
        for document in workload.request(exchange.index).problems:
            if document["name"] not in seen:
                seen.add(document["name"])
                documents.append(document)
    return documents[:HIT_PROBLEMS]


def _service_hits(workload: Workload, documents: list[dict], tracer: Tracer) -> set[int]:
    """Cache hits through one shard's service; returns the request ids that hit."""
    hits = set()
    rng = random.Random(workload.seed)
    with PlanService(workload.service_config()) as service:
        for document in documents:
            with contextlib.suppress(Exception):  # the server answers these with 500
                service.submit(problem_from_dict(document))
        with tracer.wrapped(
            (service_module, "fingerprint_problem", "fingerprint"),
            (PlanCache, "get", "cache.get"),
            (PlanCache, "needs_revalidation", "cache.drift"),
        ):
            for request_id in range(-1, -4 * len(documents) - 1, -1):
                problem = problem_from_dict(reindexed(documents[request_id % len(documents)], rng))
                with contextlib.suppress(Exception), tracer.span("service.submit", request_id):
                    if service.submit(problem).cache_hit:
                        hits.add(request_id)
    return hits


def _router_hits(router: ShardRouter, workload: Workload, documents, tracer: Tracer):
    """Cache hits through the process-shard router; returns hop samples (µs) by request."""
    for document in documents:
        with contextlib.suppress(Exception):  # the server answers these with 500
            router.submit(problem_from_dict(document))
    rng = random.Random(workload.seed + 1)
    hops, cached = {}, {}
    with tracer.wrapped(
        (router_module, "fingerprint_problem", "fingerprint"),
        (HashRing, "node_for", "ring.node_for"),
        (process_module, "problem_to_wire", "codec.to_wire"),
    ):
        for request_id in range(-1000, -1000 - 4 * len(documents), -1):
            document = documents[request_id % len(documents)]
            problem = problem_from_dict(reindexed(document, rng))
            payload = problem_to_wire(problem)
            started = time.perf_counter()
            problem_from_wire(payload)
            from_wire = (time.perf_counter() - started) * 1e6
            try:
                with tracer.span("router.submit", request_id) as span:
                    response = router.submit(problem)
            except Exception:  # noqa: BLE001 - an uncached problem hit the race
                continue
            if response.cache_hit:
                measured = tracer.under(span) + from_wire + response.latency_seconds * 1e6
                hops[request_id] = (span["end"] - span["start"]) * 1e6 - measured
                cached[document["name"]] = document
        # Only cached problems: a miss would time an optimization, not the router.
        batch = (list(cached.values()) * 8)[:8]
        for request_id in range(-5000, -5010, -1) if batch else ():
            problems = [problem_from_dict(reindexed(document, rng)) for document in batch]
            with contextlib.suppress(Exception), tracer.span("router.batch8", request_id):
                router.optimize_batch(problems)
    return hops


def _front_end(workload: Workload, timed, tracer: Tracer) -> None:
    """The same requests through the async front end over an instant backend."""
    indices = iter([exchange.index for exchange in timed])
    handle = serve_async(_InstantBackend(), port=0)
    try:
        for exchange in sequential(handle.address, workload, indices, len(timed)):
            tracer.record("frontend.instant", exchange.sent, exchange.done, exchange.index)
    finally:
        handle.close()


def _sized_layers(workload: Workload, tracer: Tracer) -> dict[str, float]:
    """Fingerprint, portfolio race and optimizers alone at every paper size."""
    metrics: dict[str, float] = {}
    set_default_kernel(None if workload.kernel == "auto" else workload.kernel)  # as the shards
    documents = {
        size: [generated_document(size, workload.seed * 100 + k, "sized") for k in range(PROBLEMS_PER_SIZE)]
        for size in COLD_SIZES
    }
    for size, sized in documents.items():
        samples = []
        for document in sized:
            problem = problem_from_dict(document)
            for _ in range(10):
                started = time.perf_counter()
                fingerprint_problem(problem)
                samples.append((time.perf_counter() - started) * 1e6)
        metrics[f"fingerprint.n{size}_us"] = statistics.median(samples)

    members = errors = timed_out = improved = races = 0
    evaluations = dict.fromkeys(("full", "bounded", "delta", "batch"), 0)
    portfolio = PortfolioOptimizer(PortfolioOptions())
    profile = enable_kernel_profiling()
    try:
        for size, sized in documents.items():
            race_ms = []
            for k, document in enumerate(sized):
                problem = problem_from_dict(document)
                before = profile.counts()
                with tracer.span("portfolio.race", -10_000 - size * 10 - k) as span:
                    try:
                        race = portfolio.optimize(problem)
                    except Exception:  # noqa: BLE001 - a member crashed the whole race
                        race = None
                race_ms.append((span["end"] - span["start"]) * 1e3)
                for kind, count in profile.counts().items():
                    evaluations[kind] += count - before[kind]
                races += 1
                members += len(DEFAULT_PORTFOLIO)
                if race is None:
                    errors += 1
                    continue
                errors += len(race.errors)
                timed_out += len(race.timed_out)
                seed = race.results.get(DEFAULT_PORTFOLIO[0])
                improved += seed is not None and race.best.cost < seed.cost
            metrics[f"portfolio.race_ms.n{size}"] = statistics.median(race_ms)
    finally:
        portfolio.close()
        disable_kernel_profiling()
    metrics["portfolio.member_error_ratio"] = errors / members
    metrics["portfolio.timed_out_ratio"] = timed_out / members
    metrics["portfolio.improved_ratio"] = improved / races
    for kind, count in evaluations.items():
        metrics[f"kernel.evaluations.{kind}"] = count / races

    for size, sized in documents.items():
        for name in DEFAULT_PORTFOLIO:
            runs = []
            for document in sized:
                problem = problem_from_dict(document)  # fresh: no warm evaluator
                started = time.perf_counter()
                optimize(problem, algorithm=name)
                runs.append((time.perf_counter() - started) * 1e3)
            metrics[f"optimize.{name}.n{size}_ms"] = statistics.median(runs)
    return metrics


def _service_seconds(answers: list[dict], ring: HashRing) -> float:
    """The shards' own service time for one request, from its answers.

    A batch is split per shard and the shards work in parallel, so the
    request waits for the slowest shard; duplicates that rode on another
    member's optimization (``coalesced``) cost nothing extra.
    """
    per_shard: dict[str, float] = {}
    for answer in answers:
        if not answer.get("coalesced"):
            shard = ring.node_for(answer["fingerprint"])
            per_shard[shard] = per_shard.get(shard, 0.0) + answer["latency_seconds"]
    return max(per_shard.values(), default=0.0)


def run_traced(root: Path, workload: Workload, seconds: float, out_dir: Path) -> dict:
    """The traced run: per-layer metrics for ``workload``."""
    label = f"{workload.name}-seed{workload.seed}-trace1"
    run = Run(root, workload, out_dir, label)
    tracer = Tracer()
    workload.prepare(int(workload.open_rate * seconds * 3))
    loaded, opened, timed = _serve_load(run, workload, seconds / 2, tracer)
    exchanges = loaded + timed
    verdicts = run.verdicts(exchanges)
    metrics = _load_metrics(run, opened, verdicts)
    answered = [e for e, v in zip(timed, verdicts[len(loaded):]) if v is None]

    documents = _distinct_documents(workload, timed)
    # Process shards fork from this process: start them while it is still
    # single-threaded, before any in-process service spins up its pools.
    with ShardRouter(ShardRouterConfig(
        shards=2, backend="processes", service_config=workload.service_config()
    )) as router:
        ring = HashRing()
        for shard_id in router.shard_ids:
            ring.add_node(shard_id)
        _codec(workload, timed, tracer)
        hits = _service_hits(workload, documents, tracer)
        hops = _router_hits(router, workload, documents, tracer)
    _front_end(workload, timed, tracer)
    metrics.update(_sized_layers(workload, tracer))
    spans = tracer.finish()

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    codec = {
        step: {r: total / CODEC_PASSES for r, total in tracer.totals(f"codec.{step}").items()}
        for step in ("json_loads", "from_dict", "to_wire", "from_wire", "response")
    }
    router_fingerprint = {r: t / CODEC_PASSES for r, t in tracer.totals("fingerprint").items()}
    replayed = [exchange.index for exchange in timed]
    for step, values in codec.items():
        metrics[f"codec.{step}_us"] = mean(values[r] for r in replayed if r in values)
    instant = tracer.totals("frontend.instant")
    frontend_self = mean(
        instant[r] - codec["json_loads"][r] - codec["from_dict"][r] - codec["response"][r]
        for r in replayed if r in codec["response"]
    )
    node_for = mean(tracer.durations("ring.node_for"))
    hop = mean(hops.values())
    residuals = []
    for exchange in answered:
        r = exchange.index
        accounted = (
            frontend_self + codec["json_loads"][r] + codec["from_dict"][r]
            + router_fingerprint[r] + node_for + codec["to_wire"][r] + hop
            + codec["from_wire"][r] + _service_seconds(_answers(exchange), ring) * 1e6
            + codec["response"][r]
        )
        residuals.append((exchange.done - exchange.sent) * 1e6 - accounted)
    metrics.update({
        "frontend.rtt_us": mean((e.done - e.sent) * 1e6 for e in answered),
        "frontend.self_us": frontend_self,
        "router.submit_us": mean(tracer.durations("router.submit", set(hops))),
        "router.batch8_us": mean(tracer.durations("router.batch8")),
        "ring.node_for_us": node_for,
        "shard.hop_us": hop,
        "service.hit_us": mean(tracer.durations("service.submit", hits)),
        "cache.get_us": mean(tracer.durations("cache.get", hits)),
        "cache.drift_us": mean(tracer.durations("cache.drift", hits)),
        "unattributed_us": mean(residuals),
    })
    invariants = run.invariant_errors()
    details = {
        "provenance": provenance(root, workload),
        "phases": run.phases,
        "decomposed_requests": len(residuals),
        "service_hits": len(hits),
        "router_hits": len(hops),
        "warmup_errors": run.warm_errors,
        "invariant_errors": invariants,
        "metrics": metrics,
    }
    (out_dir / f"{label}.json").write_text(json.dumps(details, indent=2) + "\n")
    (out_dir / f"{label}.spans.json").write_text(json.dumps(spans) + "\n")
    wrong = [v for e, v in zip(exchanges, verdicts) if v is not None and e.status == 200]
    return {
        "correct": not wrong and not invariants,
        "attempted": len(exchanges),
        "failed": sum(v is not None for v in verdicts),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        },
    }
