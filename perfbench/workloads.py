"""The benchmark's traffic mixes, generated from the workload seed.

Every request body is a deterministic function of ``(seed, request index)``,
so two runs with one seed send the same bytes in the same order, and the
server only ever sees generated JSON.  Each workload says which server flags
it needs, what warms the server before timing, and the fixed open-loop rate.

* ``warm_n24`` re-sends 64 warmed n = 24 problems with their services
  re-indexed by a seeded permutation: every timed request is a cache hit, so
  the read path (front end, codec, both fingerprints, shard hop, cache lookup,
  drift check) does all the work and the portfolio does none.
* ``cold_mix`` sends never-seen problems with n cycling over the paper's sizes
  8..24: the portfolio, optimizers and kernel do almost all the work.
* ``churn_batch`` draws Zipf-popular n = 12 problems from a universe four times
  the tier's cache, under a short TTL, with one request in ten a
  ``POST /plan/batch`` of 8 with duplicates: the only mix that exercises
  misses, inserts, evictions, stale refresh and the batch fan-out together.
"""

from __future__ import annotations

import bisect
import json
import random
import threading
from dataclasses import dataclass
from itertools import accumulate

from repro.serialization import problem_to_dict
from repro.serving import PlanServiceConfig
from repro.workloads.generator import WorkloadSpec, generate_problem

COLD_SIZES = (8, 12, 16, 20, 24)
"""Problem sizes the cold mix cycles through (the paper's range)."""


@dataclass(frozen=True)
class Request:
    """One HTTP request of a workload and the problems its answer must solve."""

    path: str
    body: bytes
    problems: tuple[dict, ...]

    @property
    def size(self) -> int:
        """Services in the (first) problem of the request."""
        return len(self.problems[0]["services"])


def permute_document(document: dict, permutation: list[int]) -> dict:
    """The same problem with service ``permutation[k]`` moved to index ``k``."""
    position = {old: new for new, old in enumerate(permutation)}
    transfer = document["transfer"]
    sink = document.get("sink_transfer")
    return {
        **document,
        "services": [document["services"][old] for old in permutation],
        "transfer": [[transfer[a][b] for b in permutation] for a in permutation],
        "precedence": [
            [position[before], position[after]]
            for before, after in document.get("precedence") or []
        ],
        "sink_transfer": [sink[old] for old in permutation] if sink is not None else None,
    }


def plan_request(document: dict) -> Request:
    return Request("/plan", json.dumps(document).encode("utf-8"), (document,))


def batch_request(documents: list[dict]) -> Request:
    body = json.dumps({"problems": documents}).encode("utf-8")
    return Request("/plan/batch", body, tuple(documents))


def reindexed(document: dict, rng: random.Random) -> dict:
    permutation = list(range(len(document["services"])))
    rng.shuffle(permutation)
    return permute_document(document, permutation)


def generated_document(size: int, seed: int, family: str) -> dict:
    return problem_to_dict(generate_problem(WorkloadSpec(size, name=family), seed=seed))


class Workload:
    """A named traffic mix: warm-up requests plus an indexed request stream."""

    name: str
    why: str
    cache_capacity = 1024
    """Plans cached per shard (``--cache-capacity``; 1024 is the server default)."""
    ttl = 300.0
    """Cached plan lifetime in seconds (``--ttl``; 300 is the server default)."""
    kernel = "auto"
    """Evaluation kernel of the server's optimizers (``--kernel``; auto is the
    server default)."""
    open_rate: float
    """Open-loop arrival rate (requests per second), frozen at about a third
    of the closed-loop goodput measured when the benchmark was defined: at
    half, a host that slows by a third (CPU stolen by neighbours) already
    tips the two connections into a growing backlog."""
    closed_share: float
    """Share of the measured seconds spent in the closed loop; the open loop
    gets the rest.  Chosen so each phase collects enough samples for its
    highest percentile (ten beyond it) at the rates measured at definition,
    except that ``cold_mix`` gets about 800 closed-loop samples (eight beyond
    its p99) in the 30 s a run can afford; ``perfbench/out/`` records the
    counts of every run."""
    trace_requests: int
    """Requests replayed one at a time by the traced run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._requests: dict[int, Request] = {}
        self._lock = threading.Lock()

    @property
    def server_flags(self) -> tuple[str, ...]:
        return (
            "--cache-capacity", str(self.cache_capacity), "--ttl", str(self.ttl),
            "--kernel", self.kernel,
        )

    def service_config(self) -> PlanServiceConfig:
        """The shard configuration ``repro serve`` builds from :attr:`server_flags`."""
        return PlanServiceConfig(
            cache_capacity=self.cache_capacity, cache_ttl=self.ttl, kernel=self.kernel
        )

    def warm_requests(self) -> list[Request]:
        """Requests sent once after every server start, before timing."""
        raise NotImplementedError

    def _make(self, index: int) -> Request:
        raise NotImplementedError

    def request(self, index: int) -> Request:
        """Request number ``index`` of the timed stream (memoized)."""
        request = self._requests.get(index)
        if request is None:
            request = self._make(index)
            with self._lock:
                self._requests.setdefault(index, request)
        return request

    def prepare(self, count: int) -> None:
        """Build the first ``count`` requests so timing never pays for it."""
        for index in range(count):
            self.request(index)

    def _rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)


class WarmN24(Workload):
    name = "warm_n24"
    why = (
        "read path only: 64 warmed n=24 problems re-sent with services re-indexed, "
        "every request a cache hit; open loop at 80 req/s"
    )
    open_rate = 80.0
    closed_share = 0.5
    trace_requests = 200
    problems = 64
    pool = 512

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.documents = [
            generated_document(24, seed * 1000 + k, "warm") for k in range(self.problems)
        ]

    def warm_requests(self) -> list[Request]:
        return [plan_request(document) for document in self.documents]

    def request(self, index: int) -> Request:
        return super().request(index % self.pool)

    def _make(self, index: int) -> Request:
        document = self.documents[index % self.problems]
        return plan_request(reindexed(document, self._rng(index)))


class ColdMix(Workload):
    name = "cold_mix"
    why = (
        "optimizers only: every request a never-seen problem, n cycling 8..24, "
        "default ladder, 1 s budget, scalar kernel; open loop at 13 req/s"
    )
    open_rate = 13.0
    closed_share = 0.75
    kernel = "scalar"
    """The vector kernel fails a few per cent of these requests at random: racing
    portfolio members share one ``BatchEvaluator``'s single-slot workspaces
    (HTTP 500 ``WRITEBACKIFCOPY base is read-only``).  A run whose failures
    vary from run to run cannot be compared with another, so this mix runs the
    scalar kernel, which shares no workspace, until that race is fixed."""
    trace_requests = 40

    def warm_requests(self) -> list[Request]:
        return [plan_request(generated_document(n, self.seed, "warmup")) for n in COLD_SIZES]

    def _make(self, index: int) -> Request:
        size = COLD_SIZES[index % len(COLD_SIZES)]
        return plan_request(generated_document(size, self.seed * 1_000_000 + index, "cold"))


class ChurnBatch(Workload):
    name = "churn_batch"
    why = (
        "cache writes and batches: Zipf n=12 keys over 4x the tier cache, 5 s TTL, "
        "1 in 10 requests a POST /plan/batch of 8 with duplicates; open loop at 60 req/s"
    )
    cache_capacity = 48
    ttl = 5.0
    kernel = "scalar"
    """See :attr:`ColdMix.kernel`: the vector kernel's race fails misses here too."""
    universe = 384
    """Distinct problems: four times the tier's cache (2 shards x 48)."""
    zipf_exponent = 1.4
    """About one problem in eleven misses the cache at this skew."""
    batch_share = 0.1
    """Latency classes, fastest first: single hits (about 82 % of requests),
    batches of hits and single misses (about 14 %), batches with a miss
    (about 4 %).  The p50 falls well inside the first class and the p90 well
    inside the second, each where its class is dense, not on an edge between
    classes, where the class shares (which vary with the seed) would move it."""
    batch_size = 8
    batch_duplicates = 2
    open_rate = 60.0
    closed_share = 0.4
    trace_requests = 200
    pool = 2048

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.documents = [
            generated_document(12, seed * 1000 + k, "churn") for k in range(self.universe)
        ]
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(self.universe)]
        self._cumulative = list(accumulate(weights))

    def _popular(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)

    def warm_requests(self) -> list[Request]:
        return [plan_request(document) for document in self.documents[:64]]

    def request(self, index: int) -> Request:
        return super().request(index % self.pool)

    def _make(self, index: int) -> Request:
        rng = self._rng(index)
        if rng.random() >= self.batch_share:
            return plan_request(reindexed(self.documents[self._popular(rng)], rng))
        keys = [self._popular(rng) for _ in range(self.batch_size - self.batch_duplicates)]
        keys += rng.sample(keys, self.batch_duplicates)
        rng.shuffle(keys)
        return batch_request([reindexed(self.documents[key], rng) for key in keys])


WORKLOADS = {workload.name: workload for workload in (WarmN24, ColdMix, ChurnBatch)}
