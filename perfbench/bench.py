"""One measured run of one workload against the real deployment.

The untraced run (``--trace 0``) produces the end-to-end metrics:

1. **Set-up**, repeated :data:`SETUPS` times: spawn the server, wait for
   ``/healthz``, send the workload's warm-up requests.  ``setup_s`` is the
   median; every server but the last is stopped again at once, so each
   repetition also exercises the shutdown check.
2. **Closed loop** for the workload's share of ``--seconds`` on
   :data:`CONNECTIONS` keep-alive connections: goodput and latency.
3. **Open loop** for the rest, at the workload's fixed rate: latency from
   the moment each request was due.
4. **Stop** with SIGINT and check that no process of the tree survives.
5. **Check** every answer against the oracle; audit a seeded sample of
   cold answers against client-side optimizer runs.

``/stats`` is read before and after each phase, and CPU time and resident
memory of the server's process tree are sampled from ``/proc`` throughout.

The timing metrics come from the phases' quiet windows (see :class:`Windows`):
a virtual machine on a shared host loses CPU to other tenants now and then,
and a window that lost it measures the neighbours, not the server.  Each
run's details keep the same metrics over all windows too.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import threading
import time
from pathlib import Path

from repro.utils import runtime_provenance

from perfbench.check import audit_cold_answer, response_error
from perfbench.loadgen import Exchange, closed_loop, open_loop, send_all
from perfbench.server import Server, delta
from perfbench.workloads import ColdMix, Workload, WarmN24

CONNECTIONS = 2
"""Client connections, one per thread (the machine has 2 CPUs)."""

SETUPS = 3
"""Server starts per run; ``setup_s`` is their median."""

AUDITED_COLD_ANSWERS = 64
"""Cold answers re-solved client-side per run (a seeded sample)."""

WINDOW_SECONDS = 0.5
"""Sampling period of CPU, memory and host steal during a phase."""

QUIET_STEAL = 0.01
"""Share of the host's CPU ticks stolen by other tenants above which a window
is disturbed (``steal`` in ``/proc/stat``)."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "open_p50_ms": "ms",
    "open_p90_ms": "ms",
    "success_frac": "ratio",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def cpu_ticks() -> tuple[int, int]:
    """Host-wide (stolen, total) CPU ticks: how much a neighbour took."""
    first_line = Path("/proc/stat").read_text().split("\n", 1)[0]
    fields = [int(value) for value in first_line.split()[1:9]]
    return fields[7], sum(fields)


class Windows:
    """The sampling windows of one phase and which of them were quiet.

    Metrics count the requests that completed in quiet windows (selecting by
    completion, not by the whole interval a request ran, favours no request
    length).  When fewer than half the windows are quiet, the less disturbed
    half counts.
    """

    def __init__(self, samples: list[tuple[float, int, int, float]], quiet_steal: float) -> None:
        pairs = list(zip(samples, samples[1:]))
        self.starts = [a[0] for a, _ in pairs]
        self.ends = [b[0] for _, b in pairs]
        self.steal = [(b[1] - a[1]) / max(b[2] - a[2], 1) for a, b in pairs]
        self.cpu = [b[3] - a[3] for a, b in pairs]
        quiet = [share <= quiet_steal for share in self.steal]
        if 2 * sum(quiet) < len(quiet):
            cutoff = sorted(self.steal)[(len(self.steal) - 1) // 2]
            quiet = [share <= cutoff for share in self.steal]
        self.quiet = quiet

    def completed_quietly(self, moment: float) -> bool:
        index = bisect.bisect_right(self.starts, moment) - 1
        return 0 <= index and moment <= self.ends[index] and self.quiet[index]

    def quiet_seconds(self) -> float:
        return sum(e - s for s, e, q in zip(self.starts, self.ends, self.quiet) if q)

    def quiet_cpu(self) -> float:
        return sum(cpu for cpu, q in zip(self.cpu, self.quiet) if q)

    def summary(self) -> dict:
        return {
            "windows": len(self.quiet),
            "quiet_windows": sum(self.quiet),
            "stolen_cpu_share": statistics.fmean(self.steal) if self.steal else 0.0,
            "max_window_stolen_share": max(self.steal, default=0.0),
        }


def calibration_ms() -> float:
    """Best of 5 timings of a fixed pure-Python loop: how fast this machine ran."""
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        sum(i * i for i in range(200_000))
        timings.append((time.perf_counter() - started) * 1e3)
    return min(timings)


def provenance(root: Path, workload: Workload) -> dict:
    """Interpreter, machine, seed and source revision of this run."""
    commit = None
    if (root / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = result.stdout.strip() or None
    return {
        **runtime_provenance(),
        "cpu_count": os.cpu_count(),
        "workload": workload.name,
        "seed": workload.seed,
        "git_commit": commit,
        "calibration_ms": calibration_ms(),
    }


class Run:
    """Servers, counters and checks shared by the untraced and traced runs."""

    def __init__(self, root: Path, workload: Workload, out_dir: Path, label: str) -> None:
        self.root = root
        self.workload = workload
        self.out_dir = out_dir
        self.label = label
        self.servers: list[Server] = []
        self.leftovers: list[int] = []
        self.warm_errors: list[str] = []
        self.phases: dict[str, dict] = {}

    def start(self) -> tuple[Server, float]:
        """Spawn a server and warm it; returns it with the set-up seconds."""
        server = Server(
            self.root, self.workload.server_flags, self.out_dir / f"{self.label}.server.log"
        )
        self.servers.append(server)
        started = time.perf_counter()
        server.start()
        requests = self.workload.warm_requests()
        exchanges = send_all(server.address, requests, CONNECTIONS)
        elapsed = time.perf_counter() - started
        for exchange in exchanges:
            error = response_error(requests[exchange.index], exchange.status, exchange.body)
            if error is not None:
                self.warm_errors.append(error)
        return server, elapsed

    def stop(self, server: Server) -> None:
        self.leftovers += server.stop()

    def close(self) -> None:
        """Kill whatever is still running after an aborted run."""
        for server in self.servers:
            if server.process is not None and server.process.poll() is None:
                server.kill()

    def phase(self, server: Server, name: str, drive) -> tuple[list[Exchange], list]:
        """Run one load phase, recording its ``/stats`` delta, CPU and memory.

        Returns the exchanges and the phase's ``/proc`` samples (see
        :class:`Windows`).
        """
        # The tree is fixed while the server runs: scanning /proc for it costs
        # milliseconds of this process's interpreter lock, reading it does not.
        tree = server.sample_pids()
        samples: list[tuple[float, int, int, float]] = []
        peak_rss: list[float] = []

        def sample() -> None:
            samples.append((time.perf_counter(), *cpu_ticks(), server.cpu_seconds(tree)))
            peak_rss.append(server.rss_mb(tree))

        def sample_until_stopped() -> None:
            while not stop.wait(WINDOW_SECONDS):
                sample()

        stop = threading.Event()
        sampler = threading.Thread(target=sample_until_stopped, daemon=True)
        before = server.stats()
        # The client allocates no cycles while it drives load; a collection
        # pause here would be charged to the server's latency.
        gc.collect()
        gc.disable()
        sample()
        sampler.start()
        try:
            exchanges = drive(server.address)
        finally:
            gc.enable()
            stop.set()
            sampler.join()
        sample()
        windows = Windows(samples, QUIET_STEAL)
        self.phases[name] = {
            "seconds": samples[-1][0] - samples[0][0],
            "requests": len(exchanges),
            "cpu_seconds": samples[-1][3] - samples[0][3],
            "peak_rss_mb": max(peak_rss),
            **windows.summary(),
            "counters": delta(before, server.stats()),
        }
        return exchanges, samples

    def verdicts(self, exchanges: list[Exchange]) -> list[str | None]:
        """The check result of every exchange (``None`` = correct answer)."""
        return [
            response_error(self.workload.request(e.index), e.status, e.body) for e in exchanges
        ]

    def audit_cold(self, exchanges: list[Exchange], verdicts: list[str | None]) -> list[str]:
        """Re-solve a seeded sample of correct cold answers client-side."""
        if not isinstance(self.workload, ColdMix):
            return []
        good = [e for e, verdict in zip(exchanges, verdicts) if verdict is None]
        sample = random.Random(self.workload.seed).sample(
            good, min(AUDITED_COLD_ANSWERS, len(good))
        )
        errors = []
        for exchange in sample:
            request = self.workload.request(exchange.index)
            error = audit_cold_answer(request.problems[0], json.loads(exchange.body))
            if error is not None:
                errors.append(f"request {exchange.index}: {error}")
        return errors

    def invariant_errors(self) -> list[str]:
        """Program-level expectations of the workload, from the phase counters."""
        errors = [f"server process {pid} outlived SIGINT" for pid in self.leftovers]
        if isinstance(self.workload, WarmN24):
            for name, phase in self.phases.items():
                counters = phase["counters"]
                if counters["cache.misses"] or counters["cache.stale_hits"]:
                    errors.append(f"{name}: warm traffic missed the cache: {counters}")
        return errors


def run_timed(root: Path, workload: Workload, seconds: float, out_dir: Path) -> dict:
    """The untraced run: end-to-end metrics, every answer checked."""
    run = Run(root, workload, out_dir, f"{workload.name}-seed{workload.seed}-trace0")
    closed_seconds = seconds * workload.closed_share
    open_seconds = seconds - closed_seconds
    begin = time.perf_counter()
    timeline = {}
    workload.prepare(int(workload.open_rate * seconds * 3))
    timeline["prepared"] = time.perf_counter() - begin
    indices = itertools.count()
    setups = []
    try:
        for attempt in range(SETUPS):
            server, setup = run.start()
            setups.append(setup)
            if attempt < SETUPS - 1:
                run.stop(server)
        timeline["set_up"] = time.perf_counter() - begin
        closed, closed_samples = run.phase(
            server, "closed",
            lambda address: closed_loop(address, workload, indices, closed_seconds, CONNECTIONS),
        )
        opened, open_samples = run.phase(
            server, "open",
            lambda address: open_loop(
                address, workload, indices, workload.open_rate, open_seconds, CONNECTIONS
            ),
        )
        timeline["measured"] = time.perf_counter() - begin
        run.stop(server)
        timeline["stopped"] = time.perf_counter() - begin
    finally:
        run.close()

    closed_verdicts, open_verdicts = run.verdicts(closed), run.verdicts(opened)
    exchanges, verdicts = closed + opened, closed_verdicts + open_verdicts
    wrong = [v for e, v in zip(exchanges, verdicts) if v is not None and e.status == 200]
    audit = run.audit_cold(exchanges, verdicts)
    failed = sum(v is not None for v in verdicts) + len(audit)
    invariants = run.invariant_errors()
    timeline["checked"] = time.perf_counter() - begin
    def timing(quiet_steal: float) -> dict[str, float]:
        closed_windows = Windows(closed_samples, quiet_steal)
        open_windows = Windows(open_samples, quiet_steal)
        # Latency counts every request the server answered, whatever the
        # answer: a failure's cost is in success_frac, and the cold mix's
        # per-size latency classes would put a median over successes only
        # into a gap between them.
        closed_ms = [
            e.latency * 1e3 for e in closed if e.status and closed_windows.completed_quietly(e.done)
        ]
        open_ms = [
            e.latency * 1e3 for e in opened if e.status and open_windows.completed_quietly(e.done)
        ]
        good = sum(
            v is None and closed_windows.completed_quietly(e.done)
            for e, v in zip(closed, closed_verdicts)
        )
        answered = sum(e.status == 200 and closed_windows.completed_quietly(e.done) for e in closed)
        answered += sum(e.status == 200 and open_windows.completed_quietly(e.done) for e in opened)
        return {
            "goodput_rps": good / closed_windows.quiet_seconds(),
            "latency_p50_ms": percentile(closed_ms, 0.50),
            "latency_p99_ms": percentile(closed_ms, 0.99),
            "open_p50_ms": percentile(open_ms, 0.50),
            "open_p90_ms": percentile(open_ms, 0.90),
            "cpu_ms_per_req": (closed_windows.quiet_cpu() + open_windows.quiet_cpu())
            * 1e3 / max(answered, 1),
            "closed_samples": len(closed_ms),
            "open_samples": len(open_ms),
        }

    quiet, everything = timing(QUIET_STEAL), timing(math.inf)
    metrics = {
        "setup_s": statistics.median(setups),
        "goodput_rps": quiet["goodput_rps"],
        "latency_p50_ms": quiet["latency_p50_ms"],
        "latency_p99_ms": quiet["latency_p99_ms"],
        "open_p50_ms": quiet["open_p50_ms"],
        "open_p90_ms": quiet["open_p90_ms"],
        "success_frac": 1.0 - failed / len(exchanges),
        "cpu_ms_per_req": quiet["cpu_ms_per_req"],
        "rss_mb": max(phase["peak_rss_mb"] for phase in run.phases.values()),
    }
    by_size: dict[int, list[tuple[float, bool]]] = {}
    for exchange, verdict in zip(closed, closed_verdicts):
        if exchange.status:
            by_size.setdefault(workload.request(exchange.index).size, []).append(
                (exchange.latency * 1e3, verdict is None)
            )
    failures: dict[str, int] = {}
    for verdict in verdicts:
        if verdict is not None:
            key = verdict if verdict.startswith(("HTTP", "transport")) else "wrong answer"
            failures[key] = failures.get(key, 0) + 1
    details = {
        "provenance": provenance(root, workload),
        "settings": {
            "seconds": seconds,
            "connections": CONNECTIONS,
            "closed_seconds": closed_seconds,
            "open_seconds": open_seconds,
            "open_rate": workload.open_rate,
            "server_flags": list(workload.server_flags),
        },
        "setup_seconds": setups,
        "timeline_seconds": timeline,
        "phases": run.phases,
        "quiet_windows": quiet,
        "all_windows": everything,
        "closed_latency_by_size": {
            size: {
                "answered": len(samples),
                "ok": sum(ok for _, ok in samples),
                "p50_ms": percentile([ms for ms, _ in samples], 0.5),
            }
            for size, samples in sorted(by_size.items())
        },
        "failures": failures,
        "wrong_answers": wrong[:20],
        "cold_audit_errors": audit,
        "warmup_errors": run.warm_errors,
        "invariant_errors": invariants,
        "error_frac": failed / len(exchanges),
        "loadgen_lateness_p99_ms": percentile([e.lateness for e in opened], 0.99) * 1e3,
        "metrics": metrics,
    }
    (out_dir / f"{run.label}.json").write_text(json.dumps(details, indent=2) + "\n")
    return {
        "correct": not wrong and not audit and not invariants,
        "attempted": len(exchanges),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }
