"""Command-line interface.

The CLI exposes the workflows a user of the library runs most often without
writing Python:

* ``repro generate``   — draw a random problem instance and save it as JSON,
* ``repro optimize``   — find the optimal (or a heuristic) ordering for a
  problem file and print the plan,
* ``repro simulate``   — execute a plan of a problem file in the
  discrete-event simulator and compare with the model,
* ``repro scenarios``  — list or optimize the named scenarios shipped with the
  library,
* ``repro experiment`` — run one of the reconstructed experiments E1–E8 and
  print its table,
* ``repro plan``       — answer plan requests through the serving subsystem
  (portfolio race under a latency budget, optionally cached),
* ``repro serve``      — run the long-running JSON/HTTP plan service,
* ``repro top``        — poll a running server's ``GET /metrics`` and render
  request and per-shard load,
* ``repro bench``      — run one of the repository's benchmark modules and
  write its JSON artifact,
* ``repro lint``       — run the repository's own static-analysis rules
  (concurrency, purity and wire-protocol invariants) over a source tree.

Every subcommand supports ``--json`` for machine-readable output where that is
meaningful.  The module is import-safe: ``main`` takes an ``argv`` list and
returns an exit code, which is what the tests drive.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import Sequence

from repro.core.optimizer import available_algorithms, optimize
from repro.exceptions import ReproError
from repro.experiments import REGISTRY
from repro.serialization import load_problem, result_to_dict, save_problem
from repro.simulation import SimulationConfig, simulate_plan
from repro.workloads import all_scenarios, default_spec, generate_problem
from repro.workloads.generator import WorkloadSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for documentation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal service ordering for decentralized pipelined queries "
        "(reproduction of Tsamoura et al., PODC 2010).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a random problem instance")
    generate.add_argument("--services", type=int, default=8, help="number of services")
    generate.add_argument("--seed", type=int, default=0, help="random seed")
    generate.add_argument("--output", "-o", required=True, help="output JSON file")

    optimize_cmd = subparsers.add_parser("optimize", help="optimize the service ordering of a problem file")
    optimize_cmd.add_argument("problem", help="problem JSON file (see 'repro generate')")
    optimize_cmd.add_argument(
        "--algorithm",
        default="branch_and_bound",
        choices=available_algorithms(),
        help="optimization algorithm",
    )
    optimize_cmd.add_argument("--json", action="store_true", help="print the result as JSON")
    optimize_cmd.add_argument(
        "--kernel",
        default=None,
        choices=("auto", "scalar", "vector"),
        help="kernel of the subset DP (--algorithm dynamic_programming): "
        "'vector' relaxes whole DP layers through numpy (install repro[fast]), "
        "'scalar' stays pure Python, 'auto' picks per instance (default)",
    )

    simulate = subparsers.add_parser("simulate", help="simulate a plan of a problem file")
    simulate.add_argument("problem", help="problem JSON file")
    simulate.add_argument(
        "--order",
        help="comma-separated service indices; defaults to the branch-and-bound optimum",
    )
    simulate.add_argument("--tuples", type=int, default=1000, help="number of source tuples")
    simulate.add_argument("--block-size", type=int, default=1, help="tuples per shipped block")
    simulate.add_argument("--json", action="store_true", help="print the report as JSON")

    scenarios = subparsers.add_parser("scenarios", help="list or optimize the named scenarios")
    scenarios.add_argument("name", nargs="?", help="scenario name (omit to list all)")

    experiment = subparsers.add_parser("experiment", help="run one reconstructed experiment (E1..E8)")
    experiment.add_argument("experiment_id", help="experiment id, e.g. E2")

    plan = subparsers.add_parser(
        "plan", help="answer plan requests through the serving subsystem (cache + portfolio)"
    )
    plan.add_argument("problem", help="problem JSON file (see 'repro generate')")
    plan.add_argument(
        "--cached",
        action="store_true",
        help="route repeated submissions through the fingerprint plan cache",
    )
    plan.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the problem this many times (with --cached, later ones hit the cache)",
    )
    plan.add_argument(
        "--budget",
        type=float,
        default=1.0,
        help="latency budget in seconds for the optimizer portfolio",
    )
    plan.add_argument("--json", action="store_true", help="print the responses as JSON")

    serve_cmd = subparsers.add_parser("serve", help="run the long-running JSON/HTTP plan service")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve_cmd.add_argument("--port", type=int, default=8080, help="TCP port to bind (0 = ephemeral)")
    # The asyncio front end is the only one; the flag that used to select it
    # is still accepted so existing command lines keep working.
    serve_cmd.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    serve_cmd.add_argument(
        "--graceful-timeout",
        type=float,
        default=5.0,
        help="seconds granted to in-flight requests when shutting down",
    )
    serve_cmd.add_argument(
        "--budget", type=float, default=1.0, help="latency budget in seconds per cache miss"
    )
    serve_cmd.add_argument(
        "--cache-capacity", type=int, default=1024, help="maximum number of cached plans"
    )
    serve_cmd.add_argument(
        "--ttl", type=float, default=300.0, help="cached plan lifetime in seconds (0 = no expiry)"
    )
    serve_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of PlanService shards behind a consistent-hash router "
        "(1 = a single unsharded service)",
    )
    serve_cmd.add_argument(
        "--shard-backend",
        default="processes",
        choices=("inproc", "processes"),
        help="where shards run: one OS process each (true multi-core serving) "
        "or all in this process",
    )
    serve_cmd.add_argument(
        "--mp-context",
        default=None,
        choices=("fork", "forkserver", "spawn"),
        help="multiprocessing start method of shard processes "
        "(forkserver/spawn avoid forking from a threaded service)",
    )
    serve_cmd.add_argument(
        "--observability",
        action="store_true",
        help="enable request tracing, the span store and the slow-request "
        "log (GET /metrics serves Prometheus text either way)",
    )
    serve_cmd.add_argument(
        "--slow-threshold",
        type=float,
        default=None,
        help="log requests slower than this many seconds to GET /slowlog "
        "(implies nothing by itself: combine with --observability)",
    )
    # Only a subset-DP member reads a kernel, and the served ladder has none;
    # the flag is still accepted so existing command lines keep working.
    serve_cmd.add_argument(
        "--kernel", default="auto", choices=("auto", "scalar", "vector"), help=argparse.SUPPRESS
    )

    top = subparsers.add_parser(
        "top", help="poll a running server's GET /metrics and render per-shard load"
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the running plan server (default: http://127.0.0.1:8080)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls (default: 2)"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="number of polls before exiting (0 = poll until interrupted)",
    )
    top.add_argument("--json", action="store_true", help="print each poll as a JSON document")

    bench = subparsers.add_parser(
        "bench", help="run a benchmark module (benchmarks/bench_<name>.py) and write its JSON"
    )
    bench.add_argument("name", help="benchmark name, e.g. 'optimizers' or 'parallel'")
    bench.add_argument(
        "--benchmarks-dir",
        default="benchmarks",
        help="directory holding the bench_*.py modules (default: ./benchmarks); "
        "must come before the benchmark name — everything after it is forwarded",
    )
    bench.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the benchmark module (e.g. --quick -o out.json)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repository's static-analysis rules (RL001..) over a source tree",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RLxxx",
        help="run only this rule (repeatable; also enables advisory rules like RL009)",
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=("text", "json"),
        help="report format (json is the schema CI consumes)",
    )
    lint.add_argument(
        "--baseline",
        default=".repro-lint-baseline.json",
        help="baseline file of grandfathered findings (default: .repro-lint-baseline.json)",
    )
    lint.add_argument(
        "--baseline-update",
        action="store_true",
        help="rewrite the baseline from this run's findings and exit 0",
    )

    report = subparsers.add_parser(
        "report", help="run every experiment and render the full evaluation report"
    )
    report.add_argument(
        "--full",
        action="store_true",
        help="use the full benchmark-scale parameters instead of the quick smoke-test scale",
    )
    report.add_argument("--output", "-o", help="write the markdown report to this file")

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    spec: WorkloadSpec = default_spec(args.services)
    problem = generate_problem(spec, seed=args.seed)
    path = save_problem(problem, args.output)
    print(f"wrote {problem.size}-service problem {problem.name!r} to {path}")
    return 0


def _command_optimize(args: argparse.Namespace) -> int:
    if args.kernel is not None:
        from repro.core.vector import set_default_kernel

        set_default_kernel(args.kernel)
    problem = load_problem(args.problem)
    result = optimize(problem, algorithm=args.algorithm)
    if args.json:
        print(json.dumps(result_to_dict(result), indent=2))
    else:
        print(problem.describe())
        print()
        print(result.plan.describe())
        print()
        print(result.describe())
    return 0


def _parse_order(text: str, size: int) -> list[int]:
    try:
        order = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ReproError(f"--order must be a comma-separated list of integers, got {text!r}") from None
    if sorted(order) != list(range(size)):
        raise ReproError(f"--order must be a permutation of 0..{size - 1}, got {order!r}")
    return order


def _command_simulate(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    if args.order:
        order = _parse_order(args.order, problem.size)
    else:
        order = list(optimize(problem, algorithm="branch_and_bound").order)
    report = simulate_plan(
        problem,
        order,
        SimulationConfig(tuple_count=args.tuples, block_size=args.block_size),
    )
    if args.json:
        payload = {
            "order": list(report.order),
            "predicted_cost": report.predicted_cost,
            "normalized_makespan": report.normalized_makespan,
            "relative_error": report.model_relative_error,
            "tuples_delivered": report.tuples_delivered,
            "makespan": report.makespan,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.describe())
        print()
        print(report.to_table().to_markdown())
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    from repro.serving import PlanService, PlanServiceConfig, response_to_dict

    if args.repeat < 1:
        raise ReproError(f"--repeat must be at least 1, got {args.repeat!r}")
    problem = load_problem(args.problem)
    config = PlanServiceConfig(
        budget_seconds=args.budget,
        cache_enabled=args.cached,
        stale_while_revalidate=args.cached,
    )
    with PlanService(config) as service:
        responses = [service.submit(problem) for _ in range(args.repeat)]
        if args.json:
            print(json.dumps([response_to_dict(response) for response in responses], indent=2))
        else:
            for index, response in enumerate(responses):
                source = "cache" if response.cache_hit else "portfolio"
                print(
                    f"request {index}: cost={response.cost:.6g} via {source} "
                    f"({response.algorithm}), latency={response.latency_seconds * 1e3:.2f} ms"
                )
            print()
            print(f"plan: {' -> '.join(responses[-1].service_names)}")
            cache_stats = service.stats()["cache"]
            print(f"cache hit rate: {cache_stats['hit_rate']:.0%}")
    return 0


def _wait_forever() -> None:  # pragma: no cover - interrupted, or patched in tests
    """Park the main thread behind a background server until Ctrl-C or SIGTERM."""
    threading.Event().wait()


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serving import PlanService, PlanServiceConfig, serve_async

    if args.shards < 1:
        raise ReproError(f"--shards must be at least 1, got {args.shards!r}")
    config = PlanServiceConfig(
        budget_seconds=args.budget,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.ttl if args.ttl > 0 else None,
        mp_context=args.mp_context,
        observability=args.observability,
        slow_request_seconds=args.slow_threshold,
        kernel=args.kernel,
    )
    if args.shards > 1:
        from repro.sharding import ShardRouter, ShardRouterConfig

        backend = ShardRouter(
            ShardRouterConfig(
                shards=args.shards,
                backend=args.shard_backend,
                service_config=config,
            )
        )
        topology = f"{args.shards} {args.shard_backend} shards"
    else:
        backend = PlanService(config)
        topology = "1 service"
    with backend as service:
        try:
            front_end = serve_async(service, host=args.host, port=args.port)
        except OSError as error:
            raise ReproError(
                f"cannot bind {args.host}:{args.port}: {error.strerror or error}"
            ) from error
        host, port = front_end.address
        # SIGTERM raises KeyboardInterrupt, as Ctrl-C does, so a terminated
        # server drains its front end and closes its shards.  The handler is
        # in place before the banner, so a client that signals as soon as it
        # reads the banner cannot kill the server undrained.
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            print(
                f"plan service ({topology}) listening on "
                f"http://{host}:{port} "
                f"(async front end; POST /plan, POST /plan/batch, GET /stats, GET /metrics)"
            )
            _wait_forever()  # the event loop serves on its own thread
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            signal.signal(signal.SIGTERM, previous)
            front_end.close(timeout=args.graceful_timeout)
    return 0


def _scrape_metrics(base_url: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Fetch and parse ``GET /metrics`` of a running plan server."""
    import urllib.error
    import urllib.request

    from repro.obs import parse_prometheus_text

    url = base_url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ReproError(f"cannot scrape {url}: {error}") from error
    return parse_prometheus_text(text)


def _top_snapshot(
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]],
) -> dict[str, object]:
    """Collapse one scrape into the figures ``repro top`` renders."""
    from repro.obs import labelled

    def total(name: str) -> float:
        return sum(samples.get(name, {}).values())

    return {
        # A shard router's /metrics carries routing + HTTP series only (the
        # per-service counters live in the shard processes); absence is
        # recorded so the renderer can skip the line instead of showing 0.
        "has_service_counters": "repro_requests_answered_total" in samples,
        "answered": total("repro_requests_answered_total"),
        "by_source": labelled(samples.get("repro_requests_answered_total", {}), "source"),
        "rejected": total("repro_requests_rejected_total"),
        "failed": total("repro_requests_failed_total"),
        "http_requests": total("repro_http_requests_total"),
        "by_shard": labelled(samples.get("repro_router_requests_total", {}), "shard"),
        "kernel_evaluations": labelled(
            samples.get("repro_kernel_evaluations_total", {}), "kind"
        ),
    }


def _render_top(
    snapshot: dict[str, object],
    previous: dict[str, object] | None,
    interval: float,
    url: str,
    poll: int,
) -> str:
    """One human-readable ``repro top`` frame."""

    def rate(now: float, label: str, table: str = "") -> str:
        if previous is None:
            return ""
        if table:
            before = previous.get(table, {}).get(label, 0.0)  # type: ignore[union-attr]
        else:
            before = previous.get(label, 0.0)  # type: ignore[arg-type]
        return f"  (+{max(0.0, now - before) / interval:.1f}/s)"

    sources = ", ".join(
        f"{name}={int(value)}" for name, value in sorted(snapshot["by_source"].items())
    )
    lines = [f"repro top — {url}  (poll {poll})"]
    if snapshot.get("has_service_counters", True):
        lines.append(
            f"  requests: answered={int(snapshot['answered'])}"
            + (f" [{sources}]" if sources else "")
            + f"  rejected={int(snapshot['rejected'])}  failed={int(snapshot['failed'])}"
            + rate(snapshot["answered"], "answered")
        )
    lines.append(
        f"  http: {int(snapshot['http_requests'])} served"
        + rate(snapshot["http_requests"], "http_requests")
    )
    by_shard = snapshot["by_shard"]
    if by_shard:
        lines.append("  shard load (requests routed):")
        width = max(len(shard) for shard in by_shard)
        for shard, count in sorted(by_shard.items()):
            lines.append(
                f"    {shard:<{width}}  {int(count)}" + rate(count, shard, "by_shard")
            )
    kernel = snapshot["kernel_evaluations"]
    if kernel:
        lines.append(
            "  kernel evaluations: "
            + ", ".join(f"{kind}={int(count)}" for kind, count in sorted(kernel.items()))
        )
    return "\n".join(lines)


def _command_top(args: argparse.Namespace) -> int:
    import time

    if args.interval <= 0:
        raise ReproError(f"--interval must be positive, got {args.interval!r}")
    if args.iterations < 0:
        raise ReproError(f"--iterations must be >= 0, got {args.iterations!r}")
    previous: dict[str, object] | None = None
    poll = 0
    try:
        while True:
            poll += 1
            snapshot = _top_snapshot(_scrape_metrics(args.url))
            if args.json:
                print(json.dumps({"poll": poll, **snapshot}, sort_keys=True))
            else:
                print(_render_top(snapshot, previous, args.interval, args.url, poll))
            previous = snapshot
            if args.iterations and poll >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    scenarios = all_scenarios()
    if not args.name:
        print("available scenarios:")
        for name, problem in scenarios.items():
            print(f"  {name} ({problem.size} services)")
        return 0
    if args.name not in scenarios:
        raise ReproError(f"unknown scenario {args.name!r}; available: {sorted(scenarios)}")
    problem = scenarios[args.name]
    result = optimize(problem, algorithm="branch_and_bound")
    print(problem.describe())
    print()
    print(result.plan.describe())
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    experiment_id = args.experiment_id.upper()
    result = REGISTRY.run(experiment_id)
    print(result.to_markdown())
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    import importlib.util
    from pathlib import Path

    name = args.name
    if not name.startswith("bench_"):
        name = f"bench_{name}"
    path = Path(args.benchmarks_dir) / f"{name}.py"
    if not path.is_file():
        available = sorted(p.stem for p in Path(args.benchmarks_dir).glob("bench_*.py"))
        raise ReproError(
            f"no benchmark module at {path}; available: {', '.join(available) or '(none)'}"
        )
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # Register the module and its directory so it behaves like a normal
    # import: benchmarks that spawn worker processes pickle module-level
    # functions, which needs the parent's sys.modules entry to match and the
    # child (which inherits sys.path) to be able to re-import it by name.
    sys.modules[name] = module
    parent_dir = str(path.resolve().parent)
    if parent_dir not in sys.path:
        sys.path.insert(0, parent_dir)
    spec.loader.exec_module(module)
    if not hasattr(module, "main"):
        raise ReproError(f"{path} does not expose a main(argv) entry point")
    forwarded = list(args.bench_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    code = module.main(forwarded)
    return 0 if code is None else int(code)


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import Baseline, run_lint
    from repro.analysis.checkers import all_checkers

    root = Path.cwd()
    paths = [Path(path) for path in args.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        raise ReproError(f"no such path(s): {', '.join(missing)}")
    baseline_path = Path(args.baseline)
    try:
        baseline = Baseline.load(baseline_path)
    except (ValueError, json.JSONDecodeError) as error:
        raise ReproError(str(error)) from error
    try:
        report = run_lint(
            paths,
            root=root,
            checkers=all_checkers(),
            rules=args.rules,
            baseline=baseline,
        )
    except ValueError as error:
        raise ReproError(str(error)) from error

    if args.baseline_update:
        # Everything the run surfaced (new findings plus still-firing baseline
        # entries, with their reasons preserved) becomes the new baseline.
        survivors = report.findings + [finding for finding, _ in report.baselined]
        updated = Baseline.updated_from(survivors, baseline)
        updated.save(baseline_path)
        print(
            f"wrote {len(updated)} baseline entrie(s) to {baseline_path} "
            f"({len(report.findings)} new — justify their reasons before committing)"
        )
        return 0

    if args.output_format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    unjustified = baseline.unjustified()
    for entry in unjustified:
        print(
            f"baseline entry without justification: {entry.rule} {entry.path}: "
            f"{entry.message}",
            file=sys.stderr,
        )
    return 1 if (report.failed or unjustified) else 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments import generate_report, write_report

    if args.output:
        path = write_report(REGISTRY, args.output, quick=not args.full)
        print(f"wrote evaluation report to {path}")
    else:
        print(generate_report(REGISTRY, quick=not args.full))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "generate": _command_generate,
        "optimize": _command_optimize,
        "simulate": _command_simulate,
        "scenarios": _command_scenarios,
        "experiment": _command_experiment,
        "plan": _command_plan,
        "serve": _command_serve,
        "top": _command_top,
        "bench": _command_bench,
        "lint": _command_lint,
        "report": _command_report,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
