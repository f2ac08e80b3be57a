"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.vector import numpy_available
from repro.serialization import load_problem, save_problem
from repro.workloads import credit_card_screening


@pytest.fixture
def problem_file(tmp_path):
    return str(save_problem(credit_card_screening(), tmp_path / "problem.json"))


class TestGenerate:
    def test_generates_a_loadable_problem(self, tmp_path, capsys):
        output = tmp_path / "generated.json"
        assert main(["generate", "--services", "5", "--seed", "3", "-o", str(output)]) == 0
        problem = load_problem(output)
        assert problem.size == 5
        assert "wrote" in capsys.readouterr().out

    def test_generation_is_seeded(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["generate", "--services", "6", "--seed", "9", "-o", str(first)])
        main(["generate", "--services", "6", "--seed", "9", "-o", str(second)])
        assert load_problem(first).costs == load_problem(second).costs


class TestOptimize:
    def test_human_readable_output(self, problem_file, capsys):
        assert main(["optimize", problem_file]) == 0
        output = capsys.readouterr().out
        assert "bottleneck" in output
        assert "branch_and_bound" in output

    def test_json_output(self, problem_file, capsys):
        assert main(["optimize", problem_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "branch_and_bound"
        assert payload["optimal"] is True
        assert len(payload["plan"]["stages"]) == 4

    def test_alternative_algorithm(self, problem_file, capsys):
        assert main(["optimize", problem_file, "--algorithm", "greedy_cheapest_cost", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "greedy_cheapest_cost"

    def test_unknown_kernel_rejected_by_argparse(self, problem_file, capsys):
        with pytest.raises(SystemExit):
            main(["optimize", problem_file, "--kernel", "simd"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.skipif(not numpy_available(), reason="the vector kernel requires numpy")
    def test_kernel_flag_selects_the_dp_kernel(self, problem_file, capsys):
        from repro.core.vector import set_default_kernel

        # Four services: ``auto`` would stay scalar, so only the flag makes it vector.
        try:
            argv = ["optimize", problem_file, "--algorithm", "dynamic_programming"]
            assert main(argv + ["--kernel", "vector", "--json"]) == 0
        finally:
            set_default_kernel(None)
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "dynamic_programming"
        assert payload["kernel"] == "vector"

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["optimize", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_defaults_to_the_optimal_plan(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--tuples", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuples_delivered"] >= 0
        assert payload["relative_error"] < 0.2

    def test_explicit_order(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--order", "3,2,1,0", "--tuples", "200"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_invalid_order_rejected(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--order", "0,1"]) == 2
        assert "permutation" in capsys.readouterr().err

    def test_non_numeric_order_rejected(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--order", "a,b,c,d"]) == 2
        assert "error" in capsys.readouterr().err


class TestPlan:
    def test_plan_reports_portfolio_answer(self, problem_file, capsys):
        assert main(["plan", problem_file, "--budget", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "portfolio" in output
        assert "plan:" in output

    def test_cached_repeats_hit_the_cache(self, problem_file, capsys):
        assert main(["plan", problem_file, "--cached", "--repeat", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        assert [entry["cache_hit"] for entry in payload] == [False, True, True]
        assert payload[1]["latency_seconds"] <= payload[0]["latency_seconds"]

    def test_uncached_repeats_stay_cold(self, problem_file, capsys):
        assert main(["plan", problem_file, "--repeat", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["cache_hit"] for entry in payload] == [False, False]

    def test_invalid_repeat_rejected(self, problem_file, capsys):
        assert main(["plan", problem_file, "--repeat", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestServe:
    def test_serve_binds_and_shuts_down(self, capsys, monkeypatch):
        import repro.cli as cli_module

        # Substitute the foreground wait with an immediate interrupt so the
        # command exercises its full startup/shutdown path.
        def fake_wait():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_wait_forever", fake_wait)
        assert main(["serve", "--port", "0", "--budget", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "listening on http://" in output
        assert "shutting down" in output

    def test_serve_routes_through_shards(self, capsys, monkeypatch):
        import repro.cli as cli_module
        import repro.serving as serving_module
        from repro.sharding import ShardRouter

        served = []
        real_serve_async = serving_module.serve_async

        def recording_serve_async(backend, **options):
            served.append(backend)
            return real_serve_async(backend, **options)

        def fake_wait():
            assert isinstance(served[0], ShardRouter)
            assert served[0].stats()["shards"] == 2
            raise KeyboardInterrupt

        monkeypatch.setattr(serving_module, "serve_async", recording_serve_async)
        monkeypatch.setattr(cli_module, "_wait_forever", fake_wait)
        assert (
            main(
                [
                    "serve",
                    "--port",
                    "0",
                    "--budget",
                    "0.2",
                    "--shards",
                    "2",
                    "--shard-backend",
                    "inproc",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "2 inproc shards" in output

    def test_serve_rejects_invalid_shards(self, capsys):
        assert main(["serve", "--port", "0", "--shards", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_async_binds_and_shuts_down(self, capsys, monkeypatch):
        import repro.cli as cli_module

        # ``--async`` stays accepted so command lines that pass it keep working.
        def fake_wait():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_wait_forever", fake_wait)
        assert main(["serve", "--port", "0", "--budget", "0.2", "--async"]) == 0
        output = capsys.readouterr().out
        assert "async front end" in output
        assert "shutting down" in output

    def test_serve_still_accepts_the_hidden_kernel_flag(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from repro.core.vector import set_default_kernel

        # ``--kernel`` now selects only a subset-DP member's kernel; it stays
        # accepted so command lines that pass it keep working.
        def fake_wait():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_wait_forever", fake_wait)
        try:
            assert main(["serve", "--port", "0", "--budget", "0.2", "--kernel", "scalar"]) == 0
        finally:
            set_default_kernel(None)
        output = capsys.readouterr().out
        assert "plan service (1 service) listening on http://" in output


def _descendants(root: int) -> set[int]:
    """Every live, non-zombie process below ``root``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, parent = stat[stat.rindex(")") + 2 :].split()[:2]
        if state != "Z":
            children.setdefault(int(parent), []).append(int(entry))
    found, frontier = set(), [root]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.add(child)
            frontier.append(child)
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="reads the process tree from /proc")
def test_sigterm_drains_the_server_and_reaps_its_shards():
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--shards", "2",
         "--shard-backend", "processes", "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    children: set[int] = set()
    try:
        assert "listening on http://" in server.stdout.readline()
        children = _descendants(server.pid)
        assert len(children) >= 2, "two shard processes run below the server"
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        assert "shutting down" in server.stdout.read()
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _alive(pid)], "a shard outlived its server"
    finally:
        for pid in [server.pid, *children]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        server.wait()
        server.stdout.close()


class TestScenariosAndExperiments:
    def test_list_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "credit-card-screening" in output
        assert "federated-document-pipeline" in output

    def test_optimize_named_scenario(self, capsys):
        assert main(["scenarios", "sensor-quality-pipeline"]) == 0
        assert "bottleneck" in capsys.readouterr().out

    def test_unknown_scenario(self, capsys):
        assert main(["scenarios", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_experiment_by_id(self, capsys, monkeypatch):
        # Replace E1 with a tiny-parameter variant so the CLI test stays fast.
        from repro.experiments import REGISTRY, Experiment
        from repro.experiments.e1_optimality import run_e1_optimality

        tiny = Experiment(
            "E1",
            "Optimality (tiny)",
            "tiny variant for the CLI test",
            lambda **kwargs: run_e1_optimality(sizes=(4,), instances_per_size=1),
        )
        monkeypatch.setitem(REGISTRY._experiments, "E1", tiny)
        assert main(["experiment", "e1"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("## E1")

    def test_unknown_experiment_id(self, capsys):
        assert main(["experiment", "E42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestBench:
    def test_runs_a_benchmark_module_and_writes_its_artifact(self, tmp_path, capsys):
        # A tiny stand-in module keeps this test fast and hermetic; the real
        # bench modules are smoke-run in CI through the same subcommand.
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_demo.py").write_text(
            "import json, pathlib\n"
            "def main(argv=None):\n"
            "    argv = list(argv or [])\n"
            "    out = pathlib.Path(argv[argv.index('-o') + 1])\n"
            "    out.write_text(json.dumps({'benchmark': 'demo'}))\n"
            "    print('wrote', out)\n"
            # No return: a main() falling off the end must count as success.
        )
        artifact = tmp_path / "out.json"
        assert (
            main(
                [
                    "bench",
                    "--benchmarks-dir",
                    str(bench_dir),
                    "demo",
                    "-o",
                    str(artifact),
                ]
            )
            == 0
        )
        assert json.loads(artifact.read_text()) == {"benchmark": "demo"}
        assert "wrote" in capsys.readouterr().out

    def test_unknown_benchmark_is_a_clean_error(self, tmp_path, capsys):
        assert main(["bench", "--benchmarks-dir", str(tmp_path), "nope"]) == 2
        assert "no benchmark module" in capsys.readouterr().err
