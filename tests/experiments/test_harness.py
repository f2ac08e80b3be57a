"""Unit tests for the experiment harness."""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.core import optimize
from repro.exceptions import ExperimentError, OptimizationError, ParallelError
from repro.experiments import (
    Experiment,
    ExperimentRegistry,
    ExperimentResult,
    optimize_suite,
    run_e1_optimality,
    run_e4_plan_quality,
)
from repro.experiments import harness
from repro.utils import Table
from repro.workloads import default_spec, generate_suite


def _dummy_result(experiment_id: str = "EX", rows: int = 2) -> ExperimentResult:
    table = Table(["n", "value"], title="dummy")
    for index in range(rows):
        table.add_row(index, index * 0.5)
    return ExperimentResult(
        experiment_id=experiment_id,
        title="a dummy experiment",
        table=table,
        parameters={"rows": rows},
        notes=["a note"],
    )


class TestExperimentResult:
    def test_to_markdown_contains_all_sections(self):
        text = _dummy_result().to_markdown()
        assert text.startswith("## EX")
        assert "*Parameters:* rows=2" in text
        assert "| n" in text
        assert "* a note" in text

    def test_row_dicts(self):
        result = _dummy_result(rows=3)
        assert result.row_dicts()[1] == {"n": 1, "value": 0.5}


class TestExperimentRegistry:
    def test_register_and_run(self):
        registry = ExperimentRegistry()
        registry.register(Experiment("EX", "t", "q", lambda **kw: _dummy_result(rows=kw.get("rows", 2))))
        assert "EX" in registry
        assert registry.ids() == ["EX"]
        result = registry.run("EX", rows=4)
        assert len(result.table) == 4

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        experiment = Experiment("EX", "t", "q", lambda **kw: _dummy_result())
        registry.register(experiment)
        with pytest.raises(ExperimentError):
            registry.register(experiment)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            ExperimentRegistry().run("E404")

    def test_run_all_with_overrides(self):
        registry = ExperimentRegistry()
        registry.register(Experiment("A", "t", "q", lambda **kw: _dummy_result("A", kw.get("rows", 1))))
        registry.register(Experiment("B", "t", "q", lambda **kw: _dummy_result("B", kw.get("rows", 1))))
        results = registry.run_all(A={"rows": 3})
        assert [result.experiment_id for result in results] == ["A", "B"]
        assert len(results[0].table) == 3
        assert len(results[1].table) == 1


def _e1_suite(size: int) -> list:
    """The suite E1 draws for ``size`` at its default seed."""
    return generate_suite(default_spec(size), 5, seed=101 + size)


def _constrained_suite() -> list:
    return generate_suite(replace(default_spec(6), precedence_density=0.3), 4, seed=7)


def _die(payload, algorithm, options):
    """A worker task that kills its process, as a crash would."""
    os._exit(1)


class TestOptimizeSuite:
    @pytest.mark.parametrize("algorithm", ["exhaustive", "branch_and_bound", "dynamic_programming"])
    @pytest.mark.parametrize("size", [4, 6, 8])
    def test_two_workers_equal_sequential_on_e1_suites(self, algorithm, size):
        problems = _e1_suite(size)
        sequential = [optimize(problem, algorithm=algorithm) for problem in problems]
        for results in (
            optimize_suite(problems, algorithm),
            optimize_suite(problems, algorithm, workers=2),
        ):
            assert [r.order for r in results] == [r.order for r in sequential]
            assert [r.cost for r in results] == [r.cost for r in sequential]  # == on floats
            assert [r.optimal for r in results] == [r.optimal for r in sequential]
            assert [r.algorithm for r in results] == [algorithm] * len(problems)

    @pytest.mark.parametrize("algorithm", ["branch_and_bound", "greedy_min_term"])
    def test_two_workers_equal_sequential_under_precedence(self, algorithm):
        problems = _constrained_suite()
        assert all(problem.precedence is not None for problem in problems)
        sequential = [optimize(problem, algorithm=algorithm) for problem in problems]
        pooled = optimize_suite(problems, algorithm, workers=2)
        assert [r.order for r in pooled] == [r.order for r in sequential]
        assert [r.cost for r in pooled] == [r.cost for r in sequential]
        assert [r.optimal for r in pooled] == [r.optimal for r in sequential]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_results_attach_to_the_submitted_instances(self, workers, make_random_problem):
        problems = [make_random_problem(5, seed) for seed in range(3)]
        twins = [make_random_problem(5, seed) for seed in range(3)]
        results = optimize_suite(problems + twins, "branch_and_bound", workers=workers)
        for problem, result in zip(problems + twins, results):
            assert result.plan.problem is problem
            problem.validate_plan(result.order)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_structural_twins_are_optimized_once(self, workers, make_random_problem, monkeypatch):
        calls = []
        solve = harness._solve

        def counting_solve(payload, algorithm, options):
            calls.append(payload)
            return solve(payload, algorithm, options)

        if workers is None:
            monkeypatch.setattr(harness, "_solve", counting_solve)
        problems = [make_random_problem(5, seed) for seed in range(3)] * 4
        results = optimize_suite(problems, "branch_and_bound", workers=workers)
        assert len(results) == 12
        if workers is None:
            assert len(calls) == 3
        for index, result in enumerate(results):
            # One search per twin group: identical counters, timing included,
            # each result holding its own copy.
            assert result.statistics == results[index % 3].statistics
            assert index < 3 or result.statistics is not results[index % 3].statistics

    @pytest.mark.parametrize("workers", [None, 2])
    def test_options_are_forwarded(self, workers, make_random_problem):
        problems = [make_random_problem(7, seed) for seed in range(3)]
        results = optimize_suite(problems, "beam_search", workers=workers, width=1)
        expected = [optimize(problem, "beam_search", width=1) for problem in problems]
        assert [r.order for r in results] == [r.order for r in expected]
        assert [r.statistics.nodes_expanded for r in results] == [
            r.statistics.nodes_expanded for r in expected
        ]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_a_failing_member_names_its_position(self, workers, make_random_problem):
        problems = [make_random_problem(4, 0), make_random_problem(5, 1), make_random_problem(6, 2)]
        with pytest.raises(OptimizationError, match="problem 1"):
            optimize_suite(problems, "exhaustive", workers=workers, max_size=4)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_rejected_options_name_the_first_position(self, workers, make_random_problem):
        problems = [make_random_problem(4, seed) for seed in range(2)]
        with pytest.raises(OptimizationError, match="problem 0.*TypeError"):
            optimize_suite(problems, "greedy_min_term", workers=workers, no_such_option=1)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_empty_suite(self, workers):
        assert optimize_suite([], workers=workers) == []

    def test_runs_on_a_spawn_context(self, make_random_problem, monkeypatch):
        """The fork-with-threads caveat's escape hatch: spawned workers."""
        monkeypatch.setattr(
            "repro.sharding.process.preferred_context",
            lambda method=None: multiprocessing.get_context("spawn"),
        )
        problems = [make_random_problem(4, seed) for seed in range(2)]
        results = optimize_suite(problems, "greedy_min_term", workers=2)
        expected = [optimize(problem, "greedy_min_term") for problem in problems]
        assert [r.order for r in results] == [r.order for r in expected]

    def test_a_dying_worker_raises_parallel_error(self, make_random_problem, monkeypatch):
        monkeypatch.setattr(harness, "_solve", _die)
        with pytest.raises(ParallelError, match="died"):
            optimize_suite([make_random_problem(4, 0)], "greedy_min_term", workers=2)


class TestExperimentsOnWorkers:
    def test_e1_runs_on_two_workers(self):
        result = run_e1_optimality(sizes=(4, 5), instances_per_size=2, workers=2)
        rows = result.row_dicts()
        assert [row["bb = exhaustive"] for row in rows] == [2, 2]
        assert [row["bb = dp"] for row in rows] == [2, 2]
        assert result.parameters["workers"] == 2

    def test_e1_default_suites_match_on_two_workers(self):
        result = run_e1_optimality(workers=2)
        for row in result.row_dicts():
            assert row["bb = exhaustive"] == row["instances"]
            assert row["bb = dp"] == row["instances"]
        assert result.notes[0].startswith("Every instance matches")

    def test_e4_runs_on_two_workers(self):
        sequential = run_e4_plan_quality(service_count=5, levels=(0.0, 1.0), instances_per_level=2)
        pooled = run_e4_plan_quality(
            service_count=5, levels=(0.0, 1.0), instances_per_level=2, workers=2
        )
        for row in pooled.row_dicts():
            assert row["srivastava_centralized ratio"] >= 1.0
        assert pooled.row_dicts() == sequential.row_dicts()
