"""Micro-benchmarks of the core primitives.

Unlike the experiment benchmarks (one-shot table regeneration), these are
repeated-measurement benchmarks of the operations a deployment performs in its
hot path: evaluating the bottleneck cost of a plan, extending a partial plan,
computing the residual bound, optimizing a mid-size instance, and simulating a
short stream.
"""

from __future__ import annotations

from repro.core import branch_and_bound, dynamic_programming
from repro.core.bounds import max_residual_cost
from repro.simulation import SimulationConfig, simulate_plan
from repro.workloads import default_spec, generate_problem

_PROBLEM_8 = generate_problem(default_spec(8), seed=5)
_PROBLEM_12 = generate_problem(default_spec(12), seed=5)
_ORDER_8 = tuple(range(8))
_PREFIX_12 = _PROBLEM_12.evaluator().prefix(tuple(range(6)))


def test_plan_cost_evaluation(benchmark):
    cost = benchmark(lambda: _PROBLEM_8.cost(_ORDER_8))
    assert cost > 0


def test_partial_plan_extension(benchmark):
    result = benchmark(lambda: _PREFIX_12.extend(7))
    assert result.length == 7


def test_residual_bound_computation(benchmark):
    bound = benchmark(lambda: max_residual_cost(_PREFIX_12))
    assert bound.value >= 0


def test_branch_and_bound_12_services(benchmark):
    result = benchmark(lambda: branch_and_bound(_PROBLEM_12))
    assert result.optimal


def test_dynamic_programming_12_services(benchmark):
    result = benchmark(lambda: dynamic_programming(_PROBLEM_12))
    assert result.optimal


def test_simulation_throughput(benchmark):
    report = benchmark.pedantic(
        lambda: simulate_plan(_PROBLEM_8, _ORDER_8, SimulationConfig(tuple_count=500)),
        rounds=3,
        iterations=1,
    )
    assert report.tuple_count == 500
