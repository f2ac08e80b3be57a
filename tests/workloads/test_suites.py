"""Unit tests for the experiment workload suites."""

from __future__ import annotations

import pytest

from repro.core import optimize
from repro.workloads import (
    default_spec,
    hard_problem,
    heterogeneity_suite,
    scaling_suite,
    selectivity_suite,
    simulation_suite,
)


class TestDefaultSpec:
    def test_default_spec_is_selective_only(self):
        spec = default_spec(6)
        assert spec.service_count == 6
        # The baseline family keeps every service selective (sigma <= 1).
        from repro.workloads import generate_problem

        problem = generate_problem(spec, seed=0)
        assert problem.all_selective


class TestHardProblem:
    def test_instances_of_the_committed_benchmarks_do_not_move(self):
        """``BENCH_optimizers.json`` records these optima for hard-n9/n12-seed0."""
        assert optimize(hard_problem(9), "exhaustive").cost == 2.578990481520902
        problem = hard_problem(12)
        assert problem.name == "hard-n12-seed0"
        assert optimize(problem, "branch_and_bound").cost == 2.0971452042804364

    def test_near_unit_selectivities_and_seeded_draws(self):
        problem = hard_problem(6, seed=4)
        assert all(0.9 <= s <= 1.0 for s in problem.selectivities)
        assert all(1.0 <= c <= 1.3 for c in problem.costs)
        assert problem.transfer.row(0) == hard_problem(6, seed=4).transfer.row(0)
        assert problem.costs != hard_problem(6, seed=5).costs


class TestScalingSuite:
    def test_sizes_and_counts(self):
        suites = scaling_suite(sizes=(4, 5), instances_per_size=3, seed=1)
        assert set(suites) == {4, 5}
        assert all(len(problems) == 3 for problems in suites.values())
        assert all(problem.size == 4 for problem in suites[4])

    def test_reproducible(self):
        a = scaling_suite(sizes=(5,), instances_per_size=2, seed=3)
        b = scaling_suite(sizes=(5,), instances_per_size=2, seed=3)
        assert [p.costs for p in a[5]] == [p.costs for p in b[5]]


class TestHeterogeneitySuite:
    def test_levels_and_mean_preservation(self):
        suites = heterogeneity_suite(service_count=6, levels=(0.0, 1.0), instances_per_level=2)
        assert set(suites) == {0.0, 1.0}
        uniform_problem = suites[0.0][0]
        clustered_problem = suites[1.0][0]
        assert uniform_problem.has_uniform_transfer
        assert not clustered_problem.has_uniform_transfer
        assert uniform_problem.transfer.mean_cost() == pytest.approx(
            clustered_problem.transfer.mean_cost()
        )

    def test_services_identical_across_levels(self):
        suites = heterogeneity_suite(service_count=5, levels=(0.0, 0.5), instances_per_level=1)
        assert suites[0.0][0].costs == suites[0.5][0].costs
        assert suites[0.0][0].selectivities == suites[0.5][0].selectivities

    def test_heterogeneity_grows_with_level(self):
        suites = heterogeneity_suite(service_count=6, levels=(0.0, 0.5, 1.0), instances_per_level=1)
        values = [suites[level][0].transfer.heterogeneity() for level in (0.0, 0.5, 1.0)]
        assert values[0] <= values[1] <= values[2]


class TestSelectivitySuite:
    def test_three_regimes(self):
        regimes = selectivity_suite(service_count=5)
        assert [regime.name for regime in regimes] == [
            "highly-selective",
            "weakly-selective",
            "mixed-proliferative",
        ]

    def test_regimes_produce_expected_selectivity_ranges(self):
        from repro.workloads import generate_problem

        regimes = {regime.name: regime.spec for regime in selectivity_suite(service_count=8)}
        strong = generate_problem(regimes["highly-selective"], seed=1)
        assert max(strong.selectivities) <= 0.4
        weak = generate_problem(regimes["weakly-selective"], seed=1)
        assert min(weak.selectivities) >= 0.6
        mixed_has_proliferative = any(
            max(generate_problem(regimes["mixed-proliferative"], seed=seed).selectivities) > 1.0
            for seed in range(5)
        )
        assert mixed_has_proliferative


class TestSimulationSuite:
    def test_sizes(self):
        problems = simulation_suite(seed=1, instances=2, service_count=5)
        assert len(problems) == 2
        assert all(problem.size == 5 for problem in problems)
