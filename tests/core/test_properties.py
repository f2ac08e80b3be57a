"""Property-based tests (hypothesis) for the core invariants.

These are the load-bearing guarantees of the reproduction:

* the branch-and-bound optimizer is *optimal* on arbitrary instances
  (cross-checked against exhaustive enumeration),
* Lemma 1 (monotone ``ε``), Lemma 2 (exact closure cost) and the ``ε̄`` bound
  hold on arbitrary instances, not just the fixtures,
* the exchange argument behind the centralized baseline holds for selective
  services, and
* plan/cost-model invariants (permutation invariance of the service set,
  scaling behaviour) hold.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationCostMatrix,
    OrderingProblem,
    PrecedenceGraph,
    bottleneck_cost,
    branch_and_bound,
    dynamic_programming,
    epsilon_bar,
    exhaustive_search,
    stage_costs,
)
from repro.core.srivastava import selective_exchange_argument_holds, srivastava

# -- strategies ------------------------------------------------------------------


@st.composite
def problems(draw, min_size: int = 2, max_size: int = 6, max_selectivity: float = 1.0):
    size = draw(st.integers(min_size, max_size))
    costs = draw(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size, max_size=size)
    )
    selectivities = draw(
        st.lists(st.floats(0.05, max_selectivity, allow_nan=False), min_size=size, max_size=size)
    )
    flat = draw(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size * size, max_size=size * size)
    )
    rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


# -- optimality ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(problems(max_size=5))
def test_branch_and_bound_matches_exhaustive(problem):
    assert abs(branch_and_bound(problem).cost - exhaustive_search(problem).cost) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(problems(max_size=5, max_selectivity=2.5))
def test_branch_and_bound_optimal_with_proliferative_services(problem):
    assert abs(branch_and_bound(problem).cost - exhaustive_search(problem).cost) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(problems(max_size=6))
def test_dynamic_programming_matches_branch_and_bound(problem):
    assert abs(dynamic_programming(problem).cost - branch_and_bound(problem).cost) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(problems(max_size=5), st.booleans(), st.booleans())
def test_pruning_rules_never_change_the_optimum(problem, use_lemma2, use_lemma3):
    if use_lemma3 and not use_lemma2:
        use_lemma2 = True
    reference = exhaustive_search(problem).cost
    result = branch_and_bound(problem, use_lemma2=use_lemma2, use_lemma3=use_lemma3 and use_lemma2)
    assert abs(result.cost - reference) <= 1e-9


# -- lemma invariants -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(problems(max_size=6), st.randoms(use_true_random=False))
def test_lemma1_epsilon_is_monotone(problem, rng):
    order = list(range(problem.size))
    rng.shuffle(order)
    partial = problem.evaluator().root()
    previous = partial.epsilon
    for index in order:
        partial = partial.extend(index)
        assert partial.epsilon >= previous - 1e-12
        previous = partial.epsilon
    assert partial.epsilon == problem.cost(tuple(order)) or abs(
        partial.epsilon - problem.cost(tuple(order))
    ) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(problems(max_size=6, max_selectivity=2.0), st.randoms(use_true_random=False))
def test_epsilon_is_a_lower_bound_for_every_completion(problem, rng):
    order = list(range(problem.size))
    rng.shuffle(order)
    prefix_length = rng.randint(1, problem.size)
    prefix = order[:prefix_length]
    partial = problem.evaluator().prefix(prefix)
    full_cost = problem.cost(tuple(order))
    assert partial.epsilon <= full_cost + 1e-9


@settings(max_examples=60, deadline=None)
@given(problems(max_size=6, max_selectivity=2.0), st.randoms(use_true_random=False))
def test_epsilon_bar_bounds_the_cost_of_any_completion(problem, rng):
    order = list(range(problem.size))
    rng.shuffle(order)
    prefix_length = rng.randint(1, problem.size)
    prefix = order[:prefix_length]
    partial = problem.evaluator().prefix(prefix)
    bound = max(partial.epsilon, epsilon_bar(partial))
    assert problem.cost(tuple(order)) <= bound + 1e-9


# -- centralized baseline ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 50.0, allow_nan=False),
    st.floats(0.0, 50.0, allow_nan=False),
    st.floats(0.01, 1.0, allow_nan=False),
    st.floats(0.01, 1.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
)
def test_selective_exchange_argument(cost_x, cost_y, sigma_x, sigma_y, rate):
    assert selective_exchange_argument_holds(cost_x, cost_y, sigma_x, sigma_y, rate)


@settings(max_examples=40, deadline=None)
@given(problems(max_size=5))
def test_srivastava_is_optimal_with_free_communication(problem):
    centralized = problem.with_transfer(CommunicationCostMatrix.zeros(problem.size))
    assert abs(srivastava(centralized).cost - exhaustive_search(centralized).cost) <= 1e-9


# -- cost-model invariants -----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(problems(max_size=6), st.floats(0.1, 10.0, allow_nan=False))
def test_cost_scales_linearly_with_all_parameters(problem, factor):
    """Scaling every cost, and every transfer, by ``f`` scales every plan's cost by ``f``."""
    order = tuple(range(problem.size))
    scaled = OrderingProblem.from_parameters(
        [cost * factor for cost in problem.costs],
        problem.selectivities,
        problem.transfer.scaled(factor),
    )
    assert scaled.cost(order) == abs(scaled.cost(order))
    assert abs(scaled.cost(order) - factor * problem.cost(order)) <= 1e-6 * max(
        1.0, factor * problem.cost(order)
    )


@settings(max_examples=50, deadline=None)
@given(problems(max_size=6))
def test_optimal_cost_is_a_lower_bound_over_heuristics(problem):
    from repro.core import GreedyStrategy, greedy, hill_climbing

    optimal = branch_and_bound(problem).cost
    assert greedy(problem, GreedyStrategy.NEAREST_SUCCESSOR).cost >= optimal - 1e-9
    assert greedy(problem, GreedyStrategy.CHEAPEST_COST).cost >= optimal - 1e-9
    assert hill_climbing(problem, max_iterations=50).cost >= optimal - 1e-9


@settings(max_examples=50, deadline=None)
@given(problems(max_size=6), st.randoms(use_true_random=False))
def test_plan_cost_is_independent_of_service_index_labelling(problem, rng):
    """Relabelling services and permuting the matrix accordingly leaves plan costs unchanged."""
    size = problem.size
    relabel = list(range(size))
    rng.shuffle(relabel)  # relabel[new_index] = old_index
    costs = [problem.costs[relabel[i]] for i in range(size)]
    selectivities = [problem.selectivities[relabel[i]] for i in range(size)]
    rows = [
        [problem.transfer.cost(relabel[i], relabel[j]) if i != j else 0.0 for j in range(size)]
        for i in range(size)
    ]
    relabelled = OrderingProblem.from_parameters(costs, selectivities, rows)
    order_old = tuple(range(size))
    # The same physical plan expressed in new labels.
    inverse = {old: new for new, old in enumerate(relabel)}
    order_new = tuple(inverse[index] for index in order_old)
    assert abs(problem.cost(order_old) - relabelled.cost(order_new)) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(problems(max_size=8, max_selectivity=2.5), st.data())
def test_bottleneck_cost_is_the_largest_stage_total(problem, data):
    """The plain-loop price of a plan is ``==`` the largest term of the
    per-stage breakdown, with and without sink transfers and precedence."""
    size = problem.size
    order = data.draw(st.permutations(range(size)))
    sink = data.draw(
        st.none()
        | st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size, max_size=size)
    )
    precedence = None
    if size > 1 and data.draw(st.booleans()):
        # Edges that follow the plan keep it feasible.
        precedence = PrecedenceGraph(size)
        pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        for before, after in data.draw(st.lists(pairs, max_size=6)):
            if before < after:
                precedence.add(order[before], order[after])
    problem = OrderingProblem(
        problem.services, problem.transfer, precedence=precedence, sink_transfer=sink
    )
    breakdown = stage_costs(
        problem.costs, problem.selectivities, problem.transfer, order, problem.sink_transfer
    )
    largest = max(stage.total for stage in breakdown)
    assert problem.cost(order) == largest
    assert bottleneck_cost(problem.costs, problem.selectivities, problem.transfer, order, sink) == largest
