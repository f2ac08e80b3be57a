"""Property-based tests for the incremental evaluation kernel.

The kernel (:mod:`repro.core.evaluation`) promises *bit-identical* agreement
with the validated from-scratch cost model, not merely approximate agreement:
every assertion on costs below uses ``==``.  Problems are drawn with and
without sink transfers and with and without precedence constraints, and with
proliferative (sigma > 1) services, so all branches of the kernel arithmetic
are exercised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrderingProblem, PrecedenceGraph
from repro.core.bounds import max_residual_cost
from repro.core.cost_model import bottleneck_cost, bottleneck_stage
from repro.core.evaluation import PrefixState

# -- strategies ------------------------------------------------------------------


@st.composite
def problems(
    draw,
    min_size: int = 2,
    max_size: int = 7,
    max_selectivity: float = 2.0,
    allow_sink: bool = True,
    allow_precedence: bool = False,
):
    size = draw(st.integers(min_size, max_size))
    costs = draw(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size, max_size=size))
    selectivities = draw(
        st.lists(st.floats(0.05, max_selectivity, allow_nan=False), min_size=size, max_size=size)
    )
    flat = draw(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size * size, max_size=size * size)
    )
    rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
    sink = None
    if allow_sink and draw(st.booleans()):
        sink = draw(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size, max_size=size))
    precedence = None
    if allow_precedence and size >= 2:
        # Random edges along a random topological order keep the DAG acyclic.
        topo = draw(st.permutations(range(size)))
        edges = []
        for a in range(size):
            for b in range(a + 1, size):
                if draw(st.booleans()) and draw(st.booleans()):
                    edges.append((topo[a], topo[b]))
        if edges:
            precedence = PrecedenceGraph(size, edges)
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, precedence=precedence, sink_transfer=sink
    )


@st.composite
def problem_and_order(draw, **kwargs):
    problem = draw(problems(**kwargs))
    order = tuple(draw(st.permutations(range(problem.size))))
    return problem, order


# -- from-scratch evaluation -------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(problem_and_order())
def test_evaluator_cost_is_bit_identical_to_oracle(case):
    problem, order = case
    oracle = bottleneck_cost(
        problem.costs, problem.selectivities, problem.transfer, order, problem.sink_transfer
    )
    assert problem.evaluator().cost(order) == oracle


@settings(max_examples=100, deadline=None)
@given(problem_and_order(), st.floats(0.0, 50.0, allow_nan=False))
def test_cost_bounded_short_circuit_semantics(case, bound):
    problem, order = case
    evaluator = problem.evaluator()
    exact = evaluator.cost(order)
    bounded = evaluator.cost_bounded(order, bound)
    if bounded < bound:
        assert bounded == exact
    else:
        # The scan stopped early: the returned running maximum is a valid
        # lower bound, so the plan provably cannot beat the incumbent.
        assert bounded <= exact
        assert exact >= bound


# -- prefix states -----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(problem_and_order())
def test_prefix_extension_matches_oracle_and_is_monotone(case):
    problem, order = case
    evaluator = problem.evaluator()
    state = evaluator.root()
    previous = state.epsilon
    for index in order:
        state = state.extend(index)
        assert state.epsilon >= previous  # Lemma 1, exactly (max never shrinks)
        previous = state.epsilon
    oracle = bottleneck_cost(
        problem.costs, problem.selectivities, problem.transfer, order, problem.sink_transfer
    )
    assert state.is_complete
    assert state.epsilon == oracle
    assert state.order == order
    stage = bottleneck_stage(
        problem.costs, problem.selectivities, problem.transfer, order, problem.sink_transfer
    )
    assert state.bottleneck_position == stage.position


@settings(max_examples=80, deadline=None)
@given(problem_and_order(allow_precedence=True))
def test_scalar_score_front_matches_prefix_extension(case):
    problem, _ = case
    evaluator = problem.evaluator()
    front = [evaluator.root()]
    for level in range(problem.size):
        parents, extensions, epsilons = evaluator.score_front(front, level + 1 == problem.size)
        # Same feasible children, in generation order, with the epsilon the
        # materialized child state would carry.
        assert list(zip(parents, extensions)) == [
            (parent, successor)
            for parent, state in enumerate(front)
            for successor in state.allowed_extensions()
        ]
        for parent, extension, epsilon in zip(parents, extensions, epsilons):
            assert epsilon == front[parent].extend(extension).epsilon
        front = [front[parent].extend(extension) for parent, extension in zip(parents, extensions)]
        front = front[:4]


# -- delta moves -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(problem_and_order(), st.data())
def test_swap_delta_is_bit_identical_to_from_scratch(case, data):
    problem, order = case
    size = problem.size
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1))
    evaluator = problem.evaluator()
    neighborhood = evaluator.neighborhood(order)
    moved = neighborhood.swapped(i, j)
    assert neighborhood.swap_cost(i, j) == evaluator.cost(moved)


@settings(max_examples=150, deadline=None)
@given(problem_and_order(), st.data())
def test_relocate_delta_is_bit_identical_to_from_scratch(case, data):
    problem, order = case
    size = problem.size
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1))
    evaluator = problem.evaluator()
    neighborhood = evaluator.neighborhood(order)
    moved = neighborhood.relocated(i, j)
    assert list(sorted(moved)) == list(range(size))
    assert neighborhood.relocate_cost(i, j) == evaluator.cost(moved)


@settings(max_examples=100, deadline=None)
@given(problem_and_order(), st.data(), st.floats(0.0, 50.0, allow_nan=False))
def test_bounded_delta_short_circuit_semantics(case, data, bound):
    problem, order = case
    size = problem.size
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1))
    evaluator = problem.evaluator()
    neighborhood = evaluator.neighborhood(order)
    exact = evaluator.cost(neighborhood.swapped(i, j))
    bounded = neighborhood.swap_cost(i, j, bound)
    if bounded < bound:
        assert bounded == exact
    else:
        assert bounded <= exact
        assert exact >= bound


@settings(max_examples=80, deadline=None)
@given(problem_and_order(allow_precedence=True), st.data())
def test_move_feasibility_matches_full_validation(case, data):
    problem, order = case
    precedence = problem.precedence
    if precedence is None or not precedence.is_valid_order(order):
        return  # the neighbourhood contract assumes a feasible base plan
    size = problem.size
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1))
    neighborhood = problem.evaluator().neighborhood(order)
    assert neighborhood.swap_feasible(i, j) == precedence.is_valid_order(
        neighborhood.swapped(i, j)
    )
    assert neighborhood.relocate_feasible(i, j) == precedence.is_valid_order(
        neighborhood.relocated(i, j)
    )


# -- residual bounds ---------------------------------------------------------------


def _oracle_residual(partial: PrefixState) -> float:
    """The pre-kernel from-scratch implementation of ``epsilon-bar``."""
    problem = partial.evaluator.problem
    remaining = partial.remaining()

    def worst_outgoing(source, candidates):
        worst = problem.sink_cost(source)
        for destination in candidates:
            if destination == source:
                continue
            cost = problem.transfer_cost(source, destination)
            if cost > worst:
                worst = cost
        return worst

    last_bound = 0.0
    last = partial.last
    if partial.length and not partial.is_complete:
        last_bound = partial.rate * (
            problem.costs[last]
            + problem.selectivities[last] * worst_outgoing(last, remaining)
        )
    proliferation = 1.0
    for index in remaining:
        sigma = problem.selectivities[index]
        if sigma > 1.0:
            proliferation *= sigma
    best = last_bound
    for index in remaining:
        sigma = problem.selectivities[index]
        inflation = proliferation / sigma if sigma > 1.0 else proliferation
        rate_bound = partial.output_rate * inflation
        others = [other for other in remaining if other != index]
        term = rate_bound * (
            problem.costs[index] + sigma * worst_outgoing(index, others)
        )
        if term > best:
            best = term
    return best


@settings(max_examples=100, deadline=None)
@given(problem_and_order(), st.data())
def test_residual_bound_matches_from_scratch_formula(case, data):
    problem, order = case
    prefix_length = data.draw(st.integers(0, problem.size))
    prefix = order[:prefix_length]
    state = problem.evaluator().prefix(prefix)
    oracle = _oracle_residual(state)
    assert max_residual_cost(state).value == oracle
    assert problem.evaluator().residual_value(state) == oracle


# -- plumbing ----------------------------------------------------------------------


def test_evaluator_is_cached_per_problem(three_service_problem):
    assert three_service_problem.evaluator() is three_service_problem.evaluator()


def test_evaluator_extracts_problem_arrays(three_service_problem):
    evaluator = three_service_problem.evaluator()
    assert evaluator.size == 3
    assert evaluator.costs == three_service_problem.costs
    assert evaluator.selectivities == three_service_problem.selectivities
    for i in range(3):
        for j in range(3):
            assert evaluator.rows[i][j] == three_service_problem.transfer_cost(i, j)
    assert evaluator.sink == (0.0, 0.0, 0.0)
    assert evaluator.predecessor_masks is None


def test_predecessor_masks_reflect_constraints(constrained_problem):
    evaluator = constrained_problem.evaluator()
    masks = evaluator.predecessor_masks
    assert masks is not None
    precedence = constrained_problem.precedence
    for index in range(constrained_problem.size):
        expected = 0
        for predecessor in precedence.predecessors(index):
            expected |= 1 << predecessor
        assert masks[index] == expected


def test_prefix_state_rejects_nothing_but_stays_consistent(three_service_problem):
    # The kernel skips validation by design; OrderingProblem.plan is the
    # validated boundary.  A complete prefix still round-trips to its order.
    state = three_service_problem.evaluator().prefix((2, 0, 1))
    assert state.order == (2, 0, 1)
    assert state.epsilon == pytest.approx(three_service_problem.cost((2, 0, 1)))
