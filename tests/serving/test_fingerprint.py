"""Property tests for problem fingerprinting.

The contract: fingerprints are invariant under re-indexing of the same
services (the cache's whole point), sensitive to parameter changes beyond the
quantization step, and the canonical-position translation round-trips plans
between equivalent problems.  The served fingerprint equals the per-element
reference in ``fingerprint_oracle.py`` digest for digest, and a golden digest
pins the canonical document, so no change re-keys every cache silently.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerprint_oracle import oracle_fingerprint
from repro.core import CommunicationCostMatrix, OrderingProblem, PrecedenceGraph, Service
from repro.exceptions import ServingError
from repro.serving import fingerprint_problem, quantize
from repro.workloads import credit_card_screening


@st.composite
def problems_and_permutations(draw):
    size = draw(st.integers(2, 6))
    costs = draw(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=size, max_size=size))
    selectivities = draw(
        st.lists(st.floats(0.1, 1.5, allow_nan=False), min_size=size, max_size=size)
    )
    flat = draw(
        st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=size * size, max_size=size * size)
    )
    rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
    problem = OrderingProblem.from_parameters(costs, selectivities, rows)
    permutation = draw(st.permutations(list(range(size))))
    return problem, tuple(permutation)


def permute_problem(problem: OrderingProblem, permutation: tuple[int, ...]) -> OrderingProblem:
    """The same problem with services listed in ``permutation`` order."""
    services = [problem.service(index) for index in permutation]
    rows = [
        [problem.transfer_cost(permutation[i], permutation[j]) for j in range(problem.size)]
        for i in range(problem.size)
    ]
    sink = (
        [problem.sink_cost(index) for index in permutation]
        if problem.sink_transfer is not None
        else None
    )
    return OrderingProblem(services, CommunicationCostMatrix(rows), sink_transfer=sink)


class TestQuantize:
    def test_quantization_grid(self):
        assert quantize(0.1 + 0.2, 6) == quantize(0.3, 6)
        assert quantize(1.2345678, 3) == 1235
        assert quantize(0.0, 6) == 0

    def test_negative_precision_rejected(self):
        with pytest.raises(ServingError):
            quantize(1.0, -1)


class TestPermutationInvariance:
    @settings(max_examples=50, deadline=None)
    @given(problems_and_permutations())
    def test_reindexing_preserves_the_digest(self, case):
        problem, permutation = case
        permuted = permute_problem(problem, permutation)
        assert fingerprint_problem(problem).digest == fingerprint_problem(permuted).digest

    @settings(max_examples=50, deadline=None)
    @given(problems_and_permutations())
    def test_canonical_positions_translate_plans_between_equivalents(self, case):
        problem, permutation = case
        permuted = permute_problem(problem, permutation)
        original = fingerprint_problem(problem)
        mirrored = fingerprint_problem(permuted)

        order = tuple(range(problem.size))
        positions = original.to_positions(order)
        translated = mirrored.from_positions(positions)
        # The translated plan visits the same *services* (hence the same cost).
        assert [permuted.service(i).name for i in translated] == [
            problem.service(i).name for i in order
        ]
        assert permuted.cost(translated) == pytest.approx(problem.cost(order))

    def test_roundtrip_is_identity_on_the_same_problem(self, four_service_problem):
        fingerprint = fingerprint_problem(four_service_problem)
        order = (2, 0, 3, 1)
        assert fingerprint.from_positions(fingerprint.to_positions(order)) == order


class TestSensitivity:
    def test_cost_change_beyond_the_grid_changes_the_digest(self, three_service_problem):
        problem = three_service_problem
        changed = OrderingProblem.from_parameters(
            [problem.costs[0] + 0.5, *problem.costs[1:]],
            list(problem.selectivities),
            problem.transfer.as_lists(),
        )
        assert fingerprint_problem(problem).digest != fingerprint_problem(changed).digest

    def test_change_below_the_grid_is_absorbed(self, three_service_problem):
        problem = three_service_problem
        nudged = OrderingProblem.from_parameters(
            [problem.costs[0] + 1e-9, *problem.costs[1:]],
            list(problem.selectivities),
            problem.transfer.as_lists(),
        )
        assert (
            fingerprint_problem(problem, precision=3).digest
            == fingerprint_problem(nudged, precision=3).digest
        )

    def test_precision_is_part_of_the_key(self, three_service_problem):
        coarse = fingerprint_problem(three_service_problem, precision=2)
        fine = fingerprint_problem(three_service_problem, precision=8)
        assert coarse.key != fine.key

    def test_precedence_is_part_of_the_digest(self, three_service_problem):
        precedence = PrecedenceGraph(3)
        precedence.add(0, 2)
        constrained = three_service_problem.with_precedence(precedence)
        assert (
            fingerprint_problem(three_service_problem).digest
            != fingerprint_problem(constrained).digest
        )

    def test_names_only_matter_when_requested(self, three_service_problem):
        renamed = OrderingProblem.from_parameters(
            list(three_service_problem.costs),
            list(three_service_problem.selectivities),
            three_service_problem.transfer.as_lists(),
            names=["a", "b", "c"],
        )
        assert (
            fingerprint_problem(three_service_problem).digest
            == fingerprint_problem(renamed).digest
        )
        assert (
            fingerprint_problem(three_service_problem, include_names=True).digest
            != fingerprint_problem(renamed, include_names=True).digest
        )

    def test_unknown_index_in_plan_is_rejected(self, three_service_problem):
        fingerprint = fingerprint_problem(three_service_problem)
        with pytest.raises(ServingError):
            fingerprint.to_positions((0, 1, 7))
        with pytest.raises(ServingError):
            fingerprint.from_positions((0, 1, 7))


@st.composite
def fingerprinted_problems(draw):
    """Problems over every input the fingerprint reads, biased towards ties.

    Parameters come from a few grid values (plus any float) so services often
    tie on quantized fields; ``clones`` makes every service tie on all of them
    and differ only by name, which leaves the order to the name tie-break.
    """
    size = draw(st.integers(1, 7))
    clones = draw(st.booleans())
    value = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.0000004, 2.25]),
        st.floats(0.0, 5.0, allow_nan=False),
    )
    positive = st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.01, 2.0))
    if clones:
        cost, selectivity, transfer, sink = draw(value), draw(positive), draw(value), draw(value)
        costs, selectivities = [cost] * size, [selectivity] * size
        rows = [[0.0 if i == j else transfer for j in range(size)] for i in range(size)]
        sinks = [sink] * size
        threads = [1] * size
    else:
        costs = draw(st.lists(value, min_size=size, max_size=size))
        selectivities = draw(st.lists(positive, min_size=size, max_size=size))
        flat = draw(st.lists(value, min_size=size * size, max_size=size * size))
        rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
        sinks = draw(st.lists(value, min_size=size, max_size=size))
        threads = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    names = draw(
        st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=size, max_size=size, unique=True)
    )
    services = [
        Service(name=names[i], cost=costs[i], selectivity=selectivities[i], threads=threads[i])
        for i in range(size)
    ]
    precedence = None
    if size > 1 and draw(st.booleans()):
        # Edges that follow one random order are always acyclic.
        topological = draw(st.permutations(range(size)))
        precedence = PrecedenceGraph(size)
        for before, after in draw(
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=6)
        ):
            if before < after:
                precedence.add(topological[before], topological[after])
    return OrderingProblem(
        services,
        CommunicationCostMatrix(rows),
        precedence=precedence,
        sink_transfer=sinks if draw(st.booleans()) else None,
    )


class TestMatchesTheReference:
    @settings(max_examples=300, deadline=None)
    @given(fingerprinted_problems(), st.integers(0, 8), st.booleans())
    def test_flat_fingerprint_is_the_oracle(self, problem, precision, include_names):
        flat = fingerprint_problem(problem, precision, include_names)
        reference = oracle_fingerprint(problem, precision, include_names)
        assert flat.digest == reference.digest
        assert flat.canonical_order == reference.canonical_order
        assert flat == reference

    def test_incoming_transfers_order_services_before_names(self):
        # "a" and "z" tie on cost, selectivity and outgoing transfers; "z"
        # receives the cheaper incoming transfers, so it comes first.
        problem = OrderingProblem.from_parameters(
            [1.0, 1.0, 1.0],
            [0.5, 0.5, 0.5],
            [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [5.0, 5.0, 0.0]],
            names=["a", "z", "m"],
        )
        fingerprint = fingerprint_problem(problem)
        assert fingerprint.canonical_order == (1, 0, 2)
        assert fingerprint == oracle_fingerprint(problem)

    def test_golden_digest(self):
        # The credit-card screening query at the default precision.  If this
        # changes, every cache key, routed shard and response fingerprint
        # changes with it.
        fingerprint = fingerprint_problem(credit_card_screening())
        assert fingerprint.digest == (
            "fc50c80ee21399a0ffdecfb5bd26c1dbf3a7ff4ec5e19ade074ec455657794ce"
        )
        assert fingerprint.canonical_order == (3, 0, 1, 2)
        assert fingerprint_problem(credit_card_screening(), include_names=True).digest == (
            "a7fdd93b75de410cc2aa6058f193b72ec7fb7a41306b453bc9e1acdf76f22366"
        )

    def test_negative_precision_rejected(self, three_service_problem):
        with pytest.raises(ServingError):
            fingerprint_problem(three_service_problem, precision=-1)
