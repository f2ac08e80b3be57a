"""Unit tests for the bottleneck cost metric and the communication-cost matrix."""

from __future__ import annotations

import pytest

from repro.core import CommunicationCostMatrix, bottleneck_cost, bottleneck_stage, prefix_products, stage_costs
from repro.exceptions import InvalidCostMatrixError, InvalidPlanError
from repro.utils.validation import require_non_negative

NAN, INF = float("nan"), float("inf")


def walk_every_entry(rows):
    """The entry-by-entry validation the matrix has always performed (reference)."""
    size = len(rows)
    if size == 0:
        raise InvalidCostMatrixError("cost matrix must have at least one row")
    validated = []
    for i, row in enumerate(rows):
        if len(row) != size:
            raise InvalidCostMatrixError(
                f"cost matrix must be square: row {i} has {len(row)} entries, expected {size}"
            )
        converted = []
        for j, value in enumerate(row):
            value = require_non_negative(value, f"t[{i}][{j}]", InvalidCostMatrixError)
            if i == j and value != 0.0:
                raise InvalidCostMatrixError(
                    f"diagonal entry t[{i}][{i}] must be zero, got {value!r}"
                )
            converted.append(value)
        validated.append(tuple(converted))
    return tuple(validated)


INVALID = {
    "empty": [],
    "non-square": [[0.0, 1.0], [2.0, 0.0, 3.0]],
    "short row": [[0.0, 1.0, 2.0], [1.0, 0.0], [1.0, 2.0, 0.0]],
    "nan": [[0.0, 1.0], [NAN, 0.0]],
    "+inf": [[0.0, INF], [1.0, 0.0]],
    "-inf": [[0.0, 1.0], [-INF, 0.0]],
    "negative": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [1.0, -0.5, 0.0]],
    "non-numeric string": [[0.0, "fast"], [1.0, 0.0]],
    "none": [[0.0, 1.0], [None, 0.0]],
    "object": [[0.0, object()], [1.0, 0.0]],
    "nonzero diagonal": [[0.0, 1.0], [1.0, 0.25]],
    "nan diagonal": [[NAN, 1.0], [1.0, 0.0]],
    "first of two errors in a row": [[0.0, -1.0, "x"], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]],
    "first of two errors, other kind": [[0.0, "x", -1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]],
    "diagonal before a later bad entry": [[3.0, INF], [1.0, 0.0]],
    "error in a later row only": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [1.0, 2.0, 9.0]],
}

ACCEPTED = {
    "floats": [[0.0, 1.5], [2.0, 0.0]],
    "ints": [[0, 1], [2, 0]],
    "bools": [[False, True], [True, 0]],
    "numeric strings": [["0", "1.5"], ["2e0", "0.0"]],
    "negative zero": [[-0.0, 1.0], [0.0, -0.0]],
    "tuples": ((0.0, 1.0), (1.0, 0.0)),
}


class TestRowByRowValidation:
    """The matrix checks whole rows at once and walks only a failing row: it
    still raises the walk's first error, type and message, and accepts what
    the walk accepts."""

    @pytest.mark.parametrize("rows", INVALID.values(), ids=INVALID.keys())
    def test_invalid_input_raises_the_walks_error(self, rows):
        with pytest.raises(InvalidCostMatrixError) as expected:
            walk_every_entry(rows)
        with pytest.raises(InvalidCostMatrixError) as raised:
            CommunicationCostMatrix(rows)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("rows", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_accepted_input_converts_as_the_walk_does(self, rows):
        matrix = CommunicationCostMatrix(rows)
        expected = walk_every_entry(rows)
        assert tuple(matrix.row(i) for i in range(matrix.size)) == expected
        assert all(type(value) is float for i in range(matrix.size) for value in matrix.row(i))


class TestCommunicationCostMatrix:
    def test_valid_matrix(self):
        matrix = CommunicationCostMatrix([[0.0, 1.0], [2.0, 0.0]])
        assert matrix.size == 2
        assert matrix.cost(0, 1) == 1.0
        assert matrix.cost(1, 0) == 2.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidCostMatrixError):
            CommunicationCostMatrix([[0.0, 1.0], [2.0, 0.0, 3.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidCostMatrixError):
            CommunicationCostMatrix([])

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidCostMatrixError):
            CommunicationCostMatrix([[0.0, -1.0], [1.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidCostMatrixError):
            CommunicationCostMatrix([[0.5, 1.0], [1.0, 0.0]])

    def test_uniform_constructor(self):
        matrix = CommunicationCostMatrix.uniform(3, 2.0)
        assert matrix.is_uniform()
        assert matrix.cost(0, 0) == 0.0
        assert matrix.cost(0, 2) == 2.0
        assert matrix.mean_cost() == pytest.approx(2.0)

    def test_zeros_constructor(self):
        matrix = CommunicationCostMatrix.zeros(3)
        assert matrix.max_cost() == 0.0
        assert matrix.is_uniform()

    def test_from_function(self):
        matrix = CommunicationCostMatrix.from_function(3, lambda i, j: i + j)
        assert matrix.cost(1, 2) == 3.0
        assert matrix.cost(2, 2) == 0.0

    def test_from_host_costs(self):
        matrix = CommunicationCostMatrix.from_host_costs(
            ["h1", "h2", "h1"], {("h1", "h2"): 5.0, ("h2", "h1"): 3.0}
        )
        assert matrix.cost(0, 1) == 5.0
        assert matrix.cost(1, 0) == 3.0
        assert matrix.cost(0, 2) == 0.0  # same host

    def test_statistics(self):
        matrix = CommunicationCostMatrix([[0.0, 1.0, 3.0], [1.0, 0.0, 5.0], [3.0, 5.0, 0.0]])
        assert matrix.max_cost() == 5.0
        assert matrix.min_cost() == 1.0
        assert matrix.mean_cost() == pytest.approx((1 + 3 + 1 + 5 + 3 + 5) / 6)
        assert matrix.is_symmetric()
        assert not matrix.is_uniform()
        assert matrix.heterogeneity() > 0

    def test_heterogeneity_zero_for_uniform(self):
        assert CommunicationCostMatrix.uniform(4, 1.5).heterogeneity() == pytest.approx(0.0)

    def test_asymmetric_detection(self):
        matrix = CommunicationCostMatrix([[0.0, 1.0], [2.0, 0.0]])
        assert not matrix.is_symmetric()
        symmetric = matrix.symmetrized()
        assert symmetric.is_symmetric()
        assert symmetric.cost(0, 1) == pytest.approx(1.5)

    def test_scaled(self):
        matrix = CommunicationCostMatrix([[0.0, 2.0], [4.0, 0.0]]).scaled(0.5)
        assert matrix.cost(0, 1) == 1.0
        assert matrix.cost(1, 0) == 2.0

    def test_submatrix(self):
        matrix = CommunicationCostMatrix(
            [[0.0, 1.0, 2.0], [3.0, 0.0, 4.0], [5.0, 6.0, 0.0]]
        ).submatrix([2, 0])
        assert matrix.size == 2
        assert matrix.cost(0, 1) == 5.0  # from service 2 to service 0
        assert matrix.cost(1, 0) == 2.0

    def test_equality_and_hash(self):
        a = CommunicationCostMatrix([[0.0, 1.0], [2.0, 0.0]])
        b = CommunicationCostMatrix([[0.0, 1.0], [2.0, 0.0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != CommunicationCostMatrix.uniform(2, 1.0)

    def test_as_lists_is_a_copy(self):
        matrix = CommunicationCostMatrix([[0.0, 1.0], [2.0, 0.0]])
        lists = matrix.as_lists()
        lists[0][1] = 99.0
        assert matrix.cost(0, 1) == 1.0


class TestBottleneckCost:
    COSTS = (2.0, 1.0, 4.0)
    SELECTIVITIES = (0.5, 0.9, 0.3)
    TRANSFER = CommunicationCostMatrix([[0.0, 1.0, 5.0], [2.0, 0.0, 1.0], [4.0, 2.0, 0.0]])

    def test_prefix_products(self):
        assert prefix_products(self.SELECTIVITIES, (0, 1, 2)) == [1.0, 0.5, 0.45]
        assert prefix_products(self.SELECTIVITIES, (2, 0)) == [1.0, 0.3]

    def test_hand_computed_cost(self):
        # Plan 0 -> 1 -> 2:
        #   stage 0: 1.0 * (2 + 0.5*1)   = 2.5
        #   stage 1: 0.5 * (1 + 0.9*1)   = 0.95
        #   stage 2: 0.45 * 4            = 1.8
        cost = bottleneck_cost(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0, 1, 2))
        assert cost == pytest.approx(2.5)

    def test_hand_computed_cost_other_order(self):
        # Plan 2 -> 1 -> 0:
        #   stage 0: 1.0 * (4 + 0.3*2)    = 4.6
        #   stage 1: 0.3 * (1 + 0.9*2)    = 0.84
        #   stage 2: 0.27 * 2             = 0.54
        cost = bottleneck_cost(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (2, 1, 0))
        assert cost == pytest.approx(4.6)

    def test_stage_breakdown(self):
        stages = stage_costs(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0, 1, 2))
        assert [stage.position for stage in stages] == [0, 1, 2]
        assert [stage.service_index for stage in stages] == [0, 1, 2]
        assert stages[0].processing == pytest.approx(2.0)
        assert stages[0].transfer == pytest.approx(0.5)
        assert stages[1].input_rate == pytest.approx(0.5)
        assert stages[2].transfer == 0.0  # last stage, no sink transfer configured

    def test_last_stage_with_sink_transfer(self):
        stages = stage_costs(
            self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0, 1, 2), sink_transfer=[0.0, 0.0, 10.0]
        )
        assert stages[2].transfer == pytest.approx(0.45 * 0.3 * 10.0)

    def test_bottleneck_stage_identifies_argmax(self):
        stage = bottleneck_stage(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0, 1, 2))
        assert stage.position == 0
        assert stage.total == pytest.approx(2.5)

    def test_single_service_plan(self):
        cost = bottleneck_cost((3.0,), (0.5,), CommunicationCostMatrix.zeros(1), (0,))
        assert cost == pytest.approx(3.0)

    def test_partial_order_rejected_by_duplicates(self):
        with pytest.raises(InvalidPlanError):
            bottleneck_cost(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0, 0, 1))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidPlanError):
            bottleneck_cost(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0, 1, 3))

    def test_empty_plan_rejected(self):
        with pytest.raises(InvalidPlanError):
            bottleneck_cost(self.COSTS, self.SELECTIVITIES, self.TRANSFER, ())

    def test_non_integer_entries_rejected(self):
        with pytest.raises(InvalidPlanError):
            bottleneck_cost(self.COSTS, self.SELECTIVITIES, self.TRANSFER, (0.0, 1, 2))  # type: ignore[arg-type]

    def test_selectivity_one_and_zero_cost_reduces_to_max_edge(self):
        # The paper's bottleneck-TSP reduction: cost becomes the largest traversed edge.
        costs = (0.0, 0.0, 0.0)
        selectivities = (1.0, 1.0, 1.0)
        cost = bottleneck_cost(costs, selectivities, self.TRANSFER, (0, 1, 2))
        assert cost == pytest.approx(max(self.TRANSFER.cost(0, 1), self.TRANSFER.cost(1, 2)))
