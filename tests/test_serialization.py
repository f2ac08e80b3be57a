"""Unit tests for JSON (de)serialization of problems, plans and results."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import OrderingProblem, PrecedenceGraph, Service, branch_and_bound
from repro.core.cost_model import CommunicationCostMatrix
from repro.exceptions import InvalidProblemError
from repro.serialization import (
    PROBLEM_FORMAT,
    load_problem,
    plan_to_dict,
    problem_from_dict,
    problem_from_wire,
    problem_to_dict,
    problem_to_wire,
    result_to_dict,
    save_problem,
)
from repro.serving import fingerprint_problem
from repro.workloads import credit_card_screening, federated_document_pipeline


class TestProblemRoundTrip:
    def test_round_trip_preserves_everything(self, four_service_problem):
        document = problem_to_dict(four_service_problem)
        assert document["format"] == PROBLEM_FORMAT
        restored = problem_from_dict(document)
        assert restored.costs == four_service_problem.costs
        assert restored.selectivities == four_service_problem.selectivities
        assert restored.transfer == four_service_problem.transfer
        assert [s.name for s in restored.services] == [s.name for s in four_service_problem.services]

    def test_round_trip_with_precedence_and_hosts(self):
        problem = federated_document_pipeline()
        restored = problem_from_dict(problem_to_dict(problem))
        assert restored.has_precedence_constraints
        assert sorted(restored.precedence.edges()) == sorted(problem.precedence.edges())
        assert [s.host for s in restored.services] == [s.host for s in problem.services]
        # Optimization gives the same answer on both.
        assert branch_and_bound(restored).cost == pytest.approx(branch_and_bound(problem).cost)

    def test_round_trip_with_sink_transfer(self, three_service_problem):
        problem = three_service_problem.with_sink_transfer([1.0, 2.0, 3.0])
        restored = problem_from_dict(problem_to_dict(problem))
        assert restored.sink_transfer == (1.0, 2.0, 3.0)

    def test_file_round_trip(self, tmp_path):
        problem = credit_card_screening()
        path = save_problem(problem, tmp_path / "problem.json")
        restored = load_problem(path)
        assert restored.name == problem.name
        assert restored.transfer == problem.transfer
        # The file is valid, human-readable JSON.
        document = json.loads(path.read_text())
        assert document["format"] == PROBLEM_FORMAT


class TestMalformedDocuments:
    def test_wrong_format_rejected(self):
        with pytest.raises(InvalidProblemError):
            problem_from_dict({"format": "something-else", "services": [], "transfer": []})

    def test_wrong_version_rejected(self, four_service_problem):
        document = problem_to_dict(four_service_problem)
        document["version"] = 99
        with pytest.raises(InvalidProblemError):
            problem_from_dict(document)

    def test_missing_fields_rejected(self):
        with pytest.raises(InvalidProblemError):
            problem_from_dict({"format": PROBLEM_FORMAT, "version": 1, "services": [{"name": "a"}]})

    def test_empty_services_rejected(self):
        with pytest.raises(InvalidProblemError):
            problem_from_dict({"services": [], "transfer": []})

    def test_malformed_service_entry_rejected(self):
        with pytest.raises(InvalidProblemError):
            problem_from_dict({"services": [{"cost": 1.0}], "transfer": [[0.0]]})

    def test_malformed_precedence_edge_rejected(self, three_service_problem):
        document = problem_to_dict(three_service_problem)
        document["precedence"] = [[0]]
        with pytest.raises(InvalidProblemError):
            problem_from_dict(document)

    def test_non_dict_rejected(self):
        with pytest.raises(InvalidProblemError):
            problem_from_dict(["not", "a", "dict"])  # type: ignore[arg-type]

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidProblemError):
            load_problem(path)


class TestPlanAndResultSerialization:
    def test_plan_to_dict(self, four_service_problem):
        plan = branch_and_bound(four_service_problem).plan
        document = plan_to_dict(plan)
        assert document["order"] == list(plan.order)
        assert document["cost"] == pytest.approx(plan.cost)
        assert len(document["stages"]) == 4
        assert document["stages"][0]["input_rate"] == 1.0

    def test_result_to_dict_is_json_serializable(self, four_service_problem):
        result = branch_and_bound(four_service_problem)
        document = result_to_dict(result)
        encoded = json.dumps(document)
        assert "branch_and_bound" in encoded
        assert document["plan"]["cost"] == pytest.approx(result.cost)


class TestProblemWire:
    def test_roundtrip_is_lossless(self, make_random_problem):
        problem = make_random_problem(7, 11, selectivity_range=(0.2, 1.6))
        decoded = problem_from_wire(problem_to_wire(problem))
        assert decoded.size == problem.size
        assert decoded.costs == problem.costs
        assert decoded.selectivities == problem.selectivities
        assert decoded.name == problem.name
        for i in range(problem.size):
            assert decoded.service(i).name == problem.service(i).name
            for j in range(problem.size):
                assert decoded.transfer_cost(i, j) == problem.transfer_cost(i, j)

    def test_roundtrip_preserves_precedence_and_sink(self):
        precedence = PrecedenceGraph(4)
        precedence.add(0, 2)
        precedence.add(3, 1)
        problem = OrderingProblem.from_parameters(
            costs=[1.0, 2.0, 3.0, 0.5],
            selectivities=[0.8, 0.6, 0.9, 0.4],
            transfer=CommunicationCostMatrix.uniform(4, 1.0),
            precedence=precedence,
            sink_transfer=[0.1, 0.2, 0.0, 0.4],
            name="constrained",
        )
        decoded = problem_from_wire(problem_to_wire(problem))
        assert decoded.sink_transfer == problem.sink_transfer
        assert decoded.precedence is not None
        assert sorted(decoded.precedence.edges()) == sorted(problem.precedence.edges())
        # A plan violating the decoded constraints must still be rejected.
        with pytest.raises(Exception):
            decoded.validate_plan((2, 0, 1, 3))

    def test_roundtrip_preserves_hosts_and_threads(self):
        services = [
            Service(name="a", cost=1.0, selectivity=0.5, host="h1", threads=2),
            Service(name="b", cost=2.0, selectivity=0.8, host=None, threads=1),
        ]
        problem = OrderingProblem(services, CommunicationCostMatrix.uniform(2, 1.0))
        decoded = problem_from_wire(problem_to_wire(problem))
        assert decoded.service(0).host == "h1"
        assert decoded.service(0).threads == 2
        assert decoded.service(1).host is None

    def test_costs_agree_bit_for_bit(self, make_random_problem):
        problem = make_random_problem(6, 3)
        decoded = problem_from_wire(problem_to_wire(problem))
        order = tuple(range(6))
        assert decoded.cost(order) == problem.cost(order)
        assert (
            fingerprint_problem(decoded).digest == fingerprint_problem(problem).digest
        )

    def test_payload_is_hashable_and_compact(self, make_random_problem):
        problem = make_random_problem(8, 5)
        payload = problem_to_wire(problem)
        assert hash(payload) == hash(problem_to_wire(problem))
        # The whole point of the codec: shipping the payload must be cheaper
        # than deep-pickling the object graph (which drags Service objects,
        # the matrix wrapper and any cached evaluation kernel along).
        problem.evaluator()
        assert len(pickle.dumps(payload)) < len(pickle.dumps(problem))

    def test_version_guard(self, make_random_problem):
        payload = problem_to_wire(make_random_problem(3, 0))
        with pytest.raises(InvalidProblemError):
            problem_from_wire((99,) + payload[1:])
        with pytest.raises(InvalidProblemError):
            problem_from_wire("not-a-payload")
