"""Shared fixtures: small, hand-checkable problems and generated instances."""

from __future__ import annotations

import random

import pytest

from repro.core import CommunicationCostMatrix, OrderingProblem, PrecedenceGraph, Service
from repro.workloads import credit_card_screening, federated_document_pipeline


@pytest.fixture
def two_service_problem() -> OrderingProblem:
    """Two services, hand-computable costs.

    Plan (0, 1): terms are ``c0 + s0*t01 = 2 + 0.5*1 = 2.5`` and ``0.5*c1 = 1.5``
    -> bottleneck 2.5.
    Plan (1, 0): terms are ``c1 + s1*t10 = 3 + 0.6*4 = 5.4`` and ``0.6*c0 = 1.2``
    -> bottleneck 5.4.
    """
    return OrderingProblem.from_parameters(
        costs=[2.0, 3.0],
        selectivities=[0.5, 0.6],
        transfer=CommunicationCostMatrix([[0.0, 1.0], [4.0, 0.0]]),
        names=["alpha", "beta"],
    )


@pytest.fixture
def three_service_problem() -> OrderingProblem:
    """Three services with heterogeneous transfer costs."""
    return OrderingProblem.from_parameters(
        costs=[2.0, 1.0, 4.0],
        selectivities=[0.5, 0.9, 0.3],
        transfer=CommunicationCostMatrix(
            [[0.0, 1.0, 5.0], [2.0, 0.0, 1.0], [4.0, 2.0, 0.0]]
        ),
    )


@pytest.fixture
def four_service_problem() -> OrderingProblem:
    """Four services used by the optimizer comparison tests."""
    return OrderingProblem.from_parameters(
        costs=[2.0, 1.0, 4.0, 0.5],
        selectivities=[0.5, 0.9, 0.3, 0.7],
        transfer=CommunicationCostMatrix(
            [
                [0.0, 1.0, 5.0, 2.0],
                [2.0, 0.0, 1.0, 3.0],
                [4.0, 2.0, 0.0, 0.5],
                [1.0, 2.0, 3.0, 0.0],
            ]
        ),
    )


@pytest.fixture
def constrained_problem() -> OrderingProblem:
    """Five services with a precedence chain 0 -> 2 and 1 -> 3."""
    precedence = PrecedenceGraph(5)
    precedence.add(0, 2)
    precedence.add(1, 3)
    return OrderingProblem.from_parameters(
        costs=[1.0, 2.0, 3.0, 0.5, 1.5],
        selectivities=[0.8, 0.6, 0.9, 0.4, 0.7],
        transfer=CommunicationCostMatrix.uniform(5, 1.0),
        precedence=precedence,
    )


@pytest.fixture
def proliferative_problem() -> OrderingProblem:
    """A problem containing a proliferative (sigma > 1) service."""
    return OrderingProblem.from_parameters(
        costs=[4.0, 6.0, 9.0, 2.0],
        selectivities=[1.8, 0.45, 0.3, 0.55],
        transfer=CommunicationCostMatrix(
            [
                [0.0, 1.5, 12.0, 12.0],
                [1.5, 0.0, 12.0, 12.0],
                [12.0, 12.0, 0.0, 1.5],
                [12.0, 12.0, 1.5, 0.0],
            ]
        ),
    )


@pytest.fixture
def credit_card_problem() -> OrderingProblem:
    """The paper's motivating scenario."""
    return credit_card_screening()


@pytest.fixture
def document_problem() -> OrderingProblem:
    """The scenario with precedence constraints and asymmetric transfers."""
    return federated_document_pipeline()


def random_problem(
    size: int,
    seed: int,
    selectivity_range: tuple[float, float] = (0.1, 1.0),
    cost_range: tuple[float, float] = (0.0, 5.0),
    transfer_range: tuple[float, float] = (0.0, 4.0),
) -> OrderingProblem:
    """A small random problem for cross-checking optimizers (module-level helper)."""
    rng = random.Random(seed)
    costs = [rng.uniform(*cost_range) for _ in range(size)]
    selectivities = [rng.uniform(*selectivity_range) for _ in range(size)]
    rows = [
        [0.0 if i == j else rng.uniform(*transfer_range) for j in range(size)]
        for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows)


@pytest.fixture
def make_random_problem():
    """Factory fixture around :func:`random_problem`."""
    return random_problem


def pruning_resistant_problem(size: int, seed: int = 0) -> OrderingProblem:
    """Near-unit selectivities keep exact searches from closing subtrees early."""
    rng = random.Random(seed)
    return OrderingProblem.from_parameters(
        [rng.uniform(1.0, 1.3) for _ in range(size)],
        [rng.uniform(0.9, 1.0) for _ in range(size)],
        [
            [0.0 if i == j else rng.uniform(0.5, 4.0) for j in range(size)]
            for i in range(size)
        ],
        name=f"resistant-n{size}",
    )


@pytest.fixture
def make_resistant_problem():
    """Factory fixture around :func:`pruning_resistant_problem`."""
    return pruning_resistant_problem
