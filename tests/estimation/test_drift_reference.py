"""The compact drift reference measures exactly what ``compute_drift`` does."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrderingProblem
from repro.estimation import DriftReference, compute_drift
from repro.exceptions import EstimationError

NAMES = ("a", "b", "c", "d", "e", "f", "g")

# Zeros and sub-1e-12 values exercise the "both ~0" branch of the relative change.
values = st.one_of(
    st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)
positive = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def _problem(draw, names, old=None, keep=None):
    """A problem over ``names``; with ``old``, each parameter keeps its old
    value when ``keep`` draws true (so most pairs are partly unchanged)."""
    size = len(names)

    def pick(strategy, previous):
        if previous is not None and draw(keep):
            return previous
        return draw(strategy)

    costs = [pick(values, old and old[0][name]) for name in names]
    selectivities = [pick(positive, old and old[1][name]) for name in names]
    rows = [
        [
            0.0 if i == j else pick(values, old and old[2][names[i], names[j]])
            for j in range(size)
        ]
        for i in range(size)
    ]
    return OrderingProblem.from_parameters(costs, selectivities, rows, names=list(names))


def _parameters(problem):
    names = [service.name for service in problem.services]
    return (
        dict(zip(names, problem.costs)),
        dict(zip(names, problem.selectivities)),
        {
            (source, destination): problem.transfer_cost(i, j)
            for i, source in enumerate(names)
            for j, destination in enumerate(names)
        },
    )


@st.composite
def problem_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    names = tuple(draw(st.permutations(NAMES))[:size])
    current = _problem(draw, names)
    shape = draw(st.sampled_from(["reindexed", "reindexed", "renamed", "resized"]))
    observed_names = list(draw(st.permutations(names)))
    if shape == "renamed":
        spare = [name for name in NAMES if name not in names]
        observed_names[draw(st.integers(0, size - 1))] = draw(st.sampled_from(spare))
    elif shape == "resized":
        extra = [name for name in NAMES if name not in names]
        observed_names = observed_names[:-1] if size > 1 and draw(st.booleans()) else (
            observed_names + [draw(st.sampled_from(extra))]
        )
    old = _parameters(current) if shape == "reindexed" else None
    observed = _problem(draw, observed_names, old, st.booleans())
    return current, observed


def _named(problem, names):
    """``problem`` with its services renamed to ``names``, index by index."""
    return OrderingProblem.from_parameters(
        list(problem.costs), list(problem.selectivities), problem.transfer.as_lists(),
        names=list(names),
    )


@settings(max_examples=300, deadline=None)
@given(problem_pairs())
def test_reference_drift_is_compute_drift(pair):
    current, observed = pair
    reference = DriftReference.of(current)
    names = [service.name for service in current.services]
    observed_names = [service.name for service in observed.services]
    if len(observed_names) != len(names):
        # Resized: no pairing of the services exists, and both refuse.
        with pytest.raises(EstimationError):
            compute_drift(current, observed)
        with pytest.raises(EstimationError):
            reference.drift(observed)
        return
    # The reference pairs services by position through ``order``: here each
    # with its namesake, and a renamed service with the one whose name it
    # replaced.  Reindexed problems get compute_drift's result; a renamed one
    # gets a positional drift where compute_drift raises, equal to
    # compute_drift's once the renamed service carries the replaced name.
    replaced = dict(
        zip(sorted(set(observed_names) - set(names)), sorted(set(names) - set(observed_names)))
    )
    namesakes = [replaced.get(name, name) for name in observed_names]
    order = [namesakes.index(name) for name in names]
    if replaced:
        with pytest.raises(EstimationError):
            compute_drift(current, observed)
        expected = compute_drift(current, _named(observed, namesakes))
    else:
        expected = compute_drift(current, observed)
    assert reference.drift(observed, order) == expected  # bit for bit, component by component


def test_an_unchanged_problem_has_zero_drift(four_service_problem):
    reference = DriftReference.of(four_service_problem)
    assert reference.drift(four_service_problem).overall == 0.0
    assert len(reference.values) == 2 * 4 + 4 * 4
