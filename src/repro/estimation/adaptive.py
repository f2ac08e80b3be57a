"""Adaptive re-optimization.

Service costs, selectivities and link characteristics drift while a
long-running query executes (load spikes, data-distribution changes, network
congestion).  The announcement's setting is static, but any deployment of the
algorithm runs it inside a monitor → re-estimate → re-optimize loop.  This
module provides that loop's decision logic:

* :func:`compute_drift` quantifies how far freshly estimated parameters have
  moved from the ones the current plan was optimized for
  (:class:`DriftReference` measures it against a compact copy of those
  parameters, pairing services by position, for callers that must not keep
  the problem alive), and
* :class:`AdaptiveReoptimizer` decides when the drift is large enough to pay
  for a re-optimization and whether the newly optimal plan is enough of an
  improvement to actually switch (switching has a cost: in-flight tuples have
  to be drained or re-routed).

The controller is deliberately framework-free: callers feed it re-estimated
:class:`~repro.core.problem.OrderingProblem` instances (e.g. produced by
:class:`repro.estimation.calibration.ProblemCalibrator` from execution traces)
and act on the returned decision.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.optimizer import optimize
from repro.core.problem import OrderingProblem
from repro.exceptions import EstimationError

__all__ = [
    "ParameterDrift",
    "DriftReference",
    "ReoptimizationDecision",
    "AdaptiveReoptimizer",
    "compute_drift",
]


def _relative_change(old: float, new: float) -> float:
    """Relative change between two non-negative parameters (0 when both are ~0)."""
    scale = max(abs(old), abs(new))
    if scale < 1e-12:
        return 0.0
    return abs(new - old) / scale


@dataclass(frozen=True)
class ParameterDrift:
    """How far re-estimated parameters moved from the currently assumed ones."""

    max_cost_drift: float
    """Largest relative change of any service's processing cost."""

    max_selectivity_drift: float
    """Largest relative change of any service's selectivity."""

    max_transfer_drift: float
    """Largest relative change of any pairwise transfer cost."""

    @property
    def overall(self) -> float:
        """The largest of the three component drifts."""
        return max(self.max_cost_drift, self.max_selectivity_drift, self.max_transfer_drift)

    def exceeds(self, threshold: float) -> bool:
        """Whether any component drift is beyond ``threshold``.

        This is the trigger condition shared by the adaptive re-optimization
        loop and the plan cache's drift-based revalidation.
        """
        return self.overall > threshold


def compute_drift(current: OrderingProblem, observed: OrderingProblem) -> ParameterDrift:
    """Compare two problems describing the same services (matched by name)."""
    if sorted(s.name for s in current.services) != sorted(s.name for s in observed.services):
        raise EstimationError(
            "cannot compute drift: the two problems describe different service sets"
        )
    index_map = [observed.service_index(service.name) for service in current.services]

    cost_drift = 0.0
    selectivity_drift = 0.0
    for current_index, observed_index in enumerate(index_map):
        cost_drift = max(
            cost_drift,
            _relative_change(current.costs[current_index], observed.costs[observed_index]),
        )
        selectivity_drift = max(
            selectivity_drift,
            _relative_change(
                current.selectivities[current_index], observed.selectivities[observed_index]
            ),
        )

    transfer_drift = 0.0
    for i in range(current.size):
        for j in range(current.size):
            if i == j:
                continue
            transfer_drift = max(
                transfer_drift,
                _relative_change(
                    current.transfer_cost(i, j),
                    observed.transfer_cost(index_map[i], index_map[j]),
                ),
            )
    return ParameterDrift(
        max_cost_drift=cost_drift,
        max_selectivity_drift=selectivity_drift,
        max_transfer_drift=transfer_drift,
    )


def _max_relative_change(olds: Iterable[float], news: Iterable[float]) -> float:
    """The largest :func:`_relative_change` of the pairs (0 when none changed).

    Equal pairs change by exactly 0, which never raises a maximum that starts
    at 0, so they are skipped without computing it.
    """
    worst = 0.0
    for old, new in zip(olds, news):
        if old != new:
            change = _relative_change(old, new)
            if change > worst:
                worst = change
    return worst


@dataclass(frozen=True, slots=True)
class DriftReference:
    """The parameters a plan was optimized for, without the problem itself.

    Holds one ``array('d')``: the costs, then the selectivities, then the
    transfer matrix row by row, with the services listed in the ``order``
    the reference was taken in.  :meth:`drift` pairs services by position:
    position ``p`` of the reference with service ``order[p]`` of the
    observed problem.  The plan cache takes both orders from the problems'
    fingerprints, which pair exactly the services a cached plan is
    translated through; when both orders list the same service names, the
    result is bit-identical to :func:`compute_drift` — at a fraction of the
    memory a whole :class:`~repro.core.problem.OrderingProblem` holds.
    """

    values: array
    """Costs, selectivities and the row-major transfer matrix, in order."""

    @classmethod
    def of(cls, problem: OrderingProblem, order: Sequence[int] | None = None) -> "DriftReference":
        """Snapshot ``problem``'s parameters with its services listed in
        ``order`` (default: index order)."""
        if order is None:
            order = range(problem.size)
        costs, selectivities = problem.costs, problem.selectivities
        values = array("d", [costs[i] for i in order])
        values.extend([selectivities[i] for i in order])
        values.extend(_transfer_in_order(problem, order))
        return cls(values=values)

    def drift(
        self, observed: OrderingProblem, order: Sequence[int] | None = None
    ) -> ParameterDrift:
        """The drift from the reference to ``observed``, whose services are
        paired by position through ``order`` (default: index order).

        Raises :class:`~repro.exceptions.EstimationError` when ``observed``
        has a different number of services.
        """
        values = self.values
        size = observed.size
        if order is None:
            order = range(size)
        # n costs, n selectivities and n² transfers fix the reference's n.
        if len(values) != size * (size + 2) or len(order) != size:
            raise EstimationError(
                "cannot compute drift: the two problems describe different service sets"
            )
        costs, selectivities = observed.costs, observed.selectivities
        return ParameterDrift(
            max_cost_drift=_max_relative_change(values[:size], [costs[i] for i in order]),
            max_selectivity_drift=_max_relative_change(
                values[size : 2 * size], [selectivities[i] for i in order]
            ),
            # The diagonal is zero in both matrices and changes by exactly 0.
            max_transfer_drift=_max_relative_change(
                values[2 * size :], _transfer_in_order(observed, order)
            ),
        )


def _transfer_in_order(problem: OrderingProblem, order: Sequence[int]) -> list[float]:
    """``problem``'s transfer matrix, row-major, rows and columns in ``order``."""
    rows = problem.transfer
    return [row[j] for row in map(rows.row, order) for j in order]


@dataclass(frozen=True)
class ReoptimizationDecision:
    """The outcome of one adaptation step."""

    reoptimized: bool
    """Whether a re-optimization was run at all (drift exceeded the threshold)."""

    switched: bool
    """Whether the controller adopted a new plan."""

    drift: ParameterDrift
    """The measured parameter drift that triggered (or did not trigger) the step."""

    current_plan_cost: float
    """Cost of the previously adopted plan under the *observed* parameters."""

    best_plan_cost: float
    """Cost of the best plan under the observed parameters (equals
    ``current_plan_cost`` when no re-optimization was run)."""

    @property
    def improvement(self) -> float:
        """Relative improvement the best plan offers over the current one."""
        if self.current_plan_cost <= 0:
            return 0.0
        return (self.current_plan_cost - self.best_plan_cost) / self.current_plan_cost


class AdaptiveReoptimizer:
    """Decides when to re-optimize a running pipeline and whether to switch plans."""

    def __init__(
        self,
        problem: OrderingProblem,
        drift_threshold: float = 0.05,
        improvement_threshold: float = 0.02,
        algorithm: str = "branch_and_bound",
    ) -> None:
        if drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if improvement_threshold < 0:
            raise ValueError("improvement_threshold must be non-negative")
        self.drift_threshold = drift_threshold
        self.improvement_threshold = improvement_threshold
        self.algorithm = algorithm
        self._problem = problem
        self._plan_order = tuple(optimize(problem, algorithm=algorithm).order)
        self._adaptations = 0

    # -- state ------------------------------------------------------------------

    @property
    def problem(self) -> OrderingProblem:
        """The problem the current plan was optimized for."""
        return self._problem

    @property
    def current_order(self) -> tuple[int, ...]:
        """The currently adopted plan, as indices of :attr:`problem`."""
        return self._plan_order

    @property
    def current_plan_names(self) -> tuple[str, ...]:
        """The currently adopted plan, as service names (stable across re-estimates)."""
        return tuple(self._problem.service(index).name for index in self._plan_order)

    @property
    def adaptations(self) -> int:
        """Number of times the controller switched plans."""
        return self._adaptations

    # -- adaptation ---------------------------------------------------------------

    def update(self, observed: OrderingProblem) -> ReoptimizationDecision:
        """Feed freshly estimated parameters and decide whether to switch plans.

        ``observed`` must describe the same services (matched by name); its
        indices may differ from the current problem's.
        """
        drift = compute_drift(self._problem, observed)
        observed_order = tuple(
            observed.service_index(name) for name in self.current_plan_names
        )
        current_cost = observed.cost(observed_order)

        if drift.overall < self.drift_threshold:
            return ReoptimizationDecision(
                reoptimized=False,
                switched=False,
                drift=drift,
                current_plan_cost=current_cost,
                best_plan_cost=current_cost,
            )

        best = optimize(observed, algorithm=self.algorithm)
        switched = (
            current_cost > 0
            and (current_cost - best.cost) / current_cost >= self.improvement_threshold
        )
        if switched:
            self._adaptations += 1
        # Whether or not we switch, the observed parameters become the new baseline,
        # so subsequent drift is measured against what we now believe to be true.
        self._problem = observed
        self._plan_order = best.plan.order if switched else observed_order
        return ReoptimizationDecision(
            reoptimized=True,
            switched=switched,
            drift=drift,
            current_plan_cost=current_cost,
            best_plan_cost=best.cost,
        )
