"""Complete linear plans.

A *plan* is a linear ordering of all services; its quality is the bottleneck
cost metric of Eq. 1.  Partial plans (prefixes, with the incremental ``ε``
state the paper's guide measures need) are the evaluation kernel's
:class:`repro.core.evaluation.PrefixState`, built with
:meth:`repro.core.evaluation.PlanEvaluator.prefix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.exceptions import InvalidPlanError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost_model import StageCost
    from repro.core.problem import OrderingProblem

__all__ = ["Plan"]


@dataclass(frozen=True)
class Plan:
    """A complete linear ordering of the services of a problem.

    Instances are normally created through
    :meth:`repro.core.problem.OrderingProblem.plan`, which also validates the
    ordering (permutation + precedence constraints).
    """

    problem: "OrderingProblem"
    order: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of services in the plan."""
        return len(self.order)

    @property
    def cost(self) -> float:
        """The bottleneck cost metric (Eq. 1) of the plan."""
        return self.problem.cost(self.order)

    @property
    def service_names(self) -> tuple[str, ...]:
        """Names of the services in plan order."""
        return tuple(self.problem.service(index).name for index in self.order)

    def stage_costs(self) -> list["StageCost"]:
        """Per-stage cost breakdown."""
        return self.problem.stage_costs(self.order)

    def bottleneck_stage(self) -> "StageCost":
        """The stage attaining the bottleneck cost."""
        return self.problem.bottleneck_stage(self.order)

    def position_of(self, service_index: int) -> int:
        """Position of ``service_index`` within the plan."""
        try:
            return self.order.index(service_index)
        except ValueError:
            raise InvalidPlanError(f"service {service_index} is not part of the plan") from None

    def describe(self) -> str:
        """Multi-line human readable description used by examples and reports."""
        lines = [f"Plan (bottleneck cost {self.cost:.6g}):"]
        bottleneck = self.bottleneck_stage()
        for stage in self.stage_costs():
            marker = "  <-- bottleneck" if stage.position == bottleneck.position else ""
            name = self.problem.service(stage.service_index).name
            lines.append(
                f"  {stage.position}: {name:<16} rate={stage.input_rate:.4g} "
                f"proc={stage.processing:.4g} xfer={stage.transfer:.4g} "
                f"term={stage.total:.4g}{marker}"
            )
        return "\n".join(lines)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __str__(self) -> str:
        return " -> ".join(self.service_names)
