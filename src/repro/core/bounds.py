"""The two guide measures of the branch-and-bound algorithm.

The algorithm of the paper steers its search with two quantities per partial
plan ``C``:

* ``ε`` — the bottleneck cost of ``C`` itself (maintained incrementally by
  the kernel's :class:`repro.core.evaluation.PrefixState`); Lemma 1 states
  it never decreases when the prefix is extended, so it is a valid lower
  bound for every completion.
* ``ε̄`` — the **maximum possible cost** any service not yet included in ``C``
  may still incur, whatever the remaining ordering.  Lemma 2 states that if
  ``ε >= ε̄`` the bottleneck of every completion of ``C`` equals ``ε``.

For purely selective services (``σ <= 1``) the number of tuples reaching a
remaining service is at most the output rate of ``C``.  For proliferative
services (``σ > 1``) the bound must account for the possible inflation caused
by remaining proliferative services placed in between — this is the "slight
modification" the paper mentions; it is implemented as the product of the
remaining ``σ > 1`` values, excluding the bounded service itself.

The arithmetic itself lives in
:meth:`repro.core.evaluation.PlanEvaluator.residual_parts`, which operates on
the kernel's pre-extracted arrays; this module is the public face over a
:class:`~repro.core.evaluation.PrefixState` (build one with
:meth:`~repro.core.evaluation.PlanEvaluator.prefix`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluation import PrefixState
from repro.core.problem import OrderingProblem

__all__ = ["ResidualBound", "epsilon_bar", "max_residual_cost", "initial_upper_bound"]


@dataclass(frozen=True)
class ResidualBound:
    """The value of ``ε̄`` for a partial plan, with attribution for diagnostics.

    Attributes
    ----------
    value:
        The bound ``ε̄`` itself.
    critical_service:
        Index of the service whose worst-case term attains the bound
        (``None`` when the bound is attained by completing the term of the
        prefix's last service).
    last_service_bound:
        Worst-case *settled* term of the prefix's current last service, i.e.
        the largest value its term can take once its successor becomes known.
    """

    value: float
    critical_service: int | None
    last_service_bound: float


def max_residual_cost(partial: PrefixState) -> ResidualBound:
    """Compute ``ε̄`` for ``partial`` (see module docstring).

    The bound is the maximum of

    * the worst-case completed term of the prefix's last service (its outgoing
      transfer is not settled yet), and
    * for every remaining service ``j``: the worst-case number of tuples that
      can reach ``j`` times ``(c_j + σ_j * worst outgoing transfer of j)``.
    """
    value, critical, last_bound = partial.evaluator.residual(partial)
    return ResidualBound(value=value, critical_service=critical, last_service_bound=last_bound)


def epsilon_bar(partial: PrefixState) -> float:
    """Shorthand returning only the value of ``ε̄``."""
    return max_residual_cost(partial).value


def initial_upper_bound(problem: OrderingProblem) -> float:
    """A trivially valid upper bound on the optimal bottleneck cost.

    Used by optimizers before any plan has been completed: the bound of the
    empty prefix (every service processed at full input rate with its worst
    outgoing transfer, inflated by every proliferative service) is an upper
    bound on the cost of *any* plan, hence also on the optimum.
    """
    return epsilon_bar(problem.evaluator().root())
