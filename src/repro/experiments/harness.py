"""The experiment harness.

Every experiment (E1–E8, see ``DESIGN.md``) is a function returning an
:class:`ExperimentResult`: a table of rows (what a paper table/figure would
plot), free-form notes, and the parameters that produced it.  The harness
provides the result container, a registry, markdown rendering used to
regenerate ``EXPERIMENTS.md``, and :func:`optimize_suite` — the bulk
compilation entry point experiments use to solve whole instance suites,
optionally on worker processes.
"""

from __future__ import annotations

import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from repro.core.optimizer import optimize
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.exceptions import ExperimentError, OptimizationError, ParallelError, ReproError
from repro.serialization import problem_from_wire, problem_to_wire
from repro.utils.tables import Table

__all__ = ["ExperimentResult", "Experiment", "ExperimentRegistry", "optimize_suite"]


def _solve(payload: tuple, algorithm: str, options: dict) -> tuple:
    """Optimize one wire payload: ``(order, algorithm, optimal, statistics)``."""
    result = optimize(problem_from_wire(payload), algorithm=algorithm, **options)
    return result.order, result.algorithm, result.optimal, result.statistics


def _ignore_sigint() -> None:
    """Worker initializer: a foreground Ctrl-C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def optimize_suite(
    problems: Sequence[OrderingProblem],
    algorithm: str = "branch_and_bound",
    workers: int | None = None,
    **options: object,
) -> list[OptimizationResult]:
    """Optimize every problem of a suite with one algorithm, preserving order.

    Structural twins (equal :func:`~repro.serialization.problem_to_wire`
    payloads) are optimized once.  With ``workers`` unset (or 1) each unique
    payload is optimized in process; with ``workers > 1`` on a
    :class:`~concurrent.futures.ProcessPoolExecutor` of up to that many
    processes.  Every answer is re-attached to its own submitted instance
    through ``problem.plan(order)``, so each plan is re-validated and
    re-costed in this process; the wire codec being lossless, the results
    are identical either way.

    Raises :class:`~repro.exceptions.OptimizationError` naming the position
    of the first failing problem, and :class:`~repro.exceptions.ParallelError`
    if a worker process dies.
    """
    payloads = [problem_to_wire(problem) for problem in problems]
    first_position: dict[tuple, int] = {}
    for position, payload in enumerate(payloads):
        first_position.setdefault(payload, position)
    answers: dict[tuple, tuple] = {}
    current: tuple | None = None  # the payload being optimized or awaited
    try:
        if workers is None or workers <= 1:
            for current in first_position:
                answers[current] = _solve(current, algorithm, options)
        elif first_position:
            from repro.sharding.process import preferred_context

            executor = ProcessPoolExecutor(
                min(workers, len(first_position)),
                mp_context=preferred_context(),
                initializer=_ignore_sigint,
            )
            try:
                futures = {
                    payload: executor.submit(_solve, payload, algorithm, options)
                    for payload in first_position
                }
                for current, future in futures.items():
                    answers[current] = future.result()
            finally:
                executor.shutdown(cancel_futures=True)
    except BrokenProcessPool as error:
        raise ParallelError(f"a worker process died while optimizing the suite: {error}") from error
    except (ReproError, TypeError) as error:
        position = first_position[current]
        name = problems[position].name
        raise OptimizationError(
            f"optimize_suite failed on problem {position}"
            f"{f' ({name!r})' if name else ''}: {type(error).__name__}: {error}"
        ) from error
    results = []
    for problem, payload in zip(problems, payloads):
        order, solver, optimal, statistics = answers[payload]
        plan = problem.plan(order)
        results.append(
            OptimizationResult(
                plan=plan,
                cost=plan.cost,
                algorithm=solver,
                optimal=optimal,
                statistics=replace(statistics, extra=dict(statistics.extra)),
            )
        )
    return results


@dataclass
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment_id: str
    """Identifier such as ``"E1"``."""

    title: str
    """Short description of what the experiment measures."""

    table: Table
    """The rows the paper's corresponding table/figure would contain."""

    parameters: dict[str, Any] = field(default_factory=dict)
    """The parameters the experiment ran with (sizes, seeds, repetitions)."""

    notes: list[str] = field(default_factory=list)
    """Observations worth recording next to the table (e.g. claim checks)."""

    def to_markdown(self) -> str:
        """Render the full result (title, parameters, table, notes) as markdown."""
        lines = [f"## {self.experiment_id} — {self.title}", ""]
        if self.parameters:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(self.parameters.items()))
            lines.append(f"*Parameters:* {rendered}")
            lines.append("")
        lines.append(self.table.to_markdown())
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"* {note}")
        return "\n".join(lines)

    def row_dicts(self) -> list[dict[str, Any]]:
        """The table rows as dictionaries (convenient for assertions in tests)."""
        return self.table.to_dicts()


@dataclass(frozen=True)
class Experiment:
    """A registered experiment definition."""

    experiment_id: str
    title: str
    question: str
    runner: Callable[..., ExperimentResult]

    def run(self, **parameters: Any) -> ExperimentResult:
        """Execute the experiment with the given parameter overrides."""
        return self.runner(**parameters)


class ExperimentRegistry:
    """Keeps the experiment definitions addressable by id."""

    def __init__(self) -> None:
        self._experiments: dict[str, Experiment] = {}

    def register(self, experiment: Experiment) -> None:
        """Add an experiment; duplicate ids are rejected."""
        if experiment.experiment_id in self._experiments:
            raise ExperimentError(f"experiment {experiment.experiment_id!r} is already registered")
        self._experiments[experiment.experiment_id] = experiment

    def get(self, experiment_id: str) -> Experiment:
        """Look up an experiment by id."""
        try:
            return self._experiments[experiment_id]
        except KeyError:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; registered: {sorted(self._experiments)}"
            ) from None

    def run(self, experiment_id: str, **parameters: Any) -> ExperimentResult:
        """Run the experiment with the given id."""
        return self.get(experiment_id).run(**parameters)

    def run_all(self, **parameters: Mapping[str, Any]) -> list[ExperimentResult]:
        """Run every registered experiment with per-experiment parameter overrides.

        ``parameters`` maps experiment ids to keyword dictionaries; experiments
        without an entry run with their defaults.
        """
        results = []
        for experiment_id in sorted(self._experiments):
            overrides = dict(parameters.get(experiment_id, {}))
            results.append(self.run(experiment_id, **overrides))
        return results

    def ids(self) -> list[str]:
        """All registered experiment ids, sorted."""
        return sorted(self._experiments)

    def __len__(self) -> int:
        return len(self._experiments)

    def __contains__(self, experiment_id: object) -> bool:
        return experiment_id in self._experiments
