"""Deadline-budgeted portfolio optimization.

A plan service answers under a latency budget, but the registry's algorithms
span five orders of magnitude in runtime: the greedy heuristics return in
microseconds, beam search in milliseconds, branch-and-bound (exact) possibly
much longer on large instances.  The portfolio exploits that spread with a
**staged ladder** that runs on the caller's thread:

1. the **anytime seed** — the first configured algorithm (greedy by default)
   runs to completion regardless of the budget, so there is always an answer
   to return, then
2. every later member runs in ladder order, each only if no earlier member
   *proved* optimality (no member can beat a proven cost).  Every member but
   the last may use at most half of the budget that remains when it starts;
   the last may use all of it.

The default ladder puts branch-and-bound right after the seed: it proves the
optimum of most served instances in milliseconds, and beam search runs only
when the proof did not finish in time.  Members do not race on threads:
threads share one interpreter, so a race only time-slices the proof with
work that cannot beat it.

Each member's ``stop`` argument to :func:`~repro.core.optimizer.optimize` is
a signal whose ``is_set()`` turns true at the member's deadline or when the
portfolio is closed.  Every search loop of the library checks it and raises
:class:`~repro.exceptions.SearchLimitExceededError`, so an over-budget member
returns within one loop step of its deadline and :meth:`PortfolioOptimizer.close`
ends a race in flight.  A stopped branch-and-bound hands back its best plan
so far (the error's ``incumbent``) as that member's result.  A runner
registered in :data:`~repro.core.optimizer.ALGORITHMS` from outside the
library may ignore ``stop``; it alone runs on a daemon thread, which the race
abandons at the member's deadline, so the deadline holds whatever it does.

The portfolio reuses :data:`repro.core.optimizer.ALGORITHMS` and returns the
best :class:`~repro.core.result.OptimizationResult` of the ladder, ties
broken by ladder position.  Because the seed always completes, the answer is
never worse than the seed's; members that error out (e.g. an exact solver
refusing an over-size instance) are recorded, not fatal.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.optimizer import ALGORITHMS, optimize
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.exceptions import (
    OptimizationError,
    ReproError,
    SearchLimitExceededError,
    ServingError,
)
from repro.obs.trace import trace_span
from repro.utils.timing import Stopwatch

__all__ = [
    "PortfolioOptions",
    "PortfolioResult",
    "PortfolioOptimizer",
    "run_portfolio",
]

DEFAULT_PORTFOLIO = ("greedy_min_term", "branch_and_bound", "beam_search")
"""Default algorithm ladder: instant heuristic, exact proof, then beam search
for the instances the proof could not finish in time."""


@dataclass(frozen=True)
class PortfolioOptions:
    """Configuration of one portfolio race."""

    algorithms: tuple[str, ...] = DEFAULT_PORTFOLIO
    """Algorithm names from :data:`repro.core.optimizer.ALGORITHMS`, in ladder
    order; the first one is the anytime seed."""

    budget_seconds: float | None = 1.0
    """Wall-clock budget for the members after the seed (``None`` lets every
    member run until it finishes or an earlier one proved).  A library search
    notices its deadline at its next stop check, so it overruns by at most one
    search step (one node for branch-and-bound, the subset-product fill or
    one popcount layer for the dynamic programme); a runner registered from outside the library is
    abandoned at its deadline."""

    algorithm_options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    """Per-algorithm keyword options, e.g. ``{"beam_search": {"beam_width": 8}}``."""

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ServingError("a portfolio needs at least one algorithm")
        if len(set(self.algorithms)) != len(self.algorithms):
            # Duplicates buy nothing (same work twice) and race results are
            # keyed by member name.
            raise ServingError(f"portfolio members must be unique, got {self.algorithms!r}")
        unknown = [name for name in self.algorithms if name not in ALGORITHMS]
        if unknown:
            raise ServingError(
                f"unknown portfolio algorithms {unknown!r}; available: {', '.join(ALGORITHMS)}"
            )
        if self.budget_seconds is not None and self.budget_seconds < 0:
            raise ServingError(f"budget_seconds must be non-negative, got {self.budget_seconds!r}")


@dataclass(frozen=True)
class PortfolioResult:
    """The outcome of running a portfolio ladder on one problem."""

    best: OptimizationResult
    """The cheapest plan any member produced; ties go to the member earliest
    in the ladder."""

    results: dict[str, OptimizationResult]
    """Results by algorithm name: every member that completed, plus the
    incumbent of a branch-and-bound member that was stopped."""

    errors: dict[str, str]
    """Error messages of members that raised, by algorithm name."""

    timed_out: tuple[str, ...]
    """Members that did not run, or were stopped, because of the deadline."""

    stopped: tuple[str, ...]
    """Members skipped because an earlier member proved optimality (the
    proven cost cannot be beaten)."""

    elapsed_seconds: float
    """Wall-clock time the race took: at most the budget plus the seed's time,
    plus the step a library search was in when its deadline passed (see
    :attr:`PortfolioOptions.budget_seconds`)."""

    @property
    def refinement(self) -> float:
        """Relative improvement of :attr:`best` over the worst completed member."""
        completed = list(self.results.values())
        if not completed:
            return 0.0
        worst = max(r.cost for r in completed)
        if worst <= 0:
            return 0.0
        return (worst - self.best.cost) / worst


class _MemberStop:
    """The stop signal one ladder member sees: set once the race is stopped
    (the portfolio closed) or the member's deadline has passed."""

    __slots__ = ("_race", "_deadline")

    def __init__(self, race: threading.Event, deadline: float | None) -> None:
        self._race = race
        self._deadline = deadline

    def is_set(self) -> bool:
        return self._race.is_set() or self.expired()

    def expired(self) -> bool:
        return self._deadline is not None and time.perf_counter() >= self._deadline


class PortfolioOptimizer:
    """Runs deadline-budgeted portfolio ladders on the caller's thread.

    One instance serves any number of concurrent callers, which is what the
    long-running :class:`~repro.serving.service.PlanService` needs;
    :meth:`close` stops every race in flight.  One-shot callers can use
    :func:`run_portfolio` instead.
    """

    def __init__(self, options: PortfolioOptions | None = None):
        self.options = options if options is not None else PortfolioOptions()
        # The stop signals of the races in flight, so close() can end them.
        self._racing: set[threading.Event] = set()  # guarded-by: _racing_lock
        self._racing_lock = threading.Lock()
        self._closed = False  # guarded-by: _racing_lock

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every race in flight and refuse new ones."""
        with self._racing_lock:
            self._closed = True
            for stop in self._racing:
                stop.set()

    def __enter__(self) -> "PortfolioOptimizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- racing ------------------------------------------------------------

    def optimize(
        self, problem: OrderingProblem, budget_seconds: float | None = None
    ) -> PortfolioResult:
        """Run the configured ladder on ``problem``.

        ``budget_seconds`` overrides the options' budget for this race.  The
        first algorithm runs regardless of the budget, so the call always
        returns a valid result.
        """
        options = self.options
        budget = options.budget_seconds if budget_seconds is None else budget_seconds
        if budget is not None and budget < 0:
            raise ServingError(f"budget_seconds must be non-negative, got {budget!r}")
        stop = threading.Event()
        with self._racing_lock:
            if self._closed:
                raise ServingError("the portfolio optimizer has been closed")
            self._racing.add(stop)
        try:
            with trace_span("portfolio.race") as race_span:
                result = self._race(problem, options, budget, stop)
                race_span.annotate(
                    completed=len(result.results),
                    timed_out=len(result.timed_out),
                    stopped=len(result.stopped),
                )
        finally:
            with self._racing_lock:
                self._racing.discard(stop)
        return result

    def _race(
        self,
        problem: OrderingProblem,
        options: PortfolioOptions,
        budget: float | None,
        stop: threading.Event,
    ) -> PortfolioResult:
        stopwatch = Stopwatch().start()
        deadline = None if budget is None else time.perf_counter() + budget
        results: dict[str, OptimizationResult] = {}
        errors: dict[str, str] = {}
        timed_out: list[str] = []
        stopped: list[str] = []
        proved = False
        last = len(options.algorithms) - 1
        for position, name in enumerate(options.algorithms):
            if proved:
                stopped.append(name)
                continue
            if stop.is_set():
                errors[name] = "cancelled: the portfolio was closed"
                continue
            member_deadline = None
            if deadline is not None and position > 0:
                now = time.perf_counter()
                if now >= deadline:
                    timed_out.append(name)
                    continue
                member_deadline = deadline if position == last else now + (deadline - now) / 2
            member_stop = _MemberStop(stop, member_deadline)
            try:
                with trace_span("portfolio.member", algorithm=name, position=position):
                    results[name] = self._run_member(problem, name, member_stop)
                proved = results[name].optimal
            except SearchLimitExceededError as error:
                if error.incumbent is not None:
                    results[name] = error.incumbent
                if member_stop.expired():
                    timed_out.append(name)
                else:
                    errors[name] = str(error)
            except ReproError as error:
                errors[name] = str(error)

        if not results:
            raise OptimizationError(
                f"no portfolio member produced a plan within the budget "
                f"(errors: {errors!r}, timed out: {tuple(timed_out)!r})"
            )
        # Iterating in ladder order makes min() break (cost, optimal) ties by
        # ladder position.
        best = min(
            (results[name] for name in options.algorithms if name in results),
            key=lambda result: (result.cost, not result.optimal),
        )
        return PortfolioResult(
            best=best,
            results=results,
            errors=errors,
            timed_out=tuple(timed_out),
            stopped=tuple(stopped),
            elapsed_seconds=stopwatch.stop(),
        )

    def _run_member(
        self, problem: OrderingProblem, name: str, stop: _MemberStop
    ) -> OptimizationResult:
        member_options = dict(self.options.algorithm_options.get(name, {}))

        def run() -> OptimizationResult:
            try:
                return optimize(problem, algorithm=name, stop=stop, **member_options)
            except TypeError as error:
                # An optimizer rejecting its options must surface as a recorded
                # member error, not crash the whole race (cf. core.optimizer.compare).
                raise OptimizationError(f"{name} rejected the options: {error}") from error

        if ALGORITHMS[name] in _LIBRARY_RUNNERS:
            return run()
        return _run_abandonable(run, name, stop)


_LIBRARY_RUNNERS = frozenset(ALGORITHMS.values())
"""The library's own runners: each checks ``stop`` once per search step (the
O(n²) constructions simply finish), so each runs on the caller's thread."""

_WATCH_INTERVAL_SECONDS = 0.005
"""How often the race looks at the stop signal while an outside runner works."""


def _run_abandonable(
    run: Callable[[], OptimizationResult], name: str, stop: _MemberStop
) -> OptimizationResult:
    """Run an outside runner, which may ignore ``stop``, on a daemon thread and
    give up on it once ``stop`` is set; an abandoned runner finishes in the
    background and its outcome is dropped."""
    outcome: list[OptimizationResult | BaseException] = []
    done = threading.Event()

    def target() -> None:
        try:
            outcome.append(run())
        except BaseException as error:  # re-raised on the caller's thread
            outcome.append(error)
        finally:
            done.set()

    # The copied context carries the member span, so the runner's spans nest.
    context = contextvars.copy_context()
    threading.Thread(
        target=context.run, args=(target,), name=f"portfolio-{name}", daemon=True
    ).start()
    while not done.wait(_WATCH_INTERVAL_SECONDS):
        if stop.is_set():
            raise SearchLimitExceededError(f"{name} was stopped")
    [value] = outcome
    if isinstance(value, BaseException):
        raise value
    return value


def run_portfolio(
    problem: OrderingProblem,
    options: PortfolioOptions | None = None,
    budget_seconds: float | None = None,
) -> PortfolioResult:
    """One-shot convenience wrapper around :class:`PortfolioOptimizer`."""
    with PortfolioOptimizer(options) as portfolio:
        return portfolio.optimize(problem, budget_seconds=budget_seconds)
