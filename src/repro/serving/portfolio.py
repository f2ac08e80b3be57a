"""Deadline-budgeted portfolio optimization.

A plan service answers under a latency budget, but the registry's algorithms
span five orders of magnitude in runtime: the greedy heuristics return in
microseconds, beam search in milliseconds, branch-and-bound (exact) possibly
much longer on large instances.  The portfolio exploits that spread:

1. the **anytime seed** — the first configured algorithm (greedy by default)
   runs synchronously, so there is always an answer to return, then
2. the remaining algorithms **race** on a shared
   :class:`~concurrent.futures.ThreadPoolExecutor` until the first member
   *proves* optimality (no other member can beat a proven cost) or the budget
   expires, whichever comes first.

Every race owns one cooperative stop signal (a :class:`threading.Event`)
handed to each member's :func:`~repro.core.optimizer.optimize` call.  The
race sets it at the first proof, at the deadline and on :meth:`close`; every
search loop checks it and raises
:class:`~repro.exceptions.SearchLimitExceededError`, so a member still
running when the race ends — even an over-budget exact solver — gives its
worker thread back within one loop step instead of running to completion.

The portfolio reuses :data:`repro.core.optimizer.ALGORITHMS` — it never
duplicates a runner — and returns the best
:class:`~repro.core.result.OptimizationResult` observed when the race ends,
ties broken by ladder position.  Before the race starts it builds the
problem's evaluation kernel
(:meth:`~repro.core.problem.OrderingProblem.evaluator`) once, so every racing
member shares the same pre-extracted arrays instead of each worker thread
lazily building its own on first use.  Because the seed always completes, the
portfolio's answer is never worse than the seed algorithm's; algorithms that
error out (e.g. an exact solver refusing an over-size instance) are recorded,
not fatal.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.optimizer import ALGORITHMS, optimize
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult
from repro.exceptions import OptimizationError, ReproError, ServingError
from repro.obs.trace import ActiveTrace, capture, trace_span
from repro.utils.timing import Stopwatch

__all__ = [
    "PortfolioOptions",
    "PortfolioResult",
    "PortfolioOptimizer",
    "run_portfolio",
]

DEFAULT_PORTFOLIO = ("greedy_min_term", "beam_search", "branch_and_bound")
"""Default algorithm ladder: instant heuristic, polynomial refinement, exact."""


@dataclass(frozen=True)
class PortfolioOptions:
    """Configuration of one portfolio race."""

    algorithms: tuple[str, ...] = DEFAULT_PORTFOLIO
    """Algorithm names from :data:`repro.core.optimizer.ALGORITHMS`; the first
    one is the synchronous anytime seed."""

    budget_seconds: float | None = 1.0
    """Wall-clock budget for the racing algorithms (``None`` waits for all)."""

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
    """The outcome of racing a portfolio on one problem."""

    best: OptimizationResult
    """The cheapest plan any member produced before the race ended; ties go
    to the member earliest in the ladder."""

    results: dict[str, OptimizationResult]
    """Results of every member that completed in time, by algorithm name."""

    errors: dict[str, str]
    """Error messages of members that raised, by algorithm name."""

    timed_out: tuple[str, ...]
    """Members that had not finished when the budget expired."""

    stopped: tuple[str, ...]
    """Members that had not finished when another member proved optimality
    (they were told to stop: the proven cost cannot be beaten)."""

    elapsed_seconds: float
    """Wall-clock time the race took (≤ budget + seed time)."""

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


class PortfolioOptimizer:
    """Runs deadline-budgeted portfolio races, reusing one thread pool.

    The executor is shared across races, which is what the long-running
    :class:`~repro.serving.service.PlanService` needs; one-shot callers can use
    :func:`run_portfolio` instead.
    """

    def __init__(self, options: PortfolioOptions | None = None, max_workers: int | None = None):
        self.options = options if options is not None else PortfolioOptions()
        workers = max_workers if max_workers is not None else 2 * len(self.options.algorithms)
        if workers < 1:
            raise ServingError(f"max_workers must be at least 1, got {workers!r}")
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="portfolio"
        )
        # The stop signals of the races in flight, so close() can end them.
        self._racing: set[threading.Event] = set()
        self._racing_lock = threading.Lock()
        self._closed = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every race in flight and shut the executor down without waiting."""
        with self._racing_lock:
            self._closed.set()
            for stop in self._racing:
                stop.set()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "PortfolioOptimizer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- racing ------------------------------------------------------------

    def optimize(
        self, problem: OrderingProblem, budget_seconds: float | None = None
    ) -> PortfolioResult:
        """Race the configured portfolio on ``problem``.

        ``budget_seconds`` overrides the options' budget for this race.  The
        first algorithm runs synchronously regardless of the budget, so the
        call always returns a valid result.
        """
        options = self.options
        budget = options.budget_seconds if budget_seconds is None else budget_seconds
        if budget is not None and budget < 0:
            raise ServingError(f"budget_seconds must be non-negative, got {budget!r}")
        stop = threading.Event()
        with self._racing_lock:
            if self._closed.is_set():
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
            stop.set()  # the race is over, however it ended
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
        # Build the shared evaluation kernel before any member runs: the racing
        # threads all reuse it, and the (idempotent) lazy construction happens
        # once instead of concurrently in every worker.
        problem.evaluator()
        seed_name = options.algorithms[0]
        results: dict[str, OptimizationResult] = {}
        errors: dict[str, str] = {}
        try:
            with trace_span("portfolio.member", algorithm=seed_name, seed=True):
                results[seed_name] = self._run_member(problem, seed_name, stop)
        except ReproError as error:
            errors[seed_name] = str(error)
        proved = any(result.optimal for result in results.values())

        # Racing members run on executor threads, where the ambient trace
        # contextvar does not flow; hand the captured activation over
        # explicitly so their spans join this request's tree.
        context = capture()
        try:
            futures = {
                self._executor.submit(self._traced_member, problem, name, context, stop): name
                for name in options.algorithms[1:]
            }
        except RuntimeError:  # the executor shut down: close() raced this call
            raise ServingError("the portfolio optimizer has been closed") from None
        pending = set(futures)
        while pending and not proved:
            timeout = None if budget is None else max(budget - stopwatch.elapsed, 0.0)
            done, pending = concurrent.futures.wait(
                pending, timeout=timeout, return_when=concurrent.futures.FIRST_COMPLETED
            )
            if not done:
                break  # the deadline passed
            for future in done:
                name = futures[future]
                try:
                    result = future.result()
                except ReproError as error:
                    errors[name] = str(error)
                except concurrent.futures.CancelledError:
                    errors[name] = "cancelled: the portfolio was closed"
                else:
                    results[name] = result
                    proved = proved or result.optimal
        # Queued members never start; running ones stop at their next check
        # once optimize() sets the race's stop signal.
        for future in pending:
            future.cancel()
        unfinished = tuple(sorted(futures[future] for future in pending))

        if not results:
            raise OptimizationError(
                f"no portfolio member produced a plan within the budget "
                f"(errors: {errors!r}, timed out: {unfinished!r})"
            )
        # Iterating in ladder order makes min() break (cost, optimal) ties by
        # ladder position, not by the order in which members finished.
        best = min(
            (results[name] for name in options.algorithms if name in results),
            key=lambda result: (result.cost, not result.optimal),
        )
        return PortfolioResult(
            best=best,
            results=results,
            errors=errors,
            timed_out=() if proved else unfinished,
            stopped=unfinished if proved else (),
            elapsed_seconds=stopwatch.stop(),
        )

    def _traced_member(
        self,
        problem: OrderingProblem,
        name: str,
        context: ActiveTrace | None,
        stop: threading.Event,
    ) -> OptimizationResult:
        with trace_span("portfolio.member", context=context, algorithm=name):
            return self._run_member(problem, name, stop)

    def _run_member(
        self, problem: OrderingProblem, name: str, stop: threading.Event
    ) -> OptimizationResult:
        member_options = dict(self.options.algorithm_options.get(name, {}))
        try:
            return optimize(problem, algorithm=name, stop=stop, **member_options)
        except TypeError as error:
            # An optimizer rejecting its options must surface as a recorded
            # member error, not crash the whole race (cf. core.optimizer.compare).
            raise OptimizationError(f"{name} rejected the options: {error}") from error


def run_portfolio(
    problem: OrderingProblem,
    options: PortfolioOptions | None = None,
    budget_seconds: float | None = None,
) -> PortfolioResult:
    """One-shot convenience wrapper around :class:`PortfolioOptimizer`."""
    with PortfolioOptimizer(options) as portfolio:
        return portfolio.optimize(problem, budget_seconds=budget_seconds)
