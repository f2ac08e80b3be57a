"""Answer checks: every plan is re-derived against the ``cost_model`` oracle.

A ``POST /plan`` answer is correct when its order is a permutation of the
submitted problem's services that respects precedence, names those services
in that order, and its cost equals the oracle's bottleneck cost of the order.
A batch answer is correct when it has one correct answer per submitted
problem, in request order.  The cold-answer audit additionally compares costs
with client-side optimizer runs.
"""

from __future__ import annotations

import json
import math

from repro.core.cost_model import CommunicationCostMatrix, bottleneck_cost
from repro.core.optimizer import optimize
from repro.serialization import problem_from_dict

from perfbench.workloads import Request


def oracle_cost(document: dict, order: list[int]) -> float:
    """Eq. 1 bottleneck cost of ``order`` on the problem ``document``."""
    services = document["services"]
    return bottleneck_cost(
        [service["cost"] for service in services],
        [service["selectivity"] for service in services],
        CommunicationCostMatrix(document["transfer"]),
        order,
        document.get("sink_transfer"),
    )


def answer_error(document: dict, answer: dict) -> str | None:
    """Why ``answer`` is not a correct plan for ``document`` (``None`` if it is)."""
    services = document["services"]
    order = answer.get("order")
    if not isinstance(order, list) or not all(
        isinstance(index, int) and not isinstance(index, bool) for index in order
    ):
        return f"order {order!r} is not a list of service indices"
    if sorted(order) != list(range(len(services))):
        return f"order {order!r} is not a permutation of {len(services)} services"
    position = {index: slot for slot, index in enumerate(order)}
    for before, after in document.get("precedence") or []:
        if position[before] > position[after]:
            return f"order {order!r} runs service {after} before {before}"
    if answer.get("services") != [services[index]["name"] for index in order]:
        return "service names do not match the order"
    expected = oracle_cost(document, order)
    if answer.get("cost") != expected:
        return f"cost {answer.get('cost')!r} differs from the oracle's {expected!r}"
    return None


def response_error(request: Request, status: int, body: bytes) -> str | None:
    """Why one HTTP exchange failed (``None`` when every answer in it is correct)."""
    if status != 200:
        if not status:
            return "transport error"
        try:
            reason = json.loads(body).get("error", "")
        except (ValueError, AttributeError):
            reason = ""
        return f"HTTP {status}: {reason[:120]}"
    try:
        document = json.loads(body)
    except ValueError:
        return "response is not JSON"
    answers = document.get("responses") if request.path == "/plan/batch" else [document]
    if not isinstance(answers, list) or len(answers) != len(request.problems):
        return "batch answer count differs from the request"
    for problem, answer in zip(request.problems, answers):
        if not isinstance(answer, dict):
            return "answer is not an object"
        error = answer_error(problem, answer)
        if error is not None:
            return error
    return None


def audit_cold_answer(document: dict, answer: dict) -> str | None:
    """Compare a cold answer with client-side greedy and branch-and-bound runs.

    The portfolio's seed is ``greedy_min_term``, so no answer may cost more;
    an answer flagged ``optimal`` must match the exact optimum.
    """
    problem = problem_from_dict(document)
    greedy = optimize(problem, algorithm="greedy_min_term").cost
    if answer["cost"] > greedy:
        return f"cost {answer['cost']!r} exceeds the greedy seed's {greedy!r}"
    if answer.get("optimal"):
        exact = optimize(problem, algorithm="branch_and_bound").cost
        if not math.isclose(answer["cost"], exact, rel_tol=1e-12, abs_tol=0.0):
            return f"'optimal' cost {answer['cost']!r} differs from the optimum {exact!r}"
    return None
