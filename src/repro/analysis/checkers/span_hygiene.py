"""RL008 — span hygiene: traces enter scopes correctly and survive hand-offs.

``trace_span`` is a context manager whose exit records the duration and
re-parents the ambient activation; calling it without ``with`` opens a span
that never closes and corrupts the parent chain for everything after it.
And because the activation rides a ``contextvar``, it does *not* follow work
onto pool threads — the repo's convention is ``context = capture()`` in the
submitting scope, passed into the closure's ``trace_span(..., context=context)``.

Three findings:

* a ``trace_span(...)`` call that is not the context expression of a
  ``with`` statement;
* a bare ``capture()`` expression statement — the captured activation is
  discarded, so the hand-off it exists for never happens;
* a closure handed to a worker (``pool.submit(closure, ...)`` or
  ``Thread(target=closure)``) that opens spans *without* an explicit
  ``context=`` argument — those spans would parent onto whatever trace the
  worker thread last saw.  Re-entering the trace with
  ``with activate_trace(...):`` around the span (the process-shard loop's
  hand-off, where the trace arrives over the wire) satisfies the rule too.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.index import Module, ModuleIndex
from repro.analysis.model import Finding, Severity

__all__ = ["SpanHygieneChecker"]

_FuncDef = ast.FunctionDef | ast.AsyncFunctionDef


def _is_trace_span(resolved: str | None) -> bool:
    return resolved is not None and (
        resolved == "trace_span" or resolved.endswith(".trace_span")
    )


def _is_capture(resolved: str | None) -> bool:
    return resolved is not None and (
        resolved == "capture" or resolved.endswith(".capture")
    )


def _is_activate(resolved: str | None) -> bool:
    return resolved is not None and (
        resolved == "activate_trace" or resolved.endswith(".activate_trace")
    )


def _submitted_names(func: _FuncDef, module: Module) -> set[str]:
    """Names handed to worker threads inside ``func``."""
    names: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        handoff = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "submit"
        ) or module.resolve(node.func) in ("threading.Thread", "threading.Timer")
        if not handoff:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name):
                names.add(arg.id)
        for keyword in node.keywords:
            if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
                names.add(keyword.value.id)
    return names


class SpanHygieneChecker:
    rule = "RL008"
    name = "span-hygiene"
    description = "trace_span used as a context manager; explicit context across threads"
    severity = Severity.ERROR
    default = True

    def check(self, module: Module, index: ModuleIndex) -> Iterable[Finding]:
        findings: list[Finding] = []
        with_items = {
            id(item.context_expr)
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_trace_span(module.resolve(node.func)):
                if id(node) not in with_items:
                    findings.append(
                        Finding(
                            rule=self.rule,
                            path=module.rel,
                            line=node.lineno,
                            message="trace_span(...) not entered as a context manager",
                            hint="use 'with trace_span(...):' so the span closes",
                            column=node.col_offset,
                        )
                    )
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                if _is_capture(module.resolve(node.value.func)):
                    findings.append(
                        Finding(
                            rule=self.rule,
                            path=module.rel,
                            line=node.lineno,
                            message="capture() result discarded",
                            hint="bind it and pass context=... into the worker's spans",
                            column=node.col_offset,
                        )
                    )
        self._check_handoffs(module, findings)
        return findings

    def _check_handoffs(self, module: Module, findings: list[Finding]) -> None:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            submitted = _submitted_names(func, module)
            if not submitted:
                continue
            for nested in ast.walk(func):
                if (
                    not isinstance(nested, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or nested is func
                    or nested.name not in submitted
                ):
                    continue
                self._scan_closure(module, nested, nested, False, findings)

    def _scan_closure(
        self,
        module: Module,
        nested: _FuncDef,
        node: ast.AST,
        activated: bool,
        findings: list[Finding],
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            activated = activated or any(
                isinstance(item.context_expr, ast.Call)
                and _is_activate(module.resolve(item.context_expr.func))
                for item in node.items
            )
        elif (
            not activated
            and isinstance(node, ast.Call)
            and _is_trace_span(module.resolve(node.func))
            and not any(kw.arg == "context" for kw in node.keywords)
        ):
            findings.append(
                Finding(
                    rule=self.rule,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"closure {nested.name!r} handed to a worker "
                        "thread opens a span without explicit context"
                    ),
                    hint=(
                        "capture() in the submitting scope and pass context=... "
                        "into trace_span, or re-enter via activate_trace"
                    ),
                    column=node.col_offset,
                )
            )
        for child in ast.iter_child_nodes(node):
            self._scan_closure(module, nested, child, activated, findings)
