"""RL003 — lock discipline for ``# guarded-by:`` annotated attributes.

The serving stack's shared-state classes (``PlanCache``, ``ServingMetrics``,
``ResponseMultiplexer``, ``SpanStore``) each pair mutable attributes with one
lock.  The pairing lives only in developers' heads until
it is written down — and an unguarded read slipped into
``ResponseMultiplexer.close()`` exactly that way.  This rule makes the
pairing checkable::

    self._stats = CacheStats()          # guarded-by: _lock
    _stats: CacheStats = field(...)     # guarded-by: _lock   (dataclass body)

    def _sorted_reservoir(self):        # requires-lock: _lock
        ...

Every ``self.X`` access to a guarded attribute outside a lexical
``with self.<lock>:`` block (in any method of the class) is a finding.
``# requires-lock: <lock>`` on a ``def`` line declares a caller-holds-lock
helper: its body is checked as if the lock were held, and the *call sites*
remain the callers' responsibility.  ``__init__``/``__post_init__``/
``__del__`` are exempt — construction and teardown are single-threaded.
Nested functions are checked with no locks held: a closure runs on whatever
thread calls it, which is precisely when the annotation matters.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.index import Module, ModuleIndex
from repro.analysis.model import Finding, Severity

__all__ = ["LockDisciplineChecker"]

_GUARDED_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES_RE = re.compile(r"requires-lock:\s*([A-Za-z_][A-Za-z0-9_]*)")
_EXEMPT_METHODS = {"__init__", "__post_init__", "__del__"}

_Body = list[ast.stmt]


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` → ``"X"``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class LockDisciplineChecker:
    rule = "RL003"
    name = "guarded-by-lock-discipline"
    description = "guarded-by annotated attributes are only touched under their lock"
    severity = Severity.ERROR
    default = True

    def check(self, module: Module, index: ModuleIndex) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(module, node, findings)
        return findings

    # -- annotation collection ---------------------------------------------

    def _annotation(
        self, module: Module, first: int, last: int, findings: list[Finding]
    ) -> str | None:
        """The guarded-by lock named on lines ``first``..``last``, if any."""
        text = module.comment_in_range(first, last, "guarded-by")
        if text is None:
            return None
        match = _GUARDED_RE.search(text)
        if match is None:
            findings.append(
                Finding(
                    rule=self.rule,
                    path=module.rel,
                    line=first,
                    message=f"malformed guarded-by annotation: {text.strip()!r}",
                    hint="expected '# guarded-by: <lock_attribute>'",
                )
            )
            return None
        return match.group(1)

    def _guarded_attrs(
        self, module: Module, cls: ast.ClassDef, findings: list[Finding]
    ) -> dict[str, str]:
        """attr name → lock name, from class-body and ``self.X = ...`` lines."""
        guarded: dict[str, str] = {}
        for stmt in cls.body:
            targets: list[str] = []
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = [stmt.target.id]
            elif isinstance(stmt, ast.Assign):
                targets = [
                    target.id for target in stmt.targets if isinstance(target, ast.Name)
                ]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(stmt):
                    if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                        assign_targets = (
                            inner.targets
                            if isinstance(inner, ast.Assign)
                            else [inner.target]
                        )
                        for target in assign_targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                lock = self._annotation(
                                    module,
                                    inner.lineno,
                                    inner.end_lineno or inner.lineno,
                                    findings,
                                )
                                if lock is not None:
                                    guarded[attr] = lock
                continue
            if targets:
                lock = self._annotation(
                    module, stmt.lineno, stmt.end_lineno or stmt.lineno, findings
                )
                if lock is not None:
                    for name in targets:
                        guarded[name] = lock
        return guarded

    def _required_locks(
        self, module: Module, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> frozenset[str]:
        """Locks declared held by ``# requires-lock:`` on the def line."""
        first = func.lineno
        last = func.body[0].lineno - 1 if func.body else func.lineno
        text = module.comment_in_range(first, max(first, last), "requires-lock")
        if text is None:
            return frozenset()
        return frozenset(_REQUIRES_RE.findall(text))

    # -- access checking ---------------------------------------------------

    def _check_class(
        self, module: Module, cls: ast.ClassDef, findings: list[Finding]
    ) -> None:
        guarded = self._guarded_attrs(module, cls, findings)
        if not guarded:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _EXEMPT_METHODS:
                continue
            held = set(self._required_locks(module, stmt))
            self._scan_body(module, stmt.body, guarded, held, findings)

    def _scan_body(
        self,
        module: Module,
        body: _Body,
        guarded: dict[str, str],
        held: set[str],
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in stmt.items:
                    self._check_expr(module, item.context_expr, guarded, held, findings)
                    attr = _self_attr(item.context_expr)
                    if attr is not None:
                        acquired.add(attr)
                self._scan_body(module, stmt.body, guarded, acquired, findings)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A closure runs on whatever thread calls it — no lock assumed.
                self._scan_body(module, stmt.body, guarded, set(), findings)
            elif isinstance(stmt, ast.ClassDef):
                self._scan_body(module, stmt.body, guarded, held, findings)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._check_expr(module, stmt.test, guarded, held, findings)
                self._scan_body(module, stmt.body, guarded, held, findings)
                self._scan_body(module, stmt.orelse, guarded, held, findings)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_expr(module, stmt.iter, guarded, held, findings)
                self._scan_body(module, stmt.body, guarded, held, findings)
                self._scan_body(module, stmt.orelse, guarded, held, findings)
            elif isinstance(stmt, ast.Try):
                self._scan_body(module, stmt.body, guarded, held, findings)
                for handler in stmt.handlers:
                    self._scan_body(module, handler.body, guarded, held, findings)
                self._scan_body(module, stmt.orelse, guarded, held, findings)
                self._scan_body(module, stmt.finalbody, guarded, held, findings)
            else:
                self._check_expr(module, stmt, guarded, held, findings)

    def _check_expr(
        self,
        module: Module,
        node: ast.AST,
        guarded: dict[str, str],
        held: set[str],
        findings: list[Finding],
    ) -> None:
        for inner in ast.walk(node):
            attr = _self_attr(inner)
            if attr is None or attr not in guarded:
                continue
            lock = guarded[attr]
            if lock not in held:
                findings.append(
                    Finding(
                        rule=self.rule,
                        path=module.rel,
                        line=inner.lineno,
                        message=(
                            f"self.{attr} accessed without holding self.{lock} "
                            f"(annotated '# guarded-by: {lock}')"
                        ),
                        hint=(
                            f"wrap in 'with self.{lock}:' or mark the method "
                            f"'# requires-lock: {lock}'"
                        ),
                        column=inner.col_offset,
                    )
                )
