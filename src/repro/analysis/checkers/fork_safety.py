"""RL005 — fork safety: no import-time concurrency, no bare mp primitives.

Two invariants the process-shard stack depends on:

* **No thread or process is created at import time.**  ``fork``-start
  children re-import modules; a module that spins up a thread on import
  deadlocks or duplicates work inside every spawned shard.  Workers must be
  created inside functions, on demand.
* **Multiprocessing primitives come from an explicit context.**  A bare
  ``multiprocessing.Process(...)`` / ``multiprocessing.Queue()`` binds to
  the platform default start method, which differs across OSes and fights
  the ``preferred_context`` threading the sharding layer does deliberately.
  ``context.Process(...)`` / ``context.Pipe()`` (an mp context threaded
  through) is the sanctioned spelling.  ``multiprocessing.Pipe`` is exempt:
  a pipe is start-method independent — each process shard talks to its
  child over one duplex pipe, and the multiplexer's self-pipe is a bare one.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.index import FunctionScopeVisitor, Module, ModuleIndex
from repro.analysis.model import Finding, Severity

__all__ = ["ForkSafetyChecker"]

_IMPORT_TIME_WORKERS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "multiprocessing.Process",
        "multiprocessing.Pool",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "os.fork",
    }
)

_BARE_MP_PRIMITIVES = frozenset(
    {
        "multiprocessing.Process",
        "multiprocessing.Queue",
        "multiprocessing.SimpleQueue",
        "multiprocessing.JoinableQueue",
        "multiprocessing.Pool",
        "multiprocessing.Manager",
    }
)


class _Visitor(FunctionScopeVisitor):
    def __init__(self, module: Module) -> None:
        super().__init__()
        self.module = module
        self.findings: list[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.module.resolve(node.func)
        if resolved in _IMPORT_TIME_WORKERS and self.at_module_level():
            self.findings.append(
                Finding(
                    rule="RL005",
                    path=self.module.rel,
                    line=node.lineno,
                    message=f"{resolved}() creates a worker at import time",
                    hint="create threads/processes inside functions, on demand",
                    column=node.col_offset,
                )
            )
        elif resolved in _BARE_MP_PRIMITIVES:
            self.findings.append(
                Finding(
                    rule="RL005",
                    path=self.module.rel,
                    line=node.lineno,
                    message=(
                        f"bare {resolved}() binds the platform-default start method"
                    ),
                    hint=(
                        "thread an mp context through (preferred_context / "
                        "get_context) and call context."
                        f"{resolved.rsplit('.', 1)[1]}(...)"
                    ),
                    column=node.col_offset,
                )
            )
        self.generic_visit(node)


class ForkSafetyChecker:
    rule = "RL005"
    name = "fork-safety"
    description = "no import-time worker creation; mp primitives via explicit contexts"
    severity = Severity.ERROR
    default = True

    def check(self, module: Module, index: ModuleIndex) -> Iterable[Finding]:
        visitor = _Visitor(module)
        visitor.visit(module.tree)
        return visitor.findings
