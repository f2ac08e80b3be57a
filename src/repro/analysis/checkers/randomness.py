"""RL007 — seeded randomness in the deterministic directories.

The optimizer's results must be reproducible run-to-run: benchmark deltas,
golden-file tests, and cross-shard consistency all assume that the same
problem yields the same plan.  A call to the *module-level* ``random``
functions (``random.random()``, ``random.choice()``, ...) consults the
process-global, time-seeded RNG — nondeterminism that silently leaks into
plans and metrics.  Inside ``core/`` and ``serving/`` the
sanctioned spelling is an explicit ``random.Random(seed)`` instance threaded
from the caller (see ``ServingMetrics``'s reservoir), so this rule bans the
module-level functions there, through any alias, including
``numpy.random.*`` (``default_rng(seed)`` is the allowed numpy form).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.index import Module, ModuleIndex
from repro.analysis.model import Finding, Severity

__all__ = ["SeededRandomnessChecker"]

_SCOPED_DIRS = frozenset({"core", "serving"})

_ALLOWED = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
    }
)


class SeededRandomnessChecker:
    rule = "RL007"
    name = "seeded-randomness"
    description = "core/serving must use seeded RNG instances, not the global RNG"
    severity = Severity.ERROR
    default = True

    def check(self, module: Module, index: ModuleIndex) -> Iterable[Finding]:
        if not _SCOPED_DIRS & set(module.rel.split("/")):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved is None or resolved in _ALLOWED:
                continue
            if resolved.startswith("random.") or resolved.startswith("numpy.random."):
                yield Finding(
                    rule=self.rule,
                    path=module.rel,
                    line=node.lineno,
                    message=f"global-RNG call {resolved}() in deterministic code",
                    hint="thread a seeded random.Random(seed) instance from the caller",
                    column=node.col_offset,
                )
