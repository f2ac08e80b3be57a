"""The parallel execution engine: wire codec and worker pool.

The serving portfolio (:mod:`repro.serving.portfolio`) races algorithms on
threads that stop when told; bulk work that must scale past one core needs
processes.  This package adds that multi-core layer:

* :mod:`repro.parallel.codec` (+ the wire codec in :mod:`repro.serialization`)
  — problems and results cross process boundaries as compact tuples of flat
  arrays and precedence bitmasks, never as pickled object graphs,
* :mod:`repro.parallel.pool` — :class:`OptimizerPool`, a persistent worker
  pool with warm per-problem evaluator caches and a batch-deduplicating
  :meth:`~OptimizerPool.optimize_many` for bulk plan compilation.

Experiments and benchmarks consume the pool through
:func:`repro.experiments.harness.optimize_suite`; the process shards of
:mod:`repro.sharding` reuse the problem wire codec and
:func:`preferred_context`.
"""

from repro.parallel.codec import (
    result_from_wire,
    result_to_wire,
    statistics_from_wire,
    statistics_to_wire,
)
from repro.parallel.pool import (
    OptimizerPool,
    default_worker_count,
    optimize_many,
    preferred_context,
)

__all__ = [
    "OptimizerPool",
    "default_worker_count",
    "optimize_many",
    "preferred_context",
    "result_from_wire",
    "result_to_wire",
    "statistics_from_wire",
    "statistics_to_wire",
]
