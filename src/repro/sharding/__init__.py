"""The sharded serving tier: consistent-hash routing over PlanService shards.

One :class:`~repro.serving.service.PlanService` answers from one process —
one cache, one admission gate, one portfolio pool.  This package scales the
serving stack horizontally:

* :mod:`repro.sharding.ring` — a consistent-hash ring with virtual nodes:
  deterministic placement of fingerprint keys, ~1/N key movement on resize,
* :mod:`repro.sharding.router` — :class:`ShardRouter`, fanning ``submit`` /
  ``optimize_batch`` out to N shards and re-merging responses in order; the
  same duck-typed surface as a single service, so the HTTP front end
  (:mod:`repro.serving.http`) and the CLI bind to either,
* :mod:`repro.sharding.process` — :class:`ProcessShard`, a whole service in
  its own OS process behind the array wire codec, which is what makes N
  shards use N cores; parent and child share one duplex pipe,
* :mod:`repro.sharding.multiplexer` — :class:`ResponseMultiplexer`, the one
  selector loop correlating every process shard's answers (N shards cost one
  thread, not N reader threads); it also waits on each child's exit
  sentinel, so a dead shard's waiters fail the moment it exits,

with each shard keeping its own in-process plan cache: the ring gives every
fingerprint exactly one owning shard, so no cache tier is shared.
"""

from repro.sharding.multiplexer import ResponseMultiplexer, default_multiplexer
from repro.sharding.process import ProcessShard
from repro.sharding.ring import DEFAULT_VIRTUAL_NODES, HashRing
from repro.sharding.router import SHARD_BACKENDS, ShardRouter, ShardRouterConfig

__all__ = [
    "DEFAULT_VIRTUAL_NODES",
    "SHARD_BACKENDS",
    "HashRing",
    "ProcessShard",
    "ResponseMultiplexer",
    "ShardRouter",
    "ShardRouterConfig",
    "default_multiplexer",
]
