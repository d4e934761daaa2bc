"""Distribution subsystem: sharded store replicas and the
scatter-gather rounds of a sharded semi-naive fixpoint.

Layout:

* :mod:`repro.dist.partition` — placement metadata (:class:`ShardMap`),
  hash/range shard-of functions and the delta partitioner;
* :mod:`repro.dist.exchange` — tuples as line-JSON frames (the service
  protocol's framing) plus exchange-volume accounting;
* :mod:`repro.dist.shard` — :class:`ShardWorker` (one shard: schema
  replica over a private buffer pool) and :class:`ShardSession` (one
  request's private view of a worker);
* :mod:`repro.dist.coordinator` — :class:`ShardCluster` and
  :func:`~repro.dist.coordinator.sharded_rounds`, the scatter-gather
  round the engine's one semi-naive loop
  (:func:`repro.engine.fixpoint.run_fixpoint`) runs per round.

Entry points: build a :class:`ShardCluster` over a physical schema,
hand it to an :class:`~repro.engine.evaluator.Engine` (``cluster=``,
``shards=N``) and execute plans as usual — every ``parallel_safe``
fixpoint runs distributed, and ``shards=1`` bypasses this package
entirely (exact single-process semantics).  Per-shard round data lives
in the shard trace lanes: under an enabled tracer each ``shard{i}``
lane's ``round`` spans carry the shard's ``tuples`` and ``reads``, its
``exchange_recv`` spans the scatter bytes and its ``exchange_send``
spans the gather bytes.
"""

from repro.dist.coordinator import ShardCluster
from repro.dist.exchange import ExchangeStats, decode_tuples, encode_tuples
from repro.dist.partition import ShardMap, hash_shard, range_shard
from repro.dist.shard import ShardSession, ShardWorker

__all__ = [
    "ShardCluster",
    "ShardMap",
    "ShardSession",
    "ShardWorker",
    "ExchangeStats",
    "encode_tuples",
    "decode_tuples",
    "hash_shard",
    "range_shard",
]
