"""The unit costs plans are priced and judged in, defined once.

The paper compares processing trees by one cost: the Section 3.2 basic
operations weighted by the Section 4.6 constants ``pr`` (a page read)
and ``ev`` (a predicate evaluation).  The optimizer's models
(:class:`~repro.cost.params.CostParameters` and
:class:`~repro.cost.params.SimplifiedParameters` defaults) and the
engine's measured cost (:mod:`repro.engine.metrics`: ``plan_regret``,
calibration's default target, EXPLAIN ANALYZE's actual cost) all read
these names, so the optimizer minimises the cost it is audited by.

One page read costs 1.0 and CPU work an order of magnitude less — the
I/O-dominant regime of 1992-era cost models.  This module imports
nothing from ``repro``, so every package can read it.
"""

#: ``pr``: one physical page read; an index page access costs the same.
PAGE_READ = 1.0
#: ``ev``: one predicate conjunct evaluated on one record.
PREDICATE_EVAL = 0.1
#: One tuple moved through a distributed fixpoint's exchange (one leg).
NETWORK_TUPLE = 0.005
#: One exchange frame (per shard per leg): scatter or gather latency.
NETWORK_FRAME = 0.05
#: Bindings per batch the engine's operators exchange, and the batch
#: size the model prices a plan at unless told otherwise.  Large enough
#: to amortize the per-batch generator hop, cancellation poll and
#: metering probe down to noise.
DEFAULT_BATCH_SIZE = 256
