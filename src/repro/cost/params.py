"""Cost-model parameters.

The detailed model (Figure 5 + the Section 3.2 basic operations) is
parameterized by unit costs; the simplified model of Section 4.6 uses
the paper's four constants ``pr``, ``ev``, ``lea``, ``lev``.  The page
read, predicate evaluation, network and batch-size defaults are the
unit costs of :mod:`repro.units` — the weights the engine's measured
cost judges plans by — so the optimizer minimises the cost it is
audited by.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro import units

__all__ = ["CostParameters", "SimplifiedParameters"]


@dataclass
class CostParameters:
    """Unit costs and environment knobs for the detailed model."""

    #: Cost of one physical page read (``pr`` in the paper's sketch).
    page_read: float = units.PAGE_READ
    #: CPU cost of evaluating one predicate conjunct on one record
    #: (``ev``).
    eval_per_tuple: float = units.PREDICATE_EVAL
    #: CPU cost of producing one output tuple (projection etc.).
    tuple_cpu: float = 0.002
    #: Cost of one index page access (B+-tree node touch).
    index_page: float = units.PAGE_READ
    #: Buffer capacity assumed by the model, in pages.  The model uses
    #: it to discount repeated accesses to small entities ("some of the
    #: needed data are already in main memory", Section 3.2 footnote).
    #: ``None`` (the default) means the capacity of the buffer pool of
    #: the store being priced; a number is a what-if override.
    buffer_pages: Optional[int] = None
    #: Records per page assumed for temporaries whose layout is not yet
    #: known.  ``None`` (the default) means the page size the store
    #: gives a new extent; a number is a what-if override.
    temp_records_per_page: Optional[int] = None
    #: Default iteration count for fixpoints whose recursion statistics
    #: are unavailable.
    default_fix_iterations: int = 8
    #: Default per-iteration delta decay when chain statistics are
    #: unavailable (fraction of the frontier surviving one iteration).
    default_delta_decay: float = 0.8
    #: CPU cost per tuple of the distributed coordinator's merge: the
    #: gathered shard results deduplicated through its seen-set (only
    #: charged at ``shards > 1``).
    parallel_overhead: float = 0.001
    #: Bindings per batch the engine's operators exchange.  Every
    #: operator pays the per-batch overhead below once per
    #: ``ceil(tuples / batch_size)`` emitted batches, so plan costs
    #: stay honest at any batch size (at 1 the term degenerates to a
    #: per-tuple pipeline charge, the tuple-at-a-time regime).
    batch_size: int = units.DEFAULT_BATCH_SIZE
    #: CPU cost of emitting one batch: a generator resumption, a
    #: cancellation poll and a metering probe.  Small relative to
    #: ``eval_per_tuple`` so operator-choice comparisons (index vs
    #: scan, push vs no-push) are not perturbed.
    batch_overhead: float = 0.0005
    #: CPU cost of one column touch under the columnar operator ABI:
    #: each operator reads only the columns its predicate / output
    #: expressions / join path actually reference, and is charged this
    #: per referenced column per input tuple (the engine meters the
    #: same product as ``metrics.column_touches``, layout-invariantly,
    #: so calibration can fit this weight exactly like
    #: ``batch_overhead``).  Small relative to ``eval_per_tuple`` so
    #: operator-choice comparisons are not perturbed.
    column_touch: float = 0.0002
    #: Shard fan-out the engine devotes to one fixpoint.  At 1 (the
    #: default) every distributed term below is inert and the Fix
    #: formula is exactly the paper's serial sum; above 1 the
    #: distributed-Fix variant divides each round across shards, adds
    #: the network terms for both exchange legs and applies the skew
    #: multiplier (see :mod:`repro.cost.distributed`).
    shards: int = 1
    #: Network cost of moving one tuple through the delta exchange
    #: (one leg); the ``alpha`` term of the mongodb-d4 decomposition.
    network_per_tuple: float = units.NETWORK_TUPLE
    #: Fixed per-shard per-exchange frame cost (scatter or gather
    #: latency), charged once per shard per leg.
    network_per_round: float = units.NETWORK_FRAME
    #: Expected partition imbalance (max shard load / mean shard load,
    #: >= 1.0); the ``gamma`` term — a barrier round is gated by its
    #: most loaded shard.
    shard_skew: float = 1.0

    def memo_key(self) -> tuple:
        """These parameters by value, hashable: the part of a memo key
        that makes a recalibration, an in-place edit or another buffer
        size miss."""
        return tuple(getattr(self, spec.name) for spec in fields(self))

    def resolved(self, store) -> "CostParameters":
        """These parameters with the two machine facts concrete: a
        field left ``None`` takes the value of ``store`` (an
        :class:`~repro.physical.storage.ObjectStore`).  Returns
        ``self`` when both are already numbers, so a caller's explicit
        parameter object stays the one the model reads."""
        buffer_pages = self.buffer_pages
        records_per_page = self.temp_records_per_page
        if buffer_pages is not None and records_per_page is not None:
            return self
        if buffer_pages is None:
            buffer_pages = store.buffer.capacity
        if records_per_page is None:
            records_per_page = store.default_records_per_page
        return replace(
            self,
            buffer_pages=buffer_pages,
            temp_records_per_page=records_per_page,
        )


@dataclass
class SimplifiedParameters:
    """The Section 4.6 constants.

    ``access_cost(Ci, P) = |Ci| * pr``, ``eval_cost = ev``,
    ``nbtuples(Ci, P) = ||Ci||``, ``nbpages(Ci, P) = |Ci|``,
    ``access_cost(Ci, Cj) = pr``, ``nbleaves = lea``,
    ``nblevels = lev`` — i.e. no selectivity discount, no clustering,
    no materialization, indices fixed-shape.
    """

    pr: float = units.PAGE_READ
    ev: float = units.PREDICATE_EVAL
    lea: float = 50.0
    lev: float = 3.0
