"""Shard-aware cost terms of the distributed-Fix variant: network and
skew.

Follows the decomposition of the mongodb-d4 cost model —
``cost = alpha * networkCost + beta * diskCost + gamma * skewCost`` —
mapped onto this model's units: the network term charges
``network_per_tuple`` per exchanged tuple plus ``network_per_round``
per shard per exchange (frame latency), the disk term is a round's
serial page-read cost divided across the shards that work on its
delta (less what the model charges each worker whole: a hash join's
build, a part the delta cannot be split for), and the skew term is a multiplier — the *most loaded* shard
gates a barrier round, so a round's wall cost is its mean per-shard
cost times the configured ``shard_skew``.

Each semi-naive round of a sharded Fix is priced two ways
(:func:`choose_round_strategy`) and the cheaper is taken:

* **shard-local** — the delta stays where the previous round's hash
  put it, so no tuples move; the round pays the skew.
* **repartition** — the delta is re-hashed across the wire first; the
  exchange is paid once per tuple, after which the load is balanced
  (skew 1).

:mod:`repro.cost.model` calls :func:`exchange_cost` and
:func:`round_strategy_breakdown`.  Every term is gated behind
``shards > 1``; at one shard the Fix formula reduces to the paper's
exact serial sum.
"""

from __future__ import annotations

from typing import Tuple

from repro.cost.params import CostParameters

__all__ = [
    "exchange_cost",
    "choose_round_strategy",
    "round_strategy_breakdown",
]

SHARD_LOCAL = "shard_local"
REPARTITION = "repartition"


def exchange_cost(tuples: float, shards: int, params: CostParameters) -> float:
    """Network cost of moving ``tuples`` through one scatter or gather
    leg across ``shards`` shards (per-tuple transfer + per-shard frame
    latency)."""
    return (
        max(0.0, tuples) * params.network_per_tuple
        + max(1, shards) * params.network_per_round
    )


def choose_round_strategy(
    round_io: float,
    round_cpu: float,
    delta: float,
    shards: int,
    params: CostParameters,
) -> Tuple[str, float, float]:
    """Price one semi-naive round's recursive-part work both ways.

    ``round_io``/``round_cpu`` are the serial (one-store) costs of the
    round's work the delta slices divide; ``delta`` is the round's
    frontier size.  Shard-local keeps
    the delta where the previous round's hash put it (no tuple
    exchange, pay the configured skew); repartition re-scatters the
    delta (pay the exchange, run balanced).  Returns
    ``(strategy, io, cpu)`` for the cheaper one.
    """
    shards = max(1, shards)
    workers = min(float(shards), max(1.0, delta))
    skew = max(1.0, params.shard_skew)
    local_io = round_io * skew / workers
    local_cpu = round_cpu * skew / workers
    shipped_io = round_io / workers + exchange_cost(delta, shards, params)
    shipped_cpu = round_cpu / workers + delta * params.parallel_overhead
    if shipped_io + shipped_cpu < local_io + local_cpu:
        return REPARTITION, shipped_io, shipped_cpu
    return SHARD_LOCAL, local_io, local_cpu


def round_strategy_breakdown(
    round_io: float,
    round_cpu: float,
    delta: float,
    shards: int,
    params: CostParameters,
) -> dict:
    """:func:`choose_round_strategy` plus the mongodb-d4 style term
    decomposition of the chosen strategy — the pieces EXPLAIN ANALYZE
    lines up against measured actuals:

    * ``scan_io`` — the skew-free per-worker disk share;
    * ``network`` — the exchange cost the round pays (0 shard-local);
    * ``skew`` — the imbalance multiplier the round is charged.
    """
    shards = max(1, shards)
    workers = min(float(shards), max(1.0, delta))
    strategy, io, cpu = choose_round_strategy(
        round_io, round_cpu, delta, shards, params
    )
    if strategy == REPARTITION:
        network = exchange_cost(delta, shards, params)
        skew = 1.0
    else:
        network = 0.0
        skew = max(1.0, params.shard_skew)
    return {
        "strategy": strategy,
        "io": io,
        "cpu": cpu,
        "scan_io": round_io / workers,
        "network": network,
        "skew": skew,
    }
