"""The distributed cost terms (network / disk / skew) and the
distributed-Fix variant of the detailed model.

The acceptance properties:

* at ``shards=1`` every distributed term is inert — the Fix formula is
  bit-for-bit the serial sum, no matter how extreme the network and
  skew parameters are;
* on an I/O-heavy recursive plan, adding shards lowers the estimated
  cost (the rounds divide across shards faster than the exchange legs
  charge);
* the shard-local vs repartition chooser ranks the strategies
  correctly on constructed balanced and skewed partition layouts.
"""

import pytest

from repro.core import cost_controlled_optimizer
from repro.cost.distributed import (
    REPARTITION,
    SHARD_LOCAL,
    choose_join_strategy,
    choose_round_strategy,
    exchange_cost,
    repartition_join_cost,
    shard_local_join_cost,
    sharded_scan_cost,
    skew_factor,
)
from repro.cost.model import DetailedCostModel
from repro.cost.params import CostParameters
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.queries import fig3_query


@pytest.fixture(scope="module")
def music_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=41)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def fig3_plan(music_db):
    graph = fig3_query()
    return cost_controlled_optimizer(music_db.physical).optimize(graph).plan


# -- primitive terms ----------------------------------------------------------


def test_skew_factor_is_max_over_mean():
    assert skew_factor([]) == 1.0
    assert skew_factor([0, 0]) == 1.0
    assert skew_factor([10, 10, 10, 10]) == 1.0
    assert skew_factor([900, 10, 10, 10]) == pytest.approx(900 / 232.5)
    assert skew_factor([5]) == 1.0


def test_exchange_cost_charges_tuples_and_frames():
    params = CostParameters(network_per_tuple=0.01, network_per_round=0.5)
    assert exchange_cost(100, 4, params) == pytest.approx(100 * 0.01 + 4 * 0.5)
    # Empty exchanges still pay the per-shard frame latency.
    assert exchange_cost(0, 4, params) == pytest.approx(4 * 0.5)


def test_sharded_scan_cost_routes_by_shard_key():
    params = CostParameters(network_per_round=0.25)
    # Replicated extents never divide: one shard scans in full.
    assert sharded_scan_cost(100, 4, params) == pytest.approx(100.0)
    assert sharded_scan_cost(
        100, 4, params, partitioned=True, key_match=True
    ) == pytest.approx(100 / 4 + 0.25)
    # No usable key: scatter everywhere, gated by the skew of the
    # observed partition sizes.
    scattered = sharded_scan_cost(
        100,
        4,
        params,
        partitioned=True,
        partition_sizes=[900, 10, 10, 10],
    )
    assert scattered == pytest.approx(
        100 * (900 / 232.5) / 4 + 4 * 0.25
    )
    # At one shard everything degenerates to a plain scan.
    assert sharded_scan_cost(
        100, 1, params, partitioned=True, key_match=True
    ) == pytest.approx(100.0)


# -- the join-strategy chooser ------------------------------------------------


def test_chooser_prefers_shard_local_on_balanced_partitions():
    params = CostParameters()
    balanced = [250, 250, 250, 250]
    strategy, cost = choose_join_strategy(balanced, 0.02, params)
    assert strategy == SHARD_LOCAL
    assert cost == pytest.approx(
        shard_local_join_cost(balanced, 0.02, params)
    )
    # Balanced partitions have no skew to pay, so shipping every tuple
    # across the exchange can only add cost.
    assert cost < repartition_join_cost(balanced, 0.02, params)


def test_chooser_prefers_repartition_on_skewed_partitions():
    # One hot shard holds 90% of the probe side: the barrier waits on
    # it, so paying the exchange to rebalance wins.
    params = CostParameters(network_per_tuple=0.005, network_per_round=0.05)
    skewed = [900, 10, 10, 10]
    strategy, cost = choose_join_strategy(skewed, 0.1, params)
    assert strategy == REPARTITION
    assert cost == pytest.approx(repartition_join_cost(skewed, 0.1, params))
    assert cost < shard_local_join_cost(skewed, 0.1, params)


def test_round_strategy_chooser_on_constructed_scenarios():
    # Balanced rounds (skew 1): staying put is free, shipping pays the
    # exchange for nothing.
    params = CostParameters(shard_skew=1.0)
    strategy, io, cpu = choose_round_strategy(40.0, 4.0, 200.0, 4, params)
    assert strategy == SHARD_LOCAL
    assert io == pytest.approx(40.0 / 4)
    # Heavy skew: the most loaded shard gates the round, so the chooser
    # pays the exchange to run balanced.
    skewed = CostParameters(shard_skew=3.5)
    strategy, io, cpu = choose_round_strategy(40.0, 4.0, 200.0, 4, skewed)
    assert strategy == REPARTITION
    assert io == pytest.approx(
        40.0 / 4 + exchange_cost(200.0, 4, skewed)
    )


# -- the distributed-Fix variant in the detailed model ------------------------


def test_shards_one_reduces_to_the_exact_serial_formula(music_db, fig3_plan):
    baseline = DetailedCostModel(music_db.physical).cost(fig3_plan)
    # Extreme distributed parameters must be unobservable at shards=1.
    params = CostParameters(
        shards=1,
        network_per_tuple=999.0,
        network_per_round=999.0,
        shard_skew=9.0,
    )
    assert DetailedCostModel(music_db.physical, params).cost(
        fig3_plan
    ) == baseline


def test_distributed_fix_cost_decreases_with_shards(music_db, fig3_plan):
    costs = {}
    for shards in (1, 2, 4):
        params = CostParameters(shards=shards)
        costs[shards] = DetailedCostModel(music_db.physical, params).cost(
            fig3_plan
        )
    assert costs[2] < costs[1]
    assert costs[4] < costs[2]


def test_distributed_fix_cost_charges_the_network(music_db, fig3_plan):
    cheap_net = CostParameters(shards=4)
    pricey_net = CostParameters(
        shards=4, network_per_tuple=1.0, network_per_round=10.0
    )
    cheap = DetailedCostModel(music_db.physical, cheap_net).cost(fig3_plan)
    pricey = DetailedCostModel(music_db.physical, pricey_net).cost(fig3_plan)
    assert pricey > cheap
