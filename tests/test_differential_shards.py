"""Differential harness, shards dimension: the distributed
scatter-gather fixpoint vs. the serial engine vs. the reference
evaluator, over the same randomized queries as
``test_differential_batch.py``.

The grid sweeps shards {1, 2, 4} × batch size {1, 256}; the serial
single-shard configuration comes first so the
per-node tuple counts of every sharded run are compared against it.
A dedicated test pins the stronger shards=1 guarantee: the knob alone
(no cluster dispatch) must reproduce the serial engine's execution
*exactly* — answers, per-node tuple counts and logical page reads.

Shard width 2 and 4 share one width-4 cluster per database: the
distributed fixpoint uses the first ``shards`` workers, and clusters
are built to be shared (per-request state lives in shard sessions).
"""

import pytest
from hypothesis import given, settings

from repro.dist import ShardCluster
from repro.engine import Engine

from tests.diff_harness import (
    DIFF_SETTINGS,
    build_music_db,
    build_parts_db,
    flat_queries,
    parts_queries,
    recursive_queries,
    run_differential,
)

BATCH_SIZES = (1, 256)
SHARD_WIDTHS = (1, 2, 4)

#: (batch_size, shards) — serial baseline first.
GRID = [
    (batch_size, shards)
    for shards in SHARD_WIDTHS
    for batch_size in BATCH_SIZES
]
assert GRID[0] == (1, 1)

#: The kernel-parity sweep crosses column kernels {on, off} into a
#: batch {1, 256} × shards {1, 2} grid; the harness additionally
#: requires predicate_evals, expr_evals, batches and the logical reads,
#: physical reads and evictions of cold-buffer runs to be identical
#: with kernels on and off at every grid point — kernels on, the hash
#: EJ probes its drained inner through a key index; declined, it judges
#: every pair — and runs every hash-join plan again as a nested loop.
KERNELS = (True, False)
LAYOUT_GRID = [
    (batch_size, shards) for shards in (1, 2) for batch_size in BATCH_SIZES
]


@pytest.fixture(scope="module")
def music_db():
    return build_music_db()


@pytest.fixture(scope="module")
def parts_db():
    return build_parts_db()


@pytest.fixture(scope="module")
def music_cluster(music_db):
    with ShardCluster(music_db.physical, max(SHARD_WIDTHS)) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def parts_cluster(parts_db):
    with ShardCluster(parts_db.physical, max(SHARD_WIDTHS)) as cluster:
        yield cluster


@settings(**DIFF_SETTINGS)
@given(graph=flat_queries())
def test_differential_shards_flat_queries(music_db, music_cluster, graph):
    run_differential(music_db, graph, GRID, cluster=music_cluster)


@settings(**DIFF_SETTINGS)
@given(graph=recursive_queries())
def test_differential_shards_recursive_queries(
    music_db, music_cluster, graph
):
    run_differential(music_db, graph, GRID, cluster=music_cluster)


@settings(**DIFF_SETTINGS)
@given(graph=parts_queries())
def test_differential_shards_parts_queries(parts_db, parts_cluster, graph):
    run_differential(parts_db, graph, GRID, cluster=parts_cluster)


@settings(**DIFF_SETTINGS)
@given(graph=flat_queries())
def test_differential_layout_sweep_flat_queries(
    music_db, music_cluster, graph
):
    run_differential(
        music_db, graph, LAYOUT_GRID, cluster=music_cluster, kernels=KERNELS
    )


@settings(**DIFF_SETTINGS)
@given(graph=recursive_queries())
def test_differential_layout_sweep_recursive_queries(
    music_db, music_cluster, graph
):
    run_differential(
        music_db, graph, LAYOUT_GRID, cluster=music_cluster, kernels=KERNELS
    )


def test_shards_one_is_exactly_serial(music_db, music_cluster):
    """shards=1 must bypass the distribution layer entirely: identical
    answers, per-node tuple counts *and* logical page reads as a plain
    serial engine — not just the same answer set."""
    from repro.core import cost_controlled_optimizer
    from repro.workloads.queries import fig3_query

    graph = fig3_query()
    plan = cost_controlled_optimizer(music_db.physical).optimize(graph).plan

    serial = Engine(music_db.physical).execute(plan)
    knobbed = Engine(
        music_db.physical, shards=1, cluster=music_cluster
    ).execute(plan)

    assert knobbed.answer_set() == serial.answer_set()
    assert knobbed.metrics.total_tuples == serial.metrics.total_tuples
    assert dict(knobbed.metrics.tuples_by_node) == dict(
        serial.metrics.tuples_by_node
    )
    assert (
        knobbed.metrics.buffer.logical_reads
        == serial.metrics.buffer.logical_reads
    )
    assert knobbed.metrics.shards_used == 0
    assert knobbed.metrics.exchange_rounds == 0
