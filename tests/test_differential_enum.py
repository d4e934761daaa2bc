"""Differential harness, enumeration dimension: plans chosen by the
memoized enumerator (``--strategy enum``) run through the answer-set
equality sweep — batch size {1, 256} × shards {1, 2} — against the
reference evaluator.

The enumerator applies every move in the transformation graph
(selection pushes in/out of Fix, join pushes, join/operator reorders),
so this sweep is the end-to-end proof that each of those moves is
semantics-preserving: whatever plan ``enum`` lands on must produce the
identical answer set and per-node tuple counts under every execution
configuration the engine supports.
"""

import pytest
from hypothesis import given, settings

from repro.core import enumerating_optimizer
from repro.dist import ShardCluster

from tests.diff_harness import (
    DIFF_SETTINGS,
    MAX_EXAMPLES,
    build_music_db,
    build_parts_db,
    flat_queries,
    parts_queries,
    recursive_queries,
    run_differential,
)

BATCH_SIZES = (1, 256)
SHARD_WIDTHS = (1, 2)

#: (batch_size, shards) — serial baseline first.
GRID = [
    (batch_size, shards)
    for shards in SHARD_WIDTHS
    for batch_size in BATCH_SIZES
]
assert GRID[0] == (1, 1)

# Each example optimizes with the full enumerator and executes a
# 4-configuration grid; cap the sweep so tier-1 stays fast
# (REPRO_DIFF_EXAMPLES still scales it up in CI).
ENUM_SETTINGS = dict(DIFF_SETTINGS, max_examples=min(MAX_EXAMPLES, 10))


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


@settings(**ENUM_SETTINGS)
@given(graph=flat_queries())
def test_differential_enum_flat_queries(music_db, music_cluster, graph):
    run_differential(
        music_db,
        graph,
        GRID,
        cluster=music_cluster,
        optimizer=enumerating_optimizer,
    )


@settings(**ENUM_SETTINGS)
@given(graph=recursive_queries())
def test_differential_enum_recursive_queries(music_db, music_cluster, graph):
    run_differential(
        music_db,
        graph,
        GRID,
        cluster=music_cluster,
        optimizer=enumerating_optimizer,
    )


@settings(**ENUM_SETTINGS)
@given(graph=parts_queries())
def test_differential_enum_parts_queries(parts_db, parts_cluster, graph):
    run_differential(
        parts_db,
        graph,
        GRID,
        cluster=parts_cluster,
        optimizer=enumerating_optimizer,
    )
