"""Differential harness: the serial engine at several batch sizes vs.
the naive reference evaluator, over randomized schemas and queries.

Every generated query is optimized once, then executed on fresh
engines at batch size {1, 64, 1024}.  Every run must produce the
identical answer set (matching :class:`ReferenceEvaluator` ground
truth), and — because batching only groups emissions without
reordering fetches — the identical *per-node tuple counts*, so a lost
or duplicated tuple anywhere in the pipeline fails the run even when
dedup would hide it from the answer set.

The generators, fixtures and the check itself live in
``tests/diff_harness.py`` (shared with the shards sweep in
``test_differential_shards.py``).  ``REPRO_DIFF_EXAMPLES`` scales the
example count (CI runs 100).  ``derandomize=True`` keeps CI seeds
fixed so a red run is reproducible.
"""

import pytest
from hypothesis import given, settings

from tests.diff_harness import (
    DIFF_SETTINGS,
    build_music_db,
    build_parts_db,
    flat_queries,
    parts_queries,
    recursive_queries,
    run_differential,
)

BATCH_SIZES = (1, 64, 1024)

#: (batch_size, shards) — the single-store grid.
GRID = [(batch_size, 1) for batch_size in BATCH_SIZES]


@pytest.fixture(scope="module")
def music_db():
    return build_music_db()


@pytest.fixture(scope="module")
def parts_db():
    return build_parts_db()


@settings(**DIFF_SETTINGS)
@given(graph=flat_queries())
def test_differential_flat_queries(music_db, graph):
    run_differential(music_db, graph, GRID)


@settings(**DIFF_SETTINGS)
@given(graph=recursive_queries())
def test_differential_recursive_queries(music_db, graph):
    run_differential(music_db, graph, GRID)


@settings(**DIFF_SETTINGS)
@given(graph=parts_queries())
def test_differential_parts_queries(parts_db, graph):
    run_differential(parts_db, graph, GRID)
