"""Property test: arbitrary move sequences preserve plan semantics.

The transformPT search walks the move graph freely; soundness of the
whole optimizer rests on every edge being an equivalence.  This test
generates random databases, optimizes the paper's queries to obtain
realistic starting plans, then applies random move sequences and checks
the answer set never changes.
"""

import random as random_module

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import naive_optimizer
from repro.core.moves import neighbors
from repro.engine import Engine
from repro.plans import validate_plan
from repro.workloads import (
    MusicConfig,
    fig2_query,
    fig3_query,
    generate_music_database,
    join_push_query,
)

QUERIES = {
    "fig2": fig2_query,
    "fig3": fig3_query,
    "joinpush": join_push_query,
}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_name=st.sampled_from(sorted(QUERIES)),
    walk_seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=1, max_value=5),
    extended=st.booleans(),
)
def test_random_move_walks_preserve_answers(
    seed, query_name, walk_seed, steps, extended
):
    db = generate_music_database(
        MusicConfig(lineages=2, generations=5, works_per_composer=2, seed=seed)
    )
    db.build_paper_indexes()
    graph = QUERIES[query_name]()
    start = naive_optimizer(db.physical).optimize(graph).plan
    engine = Engine(db.physical)
    want = engine.execute(start).answer_set()

    rng = random_module.Random(walk_seed)
    current = start
    for _step in range(steps):
        options = neighbors(current, db.physical, extended=extended)
        if not options:
            break
        _description, current = rng.choice(options)
        validate_plan(current, db.physical)
        got = engine.execute(current).answer_set()
        assert got == want, (
            f"move {_description!r} changed the answers on {query_name} "
            f"(db seed {seed})"
        )
