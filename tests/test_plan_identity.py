"""One plan id crosses the process boundary: the canonical fingerprint.

A plan and its twin that differs only in one ``EJ``'s join algorithm
are different plans — different cost, different execution — so every
id that leaves the process must tell them apart: the telemetry store's
plan keys, ``plan_change`` events, and the fingerprint a flight bundle
records and ``replay_bundle`` checks.  (Version-1 bundles hashed
display labels, which then carried an ``EJ``'s predicate but not its
algorithm.)
"""

import json

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.engine import Engine
from repro.lang.compile import compile_text
from repro.obs.feedback import FeedbackManager
from repro.obs.recorder import (
    BUNDLE_VERSION,
    build_bundle,
    database_from_config,
    load_bundle,
    replay_bundle,
)
from repro.plans.canonical import canonical_fingerprint
from repro.plans.nodes import EJ, HASH_JOIN, INDEX_JOIN

RECIPE = {"db": "music", "seed": 21, "lineages": 3, "generations": 6}

FIG3 = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.gen >= 2;
"""


@pytest.fixture(scope="module")
def db():
    return database_from_config(RECIPE)


@pytest.fixture(scope="module")
def chosen(db):
    graph = compile_text(FIG3, db.catalog)
    return cost_controlled_optimizer(db.physical).optimize(graph)


@pytest.fixture(scope="module")
def twin(chosen):
    """The chosen plan with its Fix-body join flipped to an index join."""
    [join] = [node for node in chosen.plan.walk() if isinstance(node, EJ)]
    assert join.algorithm == HASH_JOIN
    flipped = EJ(join.left, join.right, join.predicate, INDEX_JOIN)
    plan = chosen.plan.substitute(join, flipped)
    assert plan != chosen.plan
    return plan


def test_the_twin_has_its_own_canonical_fingerprint(chosen, twin):
    assert canonical_fingerprint(twin) != canonical_fingerprint(chosen.plan)


def test_telemetry_keeps_the_twin_apart(chosen, twin):
    feedback = FeedbackManager()
    first = feedback.register_plan("q", chosen.plan, chosen.cost)
    second = feedback.register_plan("q", twin, chosen.cost)
    assert first != second
    assert feedback.store.plan(first) is not feedback.store.plan(second)


def test_plan_changed_reports_a_flipped_join_algorithm(chosen, twin):
    feedback = FeedbackManager()
    event = feedback.plan_changed(
        "q", chosen.plan, chosen.cost, twin, chosen.cost, "drift"
    )
    assert event is not None
    assert event["old_fingerprint"] == canonical_fingerprint(chosen.plan)
    assert event["new_fingerprint"] == canonical_fingerprint(twin)


def _bundle(db, chosen, fingerprint):
    execution = Engine(db.physical).execute(chosen.plan)
    return build_bundle(
        query_text=FIG3,
        canonical=FIG3,
        query_cls="identity",
        plan=chosen.plan,
        fingerprint=fingerprint,
        estimated_cost=chosen.cost,
        rows=execution.rows,
        measured_cost=execution.metrics.measured_cost(),
        execute_seconds=0.01,
        fix_iterations=execution.metrics.fix_iterations,
        knobs={"shards": 1, "max_fix_iterations": 256},
        physical=db.physical,
        database=RECIPE,
    )


def test_replay_reports_the_twin_as_a_plan_mismatch(db, chosen, twin):
    # The id the service would have recorded, had it chosen the twin.
    recorded = FeedbackManager().register_plan("q", twin, chosen.cost)
    report = replay_bundle(_bundle(db, chosen, recorded), database=db)
    assert report["answer_match"]
    assert report["plan_match"] is False
    assert report["matched"] is False
    assert report["fingerprint"] == canonical_fingerprint(chosen.plan)
    assert report["expected_fingerprint"] == recorded


def test_replay_matches_the_plan_itself(db, chosen):
    recorded = FeedbackManager().register_plan("q", chosen.plan, chosen.cost)
    assert replay_bundle(_bundle(db, chosen, recorded), database=db)["matched"]


def test_a_label_hash_bundle_is_refused_not_replayed(db, chosen, tmp_path):
    """Version-1 bundles recorded a label hash; replaying one would
    report a false plan mismatch, so loading it fails instead."""
    assert BUNDLE_VERSION == 2
    bundle = _bundle(db, chosen, canonical_fingerprint(chosen.plan))
    bundle["bundle_version"] = 1
    path = tmp_path / "old.json"
    path.write_text(json.dumps(bundle, default=str))
    with pytest.raises(ValueError, match="unsupported bundle_version 1"):
        load_bundle(str(path))
