"""Centralized execution-knob validation: every integer knob —
``batch_size``, ``shards`` — is validated by one shared path
(:func:`validate_knob`, called from the ``Engine`` constructor), and
the enumerated knob — the optimizer's ``push_policy`` — by
:func:`validate_choice`, so every entry point rejects the same bad
values with the same message.  The knobs are fixed at construction:
``Engine.execute`` takes none of them.  The retired ``strategy`` knob
is refused by the protocol, not validated, and is ignored where old
bundles and telemetry lines still carry it.
"""

import json

import pytest

from repro.core.optimizer import PUSH_POLICIES, OptimizerConfig
from repro.engine import Engine
from repro.engine.context import validate_choice, validate_knob
from repro.errors import OptimizationError
from repro.workloads import MusicConfig, generate_music_database

KNOBS = ("batch_size", "shards")

QUERY = "select [name: x.name] from x in Composer;"


@pytest.fixture(scope="module")
def db():
    return generate_music_database(
        MusicConfig(lineages=1, generations=2, works_per_composer=1, seed=3)
    )


@pytest.fixture(scope="module")
def physical(db):
    return db.physical


# -- the shared validator -----------------------------------------------------


def test_validate_knob_accepts_none_and_positive_ints():
    for value in (None, 1, 2, 4096):
        validate_knob("anything", value)  # must not raise


@pytest.mark.parametrize("bad", [0, -1, -100])
def test_validate_knob_rejects_below_minimum(bad):
    with pytest.raises(ValueError, match="knob must be >= 1"):
        validate_knob("knob", bad)


@pytest.mark.parametrize("bad", [1.5, "2", True, False, [4]])
def test_validate_knob_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="knob must be an integer >= 1"):
        validate_knob("knob", bad)


def test_validate_knob_honours_custom_minimum():
    validate_knob("window", 8, minimum=8)
    with pytest.raises(ValueError, match="window must be >= 8"):
        validate_knob("window", 7, minimum=8)


def test_validate_choice_accepts_none_and_members():
    for value in (None, "cost", "always", "never"):
        validate_choice("push_policy", value, PUSH_POLICIES)  # must not raise


@pytest.mark.parametrize("bad", ["diagonal", "", "II", 1, ["ii"]])
def test_validate_choice_rejects_non_members(bad):
    message = "push_policy must be one of: cost, always, never$"
    with pytest.raises(ValueError, match=message):
        validate_choice("push_policy", bad, PUSH_POLICIES)
    with pytest.raises(OptimizationError, match=message):
        OptimizerConfig(push_policy=bad)


@pytest.mark.parametrize("name", ["ii", "enum", None])
def test_retired_strategy_knob_is_refused_by_the_protocol(db, name):
    from repro.service import QueryService, ServiceConfig

    with pytest.raises(TypeError):
        ServiceConfig(strategy=name)
    with pytest.raises(OptimizationError, match="SearchStrategy instance"):
        OptimizerConfig(strategy=name or "enum")
    service = QueryService(db, ServiceConfig(feedback_enabled=False))
    try:
        response = service.handle(
            {"op": "query", "text": QUERY, "strategy": name}
        )
    finally:
        service.close()
    assert response["ok"] is False
    assert response["error"]["code"] == "protocol_error"
    assert "'strategy'" in response["error"]["message"]


def test_telemetry_lines_with_a_strategy_knob_still_load(tmp_path):
    from repro.obs.history import QueryTelemetryStore

    path = tmp_path / "telemetry.jsonl"
    lines = [
        {
            "kind": "plan",
            "canonical": "Q",
            "fingerprint": "fp1",
            "plan_cost": 10.0,
            "knobs": {"strategy": "ii"},
        },
        {
            "kind": "obs",
            "fingerprint": "fp1",
            "estimated_cost": 10.0,
            "measured_cost": 12.0,
            "rows": 3,
            "knobs": {"strategy": "ii", "batch_size": 256},
        },
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    store = QueryTelemetryStore()
    assert store.load(str(path)) == 2
    [observation] = store.plan("fp1").observations
    assert (observation.measured_cost, observation.rows) == (12.0, 3)


# -- the engine constructor goes through the same path ------------------------


def test_engine_constructor_validates_batch_size(physical):
    assert Engine(physical, batch_size=256).batch_size == 256
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        Engine(physical, batch_size=0)
    with pytest.raises(ValueError, match="batch_size must be an integer"):
        Engine(physical, batch_size=True)


def test_engine_constructor_validates_shards(physical):
    assert Engine(physical, shards=4).shards == 4
    with pytest.raises(ValueError, match="shards must be >= 1"):
        Engine(physical, shards=-2)
    with pytest.raises(ValueError, match="shards must be an integer"):
        Engine(physical, shards="4")


@pytest.mark.parametrize("knob", KNOBS)
def test_engine_constructor_rejects_bad_knobs(physical, knob):
    with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
        Engine(physical, **{knob: 0})
    with pytest.raises(ValueError, match=f"{knob} must be an integer >= 1"):
        Engine(physical, **{knob: 3.5})


def test_engine_constructor_accepts_good_knobs(physical):
    engine = Engine(physical, batch_size=64, shards=2)
    assert engine.batch_size == 64
    assert engine.shards == 2


def test_retired_parallelism_knob_is_not_accepted(physical):
    with pytest.raises(TypeError):
        Engine(physical, parallelism=2)


def test_execute_takes_no_per_run_knobs(physical):
    from repro.plans import EntityLeaf

    engine = Engine(physical, batch_size=4)
    with pytest.raises(TypeError):
        engine.execute(EntityLeaf("Composer", "x"), context=object())
    with pytest.raises(TypeError):
        engine.execute(EntityLeaf("Composer", "x"), batch_size=8)
    assert engine.batch_size == 4
