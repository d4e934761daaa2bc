"""The service's one request pipeline (plan → execute → settle).

Every op that executes a plan — ``query``, ``explain`` with
``analyze``, ``trace`` (executing), ``diagnose`` — goes through the
same admission (cost budget, then slots weighted by the shard fan-out),
shows up in ``progress`` while it runs, and runs with the configured
batch size.  Ops that only optimize take no slot.  The retired
``strategy`` request field is refused, and old bundles that still
record it replay.
"""

import io
import json

import pytest

from repro.cli import main
from repro.core.optimizer import Optimizer
from repro.cost import CostParameters, DetailedCostModel
from repro.engine import Engine
from repro.engine.batch import default_batch_size
from repro.lang import compile_text
from repro.obs.recorder import database_from_config, load_bundle, replay_bundle
from repro.plans.canonical import canonical_fingerprint
from repro.service import QueryService, ServiceConfig

RECIPE = {"db": "music", "seed": 21, "lineages": 3, "generations": 6}

FIG3 = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 2;
"""

EXECUTING = [
    {"op": "query", "text": FIG3},
    {"op": "explain", "text": FIG3, "analyze": True},
    {"op": "trace", "text": FIG3},
    {"op": "diagnose", "text": FIG3},
]

PLANNING_ONLY = [
    {"op": "explain", "text": FIG3},
    {"op": "trace", "text": FIG3, "execute": False},
]


def _name(request):
    flags = [key for key in ("analyze", "execute") if key in request]
    return "-".join([request["op"]] + [f"{k}={request[k]}" for k in flags])


@pytest.fixture(scope="module")
def db():
    return database_from_config(RECIPE)


def _service(db, **config):
    return QueryService(db, ServiceConfig(**config))


def _watch_executions(monkeypatch, service):
    """Record, from inside every ``Engine.execute``, the engine's knobs,
    the admission slots in use and the requests ``progress`` lists."""
    seen = []
    execute = Engine.execute

    def watched(engine, plan, *args, **kwargs):
        seen.append(
            {
                "request_id": engine.request_id,
                "shards": engine.shards,
                "batch_size": engine.batch_size,
                "slots_in_use": service.admission.snapshot()["slots_in_use"],
                "active": [
                    query["request"]
                    for query in service.progress.snapshot()["active"]
                ],
            }
        )
        return execute(engine, plan, *args, **kwargs)

    monkeypatch.setattr(Engine, "execute", watched)
    return seen


@pytest.mark.parametrize("request_", EXECUTING, ids=_name)
def test_executing_ops_need_a_free_slot(db, request_):
    service = _service(db, max_concurrent=1, queue_timeout=0.01)
    with service.admission.slot():
        response = service.handle(dict(request_))
    assert response["ok"] is False
    assert response["error"]["code"] == "admission_rejected"
    assert service.admission.snapshot()["slots_in_use"] == 0
    # With the slot free again the same request is served.
    assert service.handle(dict(request_))["ok"]


@pytest.mark.parametrize("request_", EXECUTING, ids=_name)
def test_executing_ops_respect_the_cost_budget(db, request_):
    service = _service(db, cost_budget=0.001)
    response = service.handle(dict(request_))
    assert response["ok"] is False
    assert response["error"]["code"] == "admission_rejected"


@pytest.mark.parametrize("request_", PLANNING_ONLY, ids=_name)
def test_planning_only_ops_are_not_admitted(db, request_):
    service = _service(
        db, max_concurrent=1, queue_timeout=0.01, cost_budget=0.001
    )
    with service.admission.slot():
        response = service.handle(dict(request_))
    assert response["ok"], response
    assert "row_count" not in response and "profile" not in response


@pytest.mark.parametrize("request_", EXECUTING, ids=_name)
def test_executing_ops_are_tracked_and_use_the_configured_knobs(
    db, request_, monkeypatch
):
    service = _service(db, batch_size=7)
    seen = _watch_executions(monkeypatch, service)
    response = service.handle(dict(request_))
    assert response["ok"], response
    [run] = seen
    assert run["request_id"] == response["request_id"]
    assert run["active"] == [response["request_id"]]
    assert run["slots_in_use"] == 1
    assert run["batch_size"] == 7
    assert service.progress.snapshot()["active"] == []


def test_sharded_explain_analyze_holds_one_slot_per_shard(db, monkeypatch):
    service = _service(db, max_concurrent=4)
    seen = _watch_executions(monkeypatch, service)
    response = service.handle(
        {"op": "explain", "text": FIG3, "analyze": True, "shards": 4}
    )
    assert response["ok"], response
    assert response["shards"] == 4
    [run] = seen
    assert (run["shards"], run["slots_in_use"]) == (4, 4)
    assert service.admission.snapshot()["slots_in_use"] == 0


def test_diagnose_records_the_plan_the_configured_strategy_chose(db):
    service = _service(db)
    response = service.handle({"op": "diagnose", "text": FIG3})
    assert response["ok"], response
    # Priced at the service's own parameters: its batch size is the
    # engine default (REPRO_BATCH_SIZE or 256).
    params = CostParameters(batch_size=default_batch_size())
    chosen = Optimizer(
        db.physical, DetailedCostModel(db.physical, params)
    ).optimize(compile_text(FIG3, db.catalog))
    assert response["fingerprint"] == canonical_fingerprint(chosen.plan)
    assert response["estimated_cost"] == round(chosen.cost, 2)
    bundle = service.recorder.recent[-1]
    assert "strategy" not in bundle["knobs"]
    events = [
        event["name"]
        for span in bundle["trace"]["spans"]
        for event in span.get("events", [])
    ]
    assert "enumeration.memo" in events


def test_enum_bundle_replays_through_the_cli(db, tmp_path):
    service = _service(db, bundle_dir=str(tmp_path), database_config=RECIPE)
    path = service.handle({"op": "diagnose", "text": FIG3})["bundle"]
    out = io.StringIO()
    assert main(["replay", path], out=out) == 0
    assert "REPLAY OK" in out.getvalue()


@pytest.mark.parametrize("name", ["ii", "enum"])
def test_bundle_with_a_retired_strategy_knob_still_replays(db, tmp_path, name):
    """Bundles recorded while transformPT had two searches carry
    ``knobs.strategy``; replay ignores it and plans with the one
    search, through the serving pipeline."""
    service = _service(db, bundle_dir=str(tmp_path), database_config=RECIPE)
    path = service.handle({"op": "diagnose", "text": FIG3})["bundle"]
    bundle = load_bundle(path)
    bundle["knobs"]["strategy"] = name
    assert replay_bundle(bundle, database=db)["matched"]
    with open(path, "w") as handle:
        json.dump(bundle, handle)
    out = io.StringIO()
    assert main(["replay", path], out=out) == 0
    assert "REPLAY OK" in out.getvalue()


@pytest.mark.parametrize("name", ["sa", "2po", "exhaustive", "ii", "enum"])
def test_retired_strategy_names_are_protocol_errors(db, name):
    """The optimizer has one transformPT search: a ``query`` or
    ``execute`` that still asks for one by name gets a typed error
    naming the field, not silently the only search there is."""
    service = _service(db)
    session = service.open_session()
    statement = service.prepare(session, FIG3)["statement"]
    for request in (
        {"op": "query", "text": FIG3, "strategy": name},
        {
            "op": "execute",
            "session": session,
            "statement": statement,
            "strategy": name,
        },
    ):
        response = service.handle(dict(request, id="r1"))
        assert response["ok"] is False, request
        assert response["id"] == "r1"
        assert response["error"]["code"] == "protocol_error"
        assert "'strategy' is not a request field" in response["error"]["message"]
    assert service.handle({"op": "query", "text": FIG3})["ok"]
    with pytest.raises(TypeError):
        ServiceConfig(strategy=name)


def test_serial_plans_are_priced_at_the_configured_batch_size(db):
    graph = compile_text(FIG3, db.catalog)

    def estimate(params):
        model = DetailedCostModel(db.physical, params)
        return round(Optimizer(db.physical, model).optimize(graph).cost, 2)

    batch_1 = estimate(CostParameters(batch_size=1))
    assert batch_1 != estimate(CostParameters())
    service = _service(db, batch_size=1)
    try:
        assert service.explain_query(FIG3)["estimated_cost"] == batch_1
        assert service.run_query(FIG3)["estimated_cost"] == batch_1
    finally:
        service.close()


def test_close_shuts_down_every_cluster_pool(db):
    service = _service(db, max_concurrent=4)
    for width in (2, 3):
        assert service.handle({"op": "query", "text": FIG3, "shards": width})["ok"]
    clusters = list(service._clusters.values())
    assert [cluster.shards for cluster in clusters] == [2, 3]
    service.close()
    for cluster in clusters:
        with pytest.raises(RuntimeError):
            cluster.submit(print)


@pytest.mark.parametrize("knob", ["shards", "batch_size"])
@pytest.mark.parametrize("value", [0, -3])
def test_service_config_rejects_a_knob_out_of_range(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
        ServiceConfig(**{knob: value})
