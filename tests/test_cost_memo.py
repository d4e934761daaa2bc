"""The cost memos: exact, scoped, and doing each piece of work once.

Two memos: the optimization-scoped one (every subterm, dropped when
``optimize`` returns) and the statistics epoch's (``Fix`` prices and
estimates only, kept by the physical schema until the statistics, the
physical design or the parameters change).

The exactness oracle throughout is *a fresh ``DetailedCostModel`` built
for one plan*, with its memo scope switched off (``_Unmemoised``) —
``src/`` keeps no unmemoised costing path, so every value a search saw
is re-derived here by a model that has seen nothing else and remembers
nothing.  The epoch memo is checked against ``_ScopeOnly``, a model
that remembers nothing beyond one scope.  Comparisons are ``==`` on
floats, never ``approx``: a memo must return the very number the
arithmetic would have produced.
"""

import contextlib
import dataclasses
import random
import sys
import threading

import pytest

from repro.core import naive_optimizer
from repro.core.enumerate import MemoizedEnumeration
from repro.core.moves import neighbors
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.strategies import (
    IterativeImprovement,
    SimulatedAnnealing,
    TwoPhase,
)
from repro.cost import CostParameters, DetailedCostModel
from repro.cost.cardinality import (
    DEFAULT_EQ_SELECTIVITY,
    CardinalityEstimator,
)
from repro.lang import compile_text
from repro.obs.feedback import FeedbackConfig, FeedbackManager, operator_estimates
from repro.physical import schema as schema_module
from repro.physical.stats import Statistics
from repro.plans.canonical import alpha_rename, canonical_fingerprint
from repro.plans.nodes import PIJ, EntityLeaf, Fix, Sel, TempLeaf
from repro.plans.patterns import consumed_variables
from repro.service.plan_cache import stats_fingerprint
from repro.querygraph.predicates import Comparison, Const, PathRef
from repro.service import QueryService, ServiceConfig
from repro.workloads import (
    MusicConfig,
    fig2_query,
    fig3_query,
    generate_music_database,
    join_push_query,
)
from repro.workloads.parts import (
    PartsConfig,
    components_of_query,
    generate_parts_database,
)

PARAMS = {
    "serial": CostParameters(),
    "shards": CostParameters(shards=4),
}
#: Every search, built fresh per optimize (the randomized ones seeded
#: as ``OptimizerConfig(strategy="ii")`` seeds II).
STRATEGIES = {
    "ii": lambda: IterativeImprovement(seed=1992),
    "sa": lambda: SimulatedAnnealing(seed=1992),
    "2po": lambda: TwoPhase(seed=1992),
    "enum": MemoizedEnumeration,
}


@pytest.fixture(scope="module")
def music_db():
    """The ``cold_optimize`` database of the macro benchmark."""
    db = generate_music_database(MusicConfig(lineages=4, generations=7))
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def parts_db():
    return generate_parts_database(
        PartsConfig(assemblies=4, depth=3, fanout=3, sharing=0.2, seed=7)
    )


def _fig3_selective(db):
    instrument = min(
        record.values["name"] for record in db.store.extent("Instrument").records
    )
    return fig3_query(instrument, 3)


@pytest.fixture(scope="module")
def workloads(music_db, parts_db):
    return {
        "fig3": (music_db, _fig3_selective(music_db)),
        "joinpush": (music_db, join_push_query()),
        "parts": (parts_db, components_of_query()),
    }


class _Unmemoised(DetailedCostModel):
    """The oracle: Figure 5 re-derived from nothing at every node."""

    @contextlib.contextmanager
    def memo_scope(self):
        yield


class _ScopeOnly(DetailedCostModel):
    """The epoch memo's oracle: the scope memo, but nothing read from
    or kept in the statistics epoch's memo."""

    @contextlib.contextmanager
    def memo_scope(self):
        with super().memo_scope():
            self._epoch = self.estimator._epoch = None
            yield


def _fresh(physical, params):
    return _Unmemoised(physical, dataclasses.replace(params))


def _fresh_report(physical, params, plan, delta_env=None):
    return _fresh(physical, params).report(plan, delta_env)


def _record_costed_plans(model):
    """Make ``model.cost`` remember every (plan, delta_env, value) it is
    asked for — the optimizer's generatePT and every strategy's
    ``cost_fn`` go through this attribute."""
    seen = []
    original = model.cost

    def recording_cost(plan, delta_env=None):
        value = original(plan, delta_env)
        seen.append((plan, delta_env, value))
        return value

    model.cost = recording_cost
    return seen


def _count_calls(monkeypatch, cls, name):
    """``(self, *args)`` of every ``cls.name`` call from now on."""
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append((self, *args))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


# -- exactness ---------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(STRATEGIES))
@pytest.mark.parametrize("params_name", sorted(PARAMS))
@pytest.mark.parametrize("workload", ["fig3", "joinpush", "parts"])
def test_every_plan_a_search_costs_equals_a_fresh_model(
    workloads, workload, params_name, strategy
):
    db, graph = workloads[workload]
    params = PARAMS[params_name]
    model = DetailedCostModel(db.physical, dataclasses.replace(params))
    seen = _record_costed_plans(model)
    config = OptimizerConfig(strategy=STRATEGIES[strategy]())
    optimizer = Optimizer(db.physical, model, config)
    result = optimizer.optimize(graph)

    assert len(seen) >= result.plans_costed > 0
    checked = set()
    for plan, delta_env, value in seen:
        env_key = None if delta_env is None else tuple(
            (name, tuples, shape.memo_key())
            for name, (tuples, shape) in sorted(delta_env.items())
        )
        if (plan, env_key) in checked:
            continue
        checked.add((plan, env_key))
        fresh = _fresh_report(db.physical, params, plan, delta_env)
        assert value == fresh.total
    assert result.cost == _fresh_report(db.physical, params, result.plan).total


@pytest.mark.parametrize("params_name", sorted(PARAMS))
def test_io_and_cpu_are_exact_inside_one_scope(workloads, params_name):
    """One scope shared by every plan of a move neighbourhood: each
    plan's (io, cpu) — served from the memo wherever a subplan repeats —
    equals a fresh model's, component for component."""
    params = PARAMS[params_name]
    for db, graph in workloads.values():
        start = naive_optimizer(db.physical).optimize(graph).plan
        plans = [start] + [plan for _d, plan in neighbors(start, db.physical)]
        model = DetailedCostModel(db.physical, dataclasses.replace(params))
        with model.memo_scope():
            for _repeat in range(2):  # the second pass is all root hits
                for plan in plans:
                    io, cpu = model._cost_plan(plan, None, None)
                    fresh = _fresh_report(db.physical, params, plan)
                    assert (io, cpu) == (fresh.io, fresh.cpu)
                    assert model.cost(plan) == fresh.total


@pytest.mark.parametrize("query_name", ["fig2", "fig3", "joinpush"])
@pytest.mark.parametrize("seed", [11, 222, 3333])
def test_random_move_walks_cost_exactly(seed, query_name):
    """The plan population of ``test_property_moves``: random walks over
    the extended move graph from the naive plan, all costed in one
    scope."""
    queries = {
        "fig2": fig2_query,
        "fig3": fig3_query,
        "joinpush": join_push_query,
    }
    db = generate_music_database(
        MusicConfig(lineages=2, generations=5, works_per_composer=2, seed=seed)
    )
    db.build_paper_indexes()
    start = naive_optimizer(db.physical).optimize(queries[query_name]()).plan
    rng = random.Random(seed)
    model = DetailedCostModel(db.physical)
    with model.memo_scope():
        for extended in (False, True):
            current = start
            for _step in range(5):
                options = neighbors(current, db.physical, extended=extended)
                if not options:
                    break
                _description, current = rng.choice(options)
                fresh = _fresh_report(db.physical, CostParameters(), current)
                assert model.cost(current) == fresh.total


def test_report_and_annotated_report_are_unchanged_inside_a_scope(workloads):
    for db, graph in workloads.values():
        plan = Optimizer(db.physical).optimize(graph).plan
        fresh = _fresh(db.physical, CostParameters())
        want_report = fresh.report(plan)
        want_annotated, want_captured = fresh.annotated_report(plan)

        model = DetailedCostModel(db.physical)
        with model.memo_scope():
            model.cost(plan)  # fill the memo first: every node is a hit now
            got_report = model.report(plan)
            got_annotated, got_captured = model.annotated_report(plan)
        for got, want in ((got_report, want_report), (got_annotated, want_annotated)):
            assert (got.total, got.io, got.cpu) == (want.total, want.io, want.cpu)
            assert got.rows == want.rows
        assert want_report.rows, "report() still builds the per-node table"
        assert set(got_captured) == set(want_captured)
        for node_id, want_entry in want_captured.items():
            got_entry = got_captured[node_id]
            assert (got_entry.cost, got_entry.tuples, got_entry.visits) == (
                want_entry.cost,
                want_entry.tuples,
                want_entry.visits,
            )


def test_fix_breakdowns_are_filled_on_a_memo_hit_when_sharded(workloads):
    params = PARAMS["shards"]
    for db, graph in workloads.values():
        plan = Optimizer(db.physical).optimize(graph).plan
        fixes = [node for node in plan.walk() if isinstance(node, Fix)]
        assert fixes
        fresh = _fresh(db.physical, params)
        fresh.cost(plan)
        model = DetailedCostModel(db.physical, dataclasses.replace(params))
        with model.memo_scope():
            first = model.cost(plan)
            second = model.cost(plan)  # cost() resets fix_breakdowns
            assert first == second
            for fix in fixes:
                assert model.fix_breakdowns[id(fix)] == fresh.fix_breakdowns[id(fix)]


def test_alpha_variants_get_their_own_entries(workloads):
    """Entries are keyed on the term itself, not on its canonical
    fingerprint: a renamed twin is costed on its own (and, renaming
    being cost-neutral, to the same number)."""
    db, graph = workloads["fig3"]
    plan = Optimizer(db.physical).optimize(graph).plan
    names = sorted(consumed_variables(plan))
    twin = alpha_rename(plan, {name: f"{name}_p0" for name in names})
    assert twin != plan
    assert canonical_fingerprint(twin) == canonical_fingerprint(plan)
    model = DetailedCostModel(db.physical)
    with model.memo_scope():
        assert model.cost(plan) == model.cost(twin)
        roots = [key for key in model._memo if key[0] in (plan, twin)]
        assert len(roots) == 2
    assert model.cost(twin) == _fresh_report(db.physical, CostParameters(), twin).total


def test_pij_entries_depend_on_what_the_whole_plan_consumes(music_db):
    """The same PIJ subterm under two roots, only one of which reads
    the intermediate variable: one scope must keep the two apart."""
    physical = music_db.physical
    plan = Optimizer(physical).optimize(_fig3_selective(music_db)).plan
    pij = next(
        node
        for description, neighbor in neighbors(plan, physical)
        if description.startswith("collapse")
        for node in neighbor.walk()
        if isinstance(node, PIJ) and not node.memo_traits()[0]
    )
    intermediate = pij.out_vars[0]
    assert intermediate not in consumed_variables(pij)
    reader = Sel(
        pij, Comparison("=", PathRef(intermediate, ("title",)), Const("nothing"))
    )
    model = DetailedCostModel(physical)
    with model.memo_scope():
        unread_cost = model.cost(pij)
        read_cost = model.cost(reader)
        again = model.cost(pij)
    assert unread_cost == again == _fresh_report(physical, CostParameters(), pij).total
    assert read_cost == _fresh_report(physical, CostParameters(), reader).total


# -- scope -------------------------------------------------------------------


def test_the_scope_memo_is_dropped_after_optimize(workloads):
    db, graph = workloads["fig3"]
    model = DetailedCostModel(db.physical)
    optimizer = Optimizer(db.physical, model)
    first = optimizer.optimize(graph)
    assert model._memo is None and model.estimator._memo is None
    assert model._epoch is None and model.estimator._epoch is None

    # A params change in place between two optimize() calls is seen,
    # by the scope memo and by the epoch memo alike.
    model.params.page_read *= 3.0
    second = optimizer.optimize(graph)
    assert model._memo is None and model.estimator._memo is None
    expected = Optimizer(
        db.physical,
        _ScopeOnly(db.physical, dataclasses.replace(model.params)),
    ).optimize(graph)
    assert second.cost == expected.cost != first.cost
    assert second.candidates == expected.candidates


def test_only_fix_prices_outlive_the_scope(music_db, monkeypatch):
    """What outlives an optimize is the epoch memo, and it holds only
    ``Fix``-rooted terms; it lives until the statistics change."""
    physical = music_db.physical
    physical.refresh_statistics()
    assert physical._epoch_memo is None
    graph = _fig3_selective(music_db)
    first = Optimizer(physical).optimize(graph)
    memo = physical._epoch_memo
    assert len(memo) > 0
    kinds = set()
    for kind, key, params_key in memo._entries:
        kinds.add(kind)
        assert isinstance(key[0], Fix) and not key[0].memo_traits()[3]
        assert params_key == CostParameters().resolved(music_db.store).memo_key()
    assert kinds == {"cost", "estimate"}

    bodies = _count_calls(monkeypatch, DetailedCostModel, "_cost_fix")
    again = Optimizer(physical).optimize(graph)
    assert bodies == [] and physical._epoch_memo is memo
    assert (again.plan, again.cost, again.candidates) == (
        first.plan,
        first.cost,
        first.candidates,
    )
    physical.refresh_statistics()
    assert physical._epoch_memo is None


def test_the_scope_is_dropped_when_optimize_raises(workloads, monkeypatch):
    db, graph = workloads["fig3"]
    model = DetailedCostModel(db.physical)
    optimizer = Optimizer(db.physical, model)

    def boom(plan):
        raise RuntimeError("transformPT failed")

    monkeypatch.setattr(optimizer, "_transform_pt", boom)
    with pytest.raises(RuntimeError):
        optimizer.optimize(graph)
    assert model._memo is None and model.estimator._memo is None


def test_refreshed_statistics_are_seen():
    db = generate_music_database(MusicConfig(lineages=4, generations=7))
    db.build_paper_indexes()
    graph = _fig3_selective(db)
    before = Optimizer(db.physical).optimize(graph)
    stats = db.physical.statistics
    for index in range(200):
        db.store.insert(
            "Composer",
            {"name": f"grown_{index:04d}", "birthyear": 1900, "master": None, "works": ()},
        )
    db.physical.refresh_statistics()
    assert db.physical.statistics is not stats
    after = Optimizer(db.physical).optimize(graph)
    assert after.cost != before.cost
    assert after.cost == _fresh_report(
        db.physical, CostParameters(), after.plan
    ).total


# -- the statistics epoch ---------------------------------------------------------

#: The ``cold_optimize`` traffic: this text for 12 instruments x 11
#: thresholds.
COLD_TEXT = (
    "view Influencer as "
    "select [master: x.master, disciple: x, gen: 1] from x in Composer "
    "union "
    "select [master: i.master, disciple: x, gen: i.gen + 1] "
    "from i in Influencer, x in Composer where i.disciple = x.master; "
    "select [name: i.disciple.name, gen: i.gen] from i in Influencer "
    'where i.master.works.instruments.name = "{instrument}" '
    "and i.gen >= {gen};"
)


def _cold_database(seed=0, indexes=True):
    db = generate_music_database(MusicConfig(lineages=4, generations=7, seed=seed))
    if indexes:
        db.build_paper_indexes()
    db.physical.refresh_statistics()
    return db


def _cold_texts(db):
    instruments = sorted(
        record.values["name"] for record in db.store.extent("Instrument").records
    )
    return [
        COLD_TEXT.format(instrument=instrument, gen=gen)
        for instrument in instruments
        for gen in range(1, 12)
    ]


def _warm_and_fresh(physical, graph, params=None):
    """``graph`` optimized on the epoch memo as it stands (warm) and by
    a model that remembers nothing beyond one scope (fresh); asserts
    the two agree and returns ``(warm result, warm model, fresh model)``."""
    params = params or CostParameters()
    warm_model = DetailedCostModel(physical, dataclasses.replace(params))
    fresh_model = _ScopeOnly(physical, dataclasses.replace(params))
    warm = Optimizer(physical, warm_model).optimize(graph)
    fresh = Optimizer(physical, fresh_model).optimize(graph)
    assert warm.plan == fresh.plan
    assert warm.cost == fresh.cost
    assert warm.candidates == fresh.candidates
    assert warm.plans_costed == fresh.plans_costed
    return warm, warm_model, fresh_model


@pytest.mark.parametrize("seed", [7, 92])
def test_a_warm_epoch_optimizes_every_cold_text_like_a_fresh_model(
    seed, monkeypatch
):
    db = _cold_database(seed)
    texts = _cold_texts(db)
    assert len(texts) == 132
    for text in texts:
        Optimizer(db.physical).optimize(compile_text(text, db.catalog))
    bodies = _count_calls(monkeypatch, DetailedCostModel, "_cost_fix")
    for text in texts:
        graph = compile_text(text, db.catalog)
        warm, warm_model, fresh_model = _warm_and_fresh(db.physical, graph)
        # Every Fix of the warm optimize was served from the epoch.
        assert not any(call[0] is warm_model for call in bodies)
        assert operator_estimates(warm.plan, warm_model) == operator_estimates(
            warm.plan, fresh_model
        )


def _insert_composers(db):
    for index in range(200):
        db.store.insert(
            "Composer",
            {"name": f"grown_{index:04d}", "birthyear": 1900, "master": None, "works": ()},
        )


def _refresh_after_inserts(db):
    _insert_composers(db)
    db.physical.refresh_statistics()


def _build_path_index(db):
    db.physical.build_path_index(
        "Composer",
        ["works", "instruments"],
        ["Composer", "Composition", "Instrument"],
        terminal_attribute="name",
    )


def _shrink_buffer(db):
    db.store.buffer.capacity = 2


#: change -> (apply it, whether the schema drops the epoch memo).
CHANGES = {
    "refresh_statistics": (_refresh_after_inserts, True),
    "selection_index": (
        lambda db: db.physical.build_selection_index("Composer", "name"),
        True,
    ),
    "path_index": (_build_path_index, True),
    "buffer_capacity": (_shrink_buffer, False),
    "insert_without_refresh": (_insert_composers, False),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_change_under_the_prices_is_seen(change):
    """After each change that could move a retained price, a warm model
    still optimizes like a fresh one.  Statistics and design changes
    drop the memo; a buffer size is part of the key (the parameters are
    resolved against the store); an insert without a refresh moves no
    statistic the model reads."""
    db = _cold_database(indexes=False)
    graphs = [_fig3_selective(db), join_push_query()]
    def outcome(result):
        return result.plan, result.cost, result.candidates, result.plans_costed

    before = [outcome(Optimizer(db.physical).optimize(graph)) for graph in graphs]
    assert len(db.physical._epoch_memo) > 0
    apply, drops = CHANGES[change]
    apply(db)
    assert (db.physical._epoch_memo is None) == drops
    after = [outcome(_warm_and_fresh(db.physical, graph)[0]) for graph in graphs]
    if change != "insert_without_refresh":
        assert after != before


def test_the_services_recalibrated_params_miss_the_epoch():
    db = _cold_database()
    texts = _cold_texts(db)
    service = QueryService(db, ServiceConfig())
    try:
        service.run_query(texts[0])  # prices the view at the defaults
        # What ``recalibrate(apply=True)`` installs.
        service._cost_params = CostParameters(page_read=3.0, eval_per_tuple=0.05)
        planned = service._plan(texts[1])  # same view, another threshold
        graph = compile_text(texts[1], db.catalog)
        fresh = Optimizer(
            db.physical,
            _ScopeOnly(db.physical, dataclasses.replace(service._cost_params)),
        ).optimize(graph)
        default = Optimizer(db.physical, _ScopeOnly(db.physical)).optimize(graph)
    finally:
        service.close()
    assert planned.estimated == fresh.cost != default.cost
    assert planned.result.candidates == fresh.candidates


def test_a_fix_reading_a_temporary_is_not_retained(music_db):
    physical = music_db.physical
    plan = Optimizer(physical).optimize(_fig3_selective(music_db)).plan
    fix = next(node for node in plan.walk() if isinstance(node, Fix))
    leaf = next(
        node
        for node in fix.walk()
        if isinstance(node, EntityLeaf) and node.entity == "Composer"
    )
    temp = physical.register_temp("Composer")
    try:
        twin = fix.substitute(leaf, TempLeaf(temp.name, leaf.var))
        assert twin.memo_traits()[3]
        model = DetailedCostModel(physical)
        cost = model.cost(twin)
        retained = [key[1][0] for key in physical._epoch_memo._entries]
        assert fix in retained and twin not in retained
        assert cost == _fresh_report(physical, CostParameters(), twin).total
    finally:
        physical.drop_temp(temp.name)


def test_sharded_fix_prices_are_not_retained(workloads):
    """At ``shards > 1`` only ``_cost_fix`` fills ``fix_breakdowns``, so a
    second optimize of the same text must price its Fix again."""
    db, graph = workloads["fig3"]
    params = CostParameters(shards=2)
    plan = Optimizer(
        db.physical, DetailedCostModel(db.physical, dataclasses.replace(params))
    ).optimize(graph).plan
    model = DetailedCostModel(db.physical, dataclasses.replace(params))
    assert Optimizer(db.physical, model).optimize(graph).plan == plan
    model.cost(plan)
    fresh = _fresh(db.physical, params)
    fresh.cost(plan)
    fixes = [node for node in plan.walk() if isinstance(node, Fix)]
    assert fixes
    for fix in fixes:
        assert model.fix_breakdowns[id(fix)] == fresh.fix_breakdowns[id(fix)]
    sharded = model.params.memo_key()
    assert not any(
        kind == "cost" and params_key == sharded
        for kind, _key, params_key in db.physical._epoch_memo._entries
    )


def test_the_epoch_memo_is_bounded(monkeypatch):
    db = _cold_database()
    monkeypatch.setattr(schema_module, "EPOCH_MEMO_BOUND", 6)
    puts = _count_calls(monkeypatch, schema_module.EpochMemo, "put")
    for text in _cold_texts(db)[::11][:4]:  # four instruments
        _warm_and_fresh(db.physical, compile_text(text, db.catalog))
    assert len({call[1] for call in puts}) > 6
    assert len(db.physical._epoch_memo) == 6


def test_the_epoch_memo_stays_bounded_under_threads(monkeypatch):
    """Eviction is check-then-act: without the memo's lock two writers
    race on the oldest entry (a KeyError, or a size past the bound)."""
    monkeypatch.setattr(schema_module, "EPOCH_MEMO_BOUND", 64)
    memo = schema_module.EpochMemo()
    errors = []

    def work(worker):
        try:
            for index in range(2000):
                memo.put((worker, index), index)
                memo.get((worker, index - 1))
        except Exception as error:  # collected: the assertion reports it
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) == 64


def test_clustered_fraction_cache_is_cleared_by_refresh(music_db, monkeypatch):
    stats = Statistics(music_db.store)
    scans = []
    original = Statistics._scan_clustered_fraction

    def counting(self, owner, attribute):
        scans.append((owner, attribute))
        return original(self, owner, attribute)

    monkeypatch.setattr(Statistics, "_scan_clustered_fraction", counting)
    first = stats.clustered_fraction("Composer", "works")
    assert stats.clustered_fraction("Composer", "works") == first
    assert scans == [("Composer", "works")]
    stats.refresh()
    assert stats.clustered_fraction("Composer", "works") == first
    assert len(scans) == 2


# -- exception hygiene ---------------------------------------------------------


def test_an_unexpected_catalog_error_propagates_out_of_cost(workloads, monkeypatch):
    db, graph = workloads["fig3"]
    plan = Optimizer(db.physical).optimize(graph).plan

    def broken(owner, name):
        raise RuntimeError("catalog is on fire")

    monkeypatch.setattr(db.physical.catalog, "attribute", broken)
    with pytest.raises(RuntimeError, match="on fire"):
        DetailedCostModel(db.physical).cost(plan)


def test_unknown_attributes_still_fall_back_to_the_defaults(music_db):
    estimator = CardinalityEstimator(music_db.physical)
    varmap = {"x": "Composer"}
    typo = Comparison("=", PathRef("x", ("no_such_attribute",)), Const(1))
    # A typo'd terminal is treated as a possible method: resolved to
    # (entity, attr) and estimated from (absent) statistics, as before.
    assert estimator._resolve_path(typo.left, varmap) == (
        "Composer",
        "no_such_attribute",
        1.0,
    )
    assert estimator.predicate_selectivity(typo, varmap) == 1.0
    # An unbound variable has nothing to resolve against.
    unbound = Comparison("=", PathRef("y", ("name",)), Const("Bach"))
    assert estimator.predicate_selectivity(unbound, varmap) == DEFAULT_EQ_SELECTIVITY
    # A class with no extent degrades to "no entity", not an error.
    assert estimator._entity_for_class("NoSuchClass") is None
    assert estimator._expr_entity(PathRef("x", ("no_such_attribute",)), varmap) is None


# -- the work itself, counted ----------------------------------------------------


def test_one_optimize_derives_each_number_once(monkeypatch):
    """The CI guard of the memos (no timing): one fig3-selective optimize
    on the ``cold_optimize`` database.  Before the scope memo: 12–14k
    ``estimate`` bodies, 1.2–1.3k ``_cost`` bodies and 160–190 extent
    scans, depending on the text; with it 176 / 188 / 3.  A second text
    on the same database — same instrument, another threshold — shares
    every recursive view, so with the epoch memo it prices no ``Fix``."""
    db = generate_music_database(MusicConfig(lineages=4, generations=7))
    db.build_paper_indexes()
    db.physical.refresh_statistics()
    graph = _fig3_selective(db)
    counts = {"estimate": 0, "cost": 0}
    scans = []

    def counted(cls, name, note):
        original = getattr(cls, name)

        def wrapper(self, *args):
            note(*args)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    def bump(name):
        return lambda *_args: counts.__setitem__(name, counts[name] + 1)

    counted(CardinalityEstimator, "_estimate", bump("estimate"))
    counted(DetailedCostModel, "_dispatch", bump("cost"))
    counted(Statistics, "_scan_clustered_fraction", lambda *pair: scans.append(pair))

    result = Optimizer(db.physical, DetailedCostModel(db.physical)).optimize(graph)
    assert result.plans_costed == 32
    assert 0 < counts["estimate"] <= 250
    assert 0 < counts["cost"] <= 600
    assert len(scans) == len(set(scans))

    bodies = _count_calls(monkeypatch, DetailedCostModel, "_cost_fix")
    instrument = min(
        record.values["name"] for record in db.store.extent("Instrument").records
    )
    second = Optimizer(db.physical, DetailedCostModel(db.physical)).optimize(
        fig3_query(instrument, 5)
    )
    assert second.plans_costed == 32
    assert bodies == []


def test_re_registering_a_plan_reuses_its_estimates(music_db, tmp_path, monkeypatch):
    """Under the same statistics fingerprint and parameters a plan's
    per-node estimates are not re-costed, and the persisted record is
    the one a re-costing would have written."""
    physical = music_db.physical
    model = DetailedCostModel(physical)
    plan = Optimizer(physical, model).optimize(_fig3_selective(music_db)).plan
    reports = _count_calls(monkeypatch, DetailedCostModel, "annotated_report")
    path = tmp_path / "history.jsonl"
    manager = FeedbackManager(FeedbackConfig(persist_path=str(path)))
    try:
        stats_fp = stats_fingerprint(physical)
        fingerprint = manager.register_plan("q", plan, 1.0, model, stats_fp)
        again = manager.register_plan(
            "q", plan, 1.0, DetailedCostModel(physical), stats_fp
        )
        assert again == fingerprint and len(reports) == 1
        # Other statistics or other parameters re-cost.
        manager.register_plan("q", plan, 1.0, model, "another")
        manager.register_plan(
            "q", plan, 1.0, DetailedCostModel(physical, CostParameters(page_read=2.0)), "another"
        )
        assert len(reports) == 3
    finally:
        manager.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == lines[1] == lines[2] != lines[3]


def test_a_re_optimized_text_registers_without_re_costing(monkeypatch):
    """The service passes the cache entry's statistics fingerprint: a
    text evicted from the plan cache and optimized again is registered
    from the history's estimates."""
    db = _cold_database()
    texts = _cold_texts(db)
    service = QueryService(db, ServiceConfig(cache_capacity=1))
    try:
        reports = _count_calls(monkeypatch, DetailedCostModel, "annotated_report")
        for text in (texts[0], texts[1], texts[0]):
            assert service.run_query(text)["cache"] == "miss"
        assert len(reports) == 2
    finally:
        service.close()


def test_temporaries_do_not_dirty_durable_statistics(monkeypatch):
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=42)
    )
    db.build_paper_indexes()
    db.physical.refresh_statistics()
    refreshes = []
    original = Statistics.refresh

    def counting_refresh(self):
        refreshes.append(self)
        return original(self)

    monkeypatch.setattr(Statistics, "refresh", counting_refresh)
    closure = (
        "view Influencer as "
        "select [master: x.master, disciple: x, gen: 1] from x in Composer "
        "union "
        "select [master: i.master, disciple: x, gen: i.gen + 1] "
        "from i in Influencer, x in Composer where i.disciple = x.master; "
        "select [name: i.disciple.name, gen: i.gen] "
        "from i in Influencer where i.gen >= {gen};"
    )
    service = QueryService(db, ServiceConfig())
    try:
        stats = db.physical.statistics
        entities = len(stats._entities)
        extents = len(db.store.extent_names())
        for index in range(50):
            response = service.run_query(closure.format(gen=1 + index % 4))
            assert response["row_count"] > 0
        assert db.physical.statistics is stats
        assert refreshes == []
        assert len(stats._entities) == entities
        assert len(db.store.extent_names()) == extents

        # A refresh is still a new object, and the plan cache sees it.
        service.refresh_statistics()
        assert db.physical.statistics is not stats
        assert len(refreshes) == 1
    finally:
        service.close()
