"""Shared differential-testing harness.

Query generators (randomized flat, recursive and bill-of-materials
queries), the standard fixture databases, and the differential check
itself: optimize once, execute on fresh engines across a configuration
grid, and require every run to produce the identical answer set
(matching :class:`ReferenceEvaluator` ground truth) *and* identical
per-node tuple counts — a lost or duplicated tuple anywhere in the
pipeline fails the run even when dedup would hide it from the answer
set.

``test_differential_batch.py`` sweeps the serial engine's batch size;
``test_differential_shards.py`` adds the shards dimension,
running the same queries through the distributed scatter-gather
fixpoint, plus the kernel-parity sweep (column kernels {on, off}
crossed into the grid via ``kernels=``, with per-point metering
parity).
``REPRO_DIFF_EXAMPLES`` scales the example count and
``derandomize=True`` keeps CI seeds fixed so a red run is
reproducible.
"""

import contextlib
import os
from unittest import mock

from hypothesis import HealthCheck
from hypothesis import strategies as st

from repro.core import cost_controlled_optimizer
from repro.engine import Engine, ExpressionEvaluator, ReferenceEvaluator
from repro.errors import OptimizationError
from repro.querygraph.builder import (
    and_,
    arc,
    const,
    eq,
    ge,
    le,
    ne,
    out,
    path,
    query,
    rule,
    spj,
    var,
)
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.parts import (
    PartsConfig,
    components_of_query,
    generate_parts_database,
    heavy_components_query,
)
from repro.workloads.queries import influencer_rules

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "25"))

DIFF_SETTINGS = dict(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

# -- fixture databases --------------------------------------------------------


def build_music_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=99)
    )
    db.build_paper_indexes()
    return db


def build_parts_db():
    return generate_parts_database(
        PartsConfig(assemblies=4, depth=3, fanout=3, sharing=0.2, seed=7)
    )


# -- query generators (music schema) -----------------------------------------

COMPOSER_PREDICATES = [
    lambda v: eq(path(v, "name"), const("Bach")),
    lambda v: ge(path(v, "birthyear"), const(1650)),
    lambda v: le(path(v, "birthyear"), const(1750)),
    lambda v: ne(path(v, "name"), const("composer_0001")),
    lambda v: eq(path(v, "works", "title"), const("work_00001")),
    lambda v: ge(path(v, "age"), const(250)),
]

COMPOSER_OUTPUTS = [
    lambda v: ("name", path(v, "name")),
    lambda v: ("year", path(v, "birthyear")),
    lambda v: ("master", path(v, "master")),
    lambda v: ("mname", path(v, "master", "name")),
]

INFLUENCER_PREDICATES = [
    lambda v: ge(path(v, "gen"), const(2)),
    lambda v: le(path(v, "gen"), const(4)),
    lambda v: eq(path(v, "master", "name"), const("Bach")),
    lambda v: eq(
        path(v, "master", "works", "instruments", "name"),
        const("harpsichord"),
    ),
]

INFLUENCER_OUTPUTS = [
    lambda v: ("gen", path(v, "gen")),
    lambda v: ("who", path(v, "disciple", "name")),
    lambda v: ("master", path(v, "master")),
]

JOIN_PREDICATES = [
    lambda a, b: eq(path(b, "master"), var(a)),
    lambda a, b: eq(path(a, "master"), path(b, "master")),
    lambda a, b: eq(path(a, "birthyear"), path(b, "birthyear")),
]


@st.composite
def flat_queries(draw):
    """One or two Composer arcs with random filters and outputs."""
    arc_count = draw(st.integers(min_value=1, max_value=2))
    variables = [f"v{i}" for i in range(arc_count)]
    arcs = [arc("Composer", **{v: "."}) for v in variables]
    conjuncts = []
    for v in variables:
        for predicate in draw(
            st.lists(st.sampled_from(COMPOSER_PREDICATES), max_size=2)
        ):
            conjuncts.append(predicate(v))
    if arc_count == 2:
        join = draw(st.sampled_from(JOIN_PREDICATES))
        conjuncts.append(join(variables[0], variables[1]))
    fields = {}
    for v in variables:
        name, expr = draw(st.sampled_from(COMPOSER_OUTPUTS))(v)
        fields[f"{name}_{v}"] = expr
    return query(
        rule("Answer", spj(arcs, where=and_(*conjuncts), select=out(**fields)))
    )


@st.composite
def recursive_queries(draw):
    """A query over the Influencer view with random filters, half the
    time joined explicitly with ``Composer``."""
    conjuncts = [
        predicate("i")
        for predicate in draw(
            st.lists(st.sampled_from(INFLUENCER_PREDICATES), max_size=2)
        )
    ]
    name, expr = draw(st.sampled_from(INFLUENCER_OUTPUTS))("i")
    arcs = [arc("Influencer", i=".")]
    fields = {name: expr}
    if draw(st.booleans()):
        # The closure joined back to its base class by the recursion's
        # own predicate: an explicit equi-join with temp tuples on one
        # side, which the optimizer may also push through the Fix.
        arcs.append(arc("Composer", x="."))
        conjuncts.append(eq(path("i", "disciple"), path("x", "master")))
        fields["pupil"] = path("x", "name")
    p1, p2 = influencer_rules()
    answer = rule(
        "Answer",
        spj(arcs, where=and_(*conjuncts), select=out(**fields)),
    )
    return query(p1, p2, answer)


@st.composite
def parts_queries(draw):
    """A recursive closure query over the bill-of-materials schema,
    randomizing the start assembly and the query shape."""
    assembly = draw(st.integers(min_value=0, max_value=3))
    name = f"assembly_root_{assembly}"
    if draw(st.booleans()):
        return components_of_query(name)
    return heavy_components_query(name, min_level=draw(st.integers(1, 3)))


# -- differential check -------------------------------------------------------


@contextlib.contextmanager
def kernels_declined():
    """Run the engine with every column kernel declining, so each
    operator takes the per-row closure that is the kernel's reference:
    ``Sel`` filters a batch row by row, the nested-loop ``EJ`` judges
    each pair, ``Proj`` builds each output row through the compiled
    field closures.  (Patched on the classes: shard sessions build
    their own evaluators mid-execution.)"""
    with mock.patch.object(
        ExpressionEvaluator, "_build_column_pass", return_value=None
    ), mock.patch.object(
        ExpressionEvaluator, "compile_join_kernel", return_value=None
    ), mock.patch.object(Engine, "_proj_column_specs", return_value=None):
        yield


def run_differential(
    db, graph, grid, cluster=None, optimizer=None, kernels=(True,)
):
    """Optimize once, execute on a fresh engine per configuration, and
    assert every run matches the reference evaluator's answer set and
    the grid's first configuration's per-node tuple counts.

    ``grid`` is an iterable of ``(batch_size, shards)`` pairs;
    configurations with ``shards > 1`` run through
    ``cluster`` (a :class:`repro.dist.ShardCluster` at least that
    wide).  ``optimizer`` is a factory from a physical schema to an
    optimizer (default: the paper's cost-controlled II optimizer) —
    the hook the enumeration sweep uses to prove the plans ``enum``
    picks execute identically under every configuration.

    ``kernels`` crosses a column-kernels {on, off} dimension into the
    grid (off = :func:`kernels_declined`).  A kernel is a faster way to
    do what its row closure does, so on top of the tuple-count
    invariants the harness requires ``predicate_evals``, ``expr_evals``,
    ``batches`` and the logical reads, physical reads and evictions to
    be *identical with kernels on and off* at every ``(batch, shards)``
    point — a columnar kernel that skipped or repeated a predicate
    evaluation, or a nested-loop replay that touched pages in another
    order, fails here even when the answers agree.  Every run starts
    from cold buffers (the coordinator's and every shard's) so the
    physical reads of two runs are comparable.
    """
    if optimizer is None:
        optimizer = cost_controlled_optimizer
    try:
        plan = optimizer(db.physical).optimize(graph).plan
    except OptimizationError:
        # Disconnected join graphs (Cartesian products) are
        # legitimately rejected by the optimizer.
        return
    want = ReferenceEvaluator(db.physical).answer_set(graph)
    grid = list(grid)
    kernels = list(kernels)
    counts = {}
    by_node = {}
    metering = {}
    for batch_size, shards in grid:
        for kernel in kernels:
            engine = Engine(
                db.physical,
                batch_size=batch_size,
                shards=shards,
                cluster=cluster if shards > 1 else None,
            )
            db.physical.store.buffer.clear()
            for worker in cluster.workers if cluster is not None else ():
                worker.buffer.clear()
            with contextlib.nullcontext() if kernel else kernels_declined():
                result = engine.execute(plan)
            config = (kernel, batch_size, shards)
            assert result.answer_set() == want, (
                f"kernels={kernel} batch_size={batch_size} "
                f"shards={shards} diverged from the reference evaluator"
            )
            counts[config] = result.metrics.total_tuples
            by_node[config] = dict(result.metrics.tuples_by_node)
            metrics = result.metrics
            metering[config] = (
                metrics.predicate_evals,
                metrics.expr_evals,
                metrics.batches,
                metrics.buffer.logical_reads,
                metrics.buffer.physical_reads,
                metrics.buffer.evictions,
            )
    assert len(set(counts.values())) == 1, (
        f"tuple counts diverged across the configuration grid: {counts}"
    )
    reference_config = (kernels[0], *grid[0])
    reference_nodes = by_node[reference_config]
    for config, nodes in by_node.items():
        assert nodes == reference_nodes, (
            f"per-node tuple counts at kernels={config[0]} "
            f"batch_size={config[1]} shards={config[2]} diverged from "
            f"the {reference_config} reference: {nodes} != "
            f"{reference_nodes}"
        )
    # Kernel parity of the metering counters, per grid point: the
    # kernel axis must be invisible to them (the other axes may
    # legitimately change them).
    for batch_size, shards in grid:
        point = {
            kernel: metering[(kernel, batch_size, shards)]
            for kernel in kernels
        }
        assert len(set(point.values())) == 1, (
            f"metering (predicate_evals, expr_evals, batches, "
            f"logical_reads, physical_reads, evictions) "
            f"diverged with kernels on/off at batch_size={batch_size} "
            f"shards={shards}: {point}"
        )
