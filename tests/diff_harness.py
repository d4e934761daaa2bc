"""Shared differential-testing harness.

Query generators (randomized flat, recursive and bill-of-materials
queries), the standard fixture databases, and the differential check
itself: optimize once, execute on fresh engines across a configuration
grid, and require every run to produce the identical answer set
(matching :class:`ReferenceEvaluator` ground truth) *and* identical
per-node tuple counts (a sharded run's hash-join build sides scaled by
how often each join built) — a lost or duplicated tuple anywhere in the
pipeline fails the run even when dedup would hide it from the answer
set.

``test_differential_batch.py`` sweeps the serial engine's batch size;
``test_differential_shards.py`` adds the shards dimension,
running the same queries through the distributed scatter-gather
fixpoint, plus the kernel-parity sweep (column kernels {on, off}
crossed into the grid via ``kernels=``, with per-point metering
parity, and every hash-join plan run again as a nested loop).
``REPRO_DIFF_EXAMPLES`` scales the example count and
``derandomize=True`` keeps CI seeds fixed so a red run is
reproducible.
"""

import collections
import contextlib
import os
import threading
from unittest import mock

from hypothesis import HealthCheck
from hypothesis import strategies as st

from repro.core import cost_controlled_optimizer
from repro.engine import Engine, ExpressionEvaluator, ReferenceEvaluator
from repro.errors import OptimizationError
from repro.obs.profile import assign_node_ids
from repro.plans import EJ, HASH_JOIN, NESTED_LOOP, Sel
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
    ``Sel`` filters a batch row by row, the hash ``EJ`` judges each
    pair against its drained inner, ``Proj`` builds each output row through the compiled
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
    evaluation, or a hash join that probed its drained inner in another
    order than the pair-by-pair loop, fails here even when the answers
    agree.  Every run starts from cold buffers (the coordinator's and
    every shard's) so the physical reads of two runs are comparable.

    The kernel-parity sweep (more than one ``kernels`` entry) also runs
    a plan that holds hash joins with every one of them relabelled a
    nested loop, at every grid point: the answers must be the
    reference's, ``predicate_evals`` equal (both count every pair;
    at most the nested loop's when an inner filters, which the nested
    loop re-counts per re-open), and the hash plan's logical reads at
    most the nested loop's, which re-reads the inner per outer binding
    where the hash join reads it once per open.

    Runs of one width must agree exactly on the total and per-node
    tuple counts and on how often each hash join built its inner.
    Across widths they must match the grid's first (serial)
    configuration's exactly once the hash joins' builds are accounted
    for (:func:`assert_counts_match_serial`): each shard whose slice of
    a round reaches a hash join drains its inner itself.
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
    metering = {}
    for batch_size, shards in grid:
        for kernel in kernels:
            with counting_builds() as builds:
                result = _execute_cold(
                    db, plan, batch_size, shards, cluster, kernel
                )
            config = (kernel, batch_size, shards)
            assert result.answer_set() == want, (
                f"kernels={kernel} batch_size={batch_size} "
                f"shards={shards} diverged from the reference evaluator"
            )
            metrics = result.metrics
            counts[config] = tuple_counts(metrics, builds)
            metering[config] = (
                metrics.predicate_evals,
                metrics.expr_evals,
                metrics.batches,
                metrics.buffer.logical_reads,
                metrics.buffer.physical_reads,
                metrics.buffer.evictions,
            )
    reference_config = (kernels[0], *grid[0])
    assert reference_config[2] == 1, "the grid must start serial"
    owners = build_owners(plan)
    for config, config_counts in counts.items():
        same_width = next(c for c in counts if c[2] == config[2])
        assert config_counts == counts[same_width], (
            f"tuple counts (total, per node, hash builds) at "
            f"kernels={config[0]} batch_size={config[1]} "
            f"shards={config[2]} diverged from the {same_width} "
            f"reference: {config_counts} != {counts[same_width]}"
        )
        assert_counts_match_serial(
            config_counts, counts[reference_config], owners, config[2]
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
    nested = as_nested_loop(plan)
    if len(kernels) < 2 or nested == plan:
        return
    for batch_size, shards in grid:
        result = _execute_cold(db, nested, batch_size, shards, cluster, True)
        hash_evals, _, _, hash_reads, _, _ = metering[
            (True, batch_size, shards)
        ]
        point = f"batch_size={batch_size} shards={shards}"
        assert result.answer_set() == want, (
            f"the nested-loop twin diverged from the reference at {point}"
        )
        nested_evals = result.metrics.predicate_evals
        # Both count every pair; the nested loop also re-counts an
        # inner's own filter per re-open.
        if _inner_filters(plan):
            assert hash_evals <= nested_evals, (point, hash_evals, nested_evals)
        else:
            assert hash_evals == nested_evals, (
                f"hash and nested-loop predicate_evals differ at {point}: "
                f"{hash_evals} != {nested_evals}"
            )
        assert hash_reads <= result.metrics.buffer.logical_reads, (
            f"the hash plan read more pages than its nested-loop twin "
            f"at {point}: {hash_reads} > "
            f"{result.metrics.buffer.logical_reads}"
        )


@contextlib.contextmanager
def counting_builds():
    """Count, per hash-join node id, how often the engine drains the
    join's inner (its build side) — shard sessions included, which
    share the coordinator's node ids — and require at most one build
    per open of the join."""
    builds = collections.Counter()
    opens = collections.Counter()
    lock = threading.Lock()
    build = Engine._hash_build
    open_join = Engine._hash_join_batches

    def counted_build(engine, node, *args):
        with lock:
            builds[engine._node_ids.get(id(node))] += 1
        return build(engine, node, *args)

    def counted_open(engine, node, *args):
        with lock:
            opens[engine._node_ids.get(id(node))] += 1
        return open_join(engine, node, *args)

    with mock.patch.object(
        Engine, "_hash_build", counted_build
    ), mock.patch.object(Engine, "_hash_join_batches", counted_open):
        yield builds
    for join, built in builds.items():
        assert built <= opens[join], (
            f"hash join {join} built {built} times in {opens[join]} opens"
        )


def tuple_counts(metrics, builds):
    """``(total, per node, builds per hash join)`` of one run."""
    return (
        metrics.total_tuples,
        dict(metrics.tuples_by_node),
        dict(builds),
    )


def build_owners(plan):
    """Node id -> id of the innermost hash join whose inner operand
    (build side) holds the node."""
    ids = assign_node_ids(plan)
    owners = {}

    def visit(node, owner):
        if owner is not None:
            owners[ids[id(node)]] = owner
        if isinstance(node, EJ) and node.algorithm == HASH_JOIN:
            visit(node.left, owner)
            visit(node.right, ids[id(node)])
        else:
            for child in node.children:
                visit(child, owner)

    visit(plan, None)
    return owners


def assert_counts_match_serial(counts, serial, owners, shards):
    """Tuple counts (:func:`tuple_counts`) of a ``shards``-wide run
    against the serial run's, exactly.  A hash join builds once per
    open, and each shard whose slice of a round reaches the join opens
    it: a join builds at least as often as serially (some slice reaches
    it whenever the serial run does) and at most ``shards`` times as
    often.  A node on a build side counts its serial tuples per build
    times the builds of the innermost hash join holding it; every other
    node counts exactly its serial tuples, and so does the total
    outside the nodes."""
    total, nodes, builds = counts
    serial_total, serial_nodes, serial_builds = serial
    assert set(nodes) == set(serial_nodes), (nodes, serial_nodes)
    for join in set(builds) | set(serial_builds):
        built, serially = builds.get(join, 0), serial_builds.get(join, 0)
        assert serially <= built <= shards * serially, (
            f"hash join {join} built {built} times at shards={shards}, "
            f"{serially} serially"
        )
    for node_id, count in nodes.items():
        want = serial_nodes[node_id]
        join = owners.get(node_id)
        if join is None or not serial_builds.get(join):
            assert count == want, (
                f"node {node_id}: {count} tuples at shards={shards}, "
                f"{want} serially"
            )
        else:
            assert count * serial_builds.get(join, 0) == want * builds.get(
                join, 0
            ), (
                f"build-side node {node_id}: {count} tuples over "
                f"{builds.get(join, 0)} builds of {join} at shards={shards}, "
                f"{want} over {serial_builds.get(join, 0)} serially"
            )
    assert total - sum(nodes.values()) == serial_total - sum(
        serial_nodes.values()
    ), (total, serial_total)


def as_nested_loop(plan):
    """``plan`` with every hash join run as a nested loop — the paper's
    join method, which Figure 5 and Figure 7 price."""
    children = [as_nested_loop(child) for child in plan.children]
    if isinstance(plan, EJ) and plan.algorithm == HASH_JOIN:
        return EJ(children[0], children[1], plan.predicate, NESTED_LOOP)
    return plan.with_children(children) if children else plan


def _inner_filters(plan):
    """Whether some hash join's inner evaluates predicates itself."""
    return any(
        isinstance(node, (Sel, EJ))
        for join in plan.walk()
        if isinstance(join, EJ) and join.algorithm == HASH_JOIN
        for node in join.right.walk()
    )


def _execute_cold(db, plan, batch_size, shards, cluster, kernel):
    """One execution from cold buffers (the coordinator's and every
    shard's), with the column kernels on or declined."""
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
        return engine.execute(plan)
