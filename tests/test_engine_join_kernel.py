"""Hash EJ column kernel: parity with the per-pair loop.

The kernel's contract is that nothing but wall time may tell it from
the loop it replaces: the emitted row *list* (order and duplicates),
every evaluation counter, the exact sequence of pages the buffer is
asked for (hence its hit/miss/eviction history) and the per-node tuple
counts must be identical.  The loop is still in ``src/`` — it is where
the hash join goes whenever the kernel declines — so it is the oracle:
each generated join runs with the kernels {on, declined} x
``batch_size`` {1, 3, 256} x buffer {6 pages, default}, and at every
point the two runs must agree.  The inner operand is an extent scan or
a ``RecLeaf`` delta, drained once per open when the first outer
binding arrives; the kernel probes the drained chunks through the
join's key-index memo.  The same join run as a nested loop — the inner
re-opened per outer binding, every pair judged by the closure — emits
the same rows with the same evaluation counts and never fewer page
reads.

The generated key columns mix what the kernel accepts (ints, strings,
bools, floats incl. NaN, oids, nulls) with everything that must send a
binding or a whole batch back to the loop: multivalued and
record-valued attributes, and attributes computed by a method.
"""

import contextlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Batch, Engine, RuntimeMetrics
from repro.engine.eval_expr import JoinKernel, canonical_row
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import ObjectStore, Oid
from repro.plans import (
    EJ,
    HASH_JOIN,
    NESTED_LOOP,
    EntityLeaf,
    Fix,
    Proj,
    RecLeaf,
    Sel,
    UnionOp,
)
from repro.querygraph.builder import and_, const, eq, ge, out, path, var
from repro.schema.catalog import Catalog
from repro.schema.conceptual import Attribute, ClassDef, Method
from repro.schema.types import INT
from tests.diff_harness import as_nested_loop, kernels_declined
from tests.test_physical_storage import RecordingPool

BATCH_SIZES = (1, 3, 256)
BUFFERS = (6, None)  # pages; None = the pool's default capacity

NAN = float("nan")

_plain = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["0", "1", True, False, 1.0, 2.5, NAN]),
)
_plain_or_null = st.one_of(st.none(), _plain)

#: How one record stores (or computes) its join key ``k``.
_kernel_specs = st.tuples(st.just("value"), _plain_or_null)
_any_specs = st.one_of(
    _kernel_specs,
    st.tuples(st.just("tuple"), st.tuples(_plain, _plain)),
    st.tuples(st.just("oid"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("record"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("method"), _plain_or_null),
)


def _key_columns():
    """A key column the kernel accepts whole, or one with the odd
    value that must send it back to the loop."""
    return st.one_of(
        st.lists(_kernel_specs, max_size=9),
        st.lists(_any_specs, max_size=9),
    )


def _computed_key(values):
    return values.get("alt")


def build_physical(left_specs, right_specs):
    """Extents ``L`` and ``R`` (two records per page) whose ``k`` is
    drawn per record, plus eight ``T`` targets for reference keys and
    for the ``ref`` attribute that predicates and projections
    dereference.  A record with a ``method`` spec stores no ``k`` at
    all: the class method of that name computes it from ``alt``."""
    catalog = Catalog()
    for name in ("L", "R", "T"):
        catalog.add_class(
            ClassDef(
                name,
                attributes=[Attribute("w", INT)],
                methods=[Method("k", INT, _computed_key, eval_weight=1.0)],
            )
        )
    store = ObjectStore(records_per_page=2)
    physical = PhysicalSchema(store, catalog)
    physical.register_extent("L")
    physical.register_extent("R")
    # One target per page: the order of dereferences shows in the LRU.
    physical.register_extent("T", records_per_page=1)
    targets = [store.insert("T", {"k": i, "w": 10 * i}) for i in range(8)]
    for entity, specs in (("L", left_specs), ("R", right_specs)):
        for position, (kind, payload) in enumerate(specs):
            values = {"w": position, "ref": targets[(3 * position) % 8]}
            if kind == "method":
                values["alt"] = payload
            elif kind == "oid":
                values["k"] = targets[payload]
            elif kind == "record":
                values["k"] = store.peek(targets[payload])
            else:
                values["k"] = payload
            store.insert(entity, values)
    return physical


#: What may depend on the batch size: how many batches there are, and
#: — emissions being held until a batch fills — where the consumer's
#: page touches fall among the join's, hence the LRU's verdicts.
BATCH_DEPENDENT = ("batches", "touches", "physical_reads", "evictions")

_TEMP_COUNTER = re.compile(r"__temp\d+_")


def observe(physical, plan, kernel, batch_size, buffer_pages):
    """Everything a run may be told apart by, from a cold buffer.
    ``kernel=False`` is the oracle: every column kernel declines, so
    the nested loop judges every pair through the per-pair closure."""
    pool = (
        RecordingPool() if buffer_pages is None else RecordingPool(buffer_pages)
    )
    physical.store.buffer = pool
    with contextlib.nullcontext() if kernel else kernels_declined():
        result = Engine(physical, batch_size=batch_size).execute(plan)
    metrics = result.metrics
    return {
        # repr: NaN keys compare unequal to themselves.
        "rows": repr([canonical_row(row) for row in result.rows]),
        # Each run registers its own temps: compare them by role.
        "touches": [
            (_TEMP_COUNTER.sub("__temp_", page.segment), page.number)
            for page in pool.touched
        ],
        "predicate_evals": metrics.predicate_evals,
        "expr_evals": metrics.expr_evals,
        "method_eval_weight": metrics.method_eval_weight,
        "logical_reads": metrics.buffer.logical_reads,
        "physical_reads": metrics.buffer.physical_reads,
        "evictions": metrics.buffer.evictions,
        "batches": metrics.batches,
        "tuples_by_node": dict(metrics.tuples_by_node),
    }


#: What a nested loop may change: the pages it re-reads per outer
#: binding, hence the buffer's history, the inner's batches and tuples.
REREAD = BATCH_DEPENDENT + ("logical_reads", "tuples_by_node")


def assert_parity(physical, plan):
    nested_plan = as_nested_loop(plan)
    assert nested_plan != plan
    for buffer_pages in BUFFERS:
        invariant = None
        for batch_size in BATCH_SIZES:
            oracle = observe(physical, plan, False, batch_size, buffer_pages)
            kernel = observe(physical, plan, True, batch_size, buffer_pages)
            assert kernel == oracle, (batch_size, buffer_pages)
            nested = observe(
                physical, nested_plan, True, batch_size, buffer_pages
            )
            assert nested["logical_reads"] >= oracle["logical_reads"]
            assert _less(nested, REREAD) == _less(oracle, REREAD), (
                batch_size, buffer_pages,
            )
            oracle = _less(oracle, BATCH_DEPENDENT)
            if invariant is None:
                invariant = oracle
            assert oracle == invariant, (batch_size, buffer_pages)


def _less(observed, names):
    return {key: value for key, value in observed.items() if key not in names}


def equality(flipped):
    left, right = path("l", "k"), path("r", "k")
    return eq(right, left) if flipped else eq(left, right)


class TestFlatJoinParity:
    @given(
        left=_key_columns(),
        right=_key_columns(),
        flipped=st.booleans(),
        projected=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bare_equality(self, left, right, flipped, projected):
        physical = build_physical(left, right)
        plan = EJ(
            EntityLeaf("L", "l"),
            EntityLeaf("R", "r"),
            equality(flipped),
            HASH_JOIN,
        )
        if projected:
            # The consumer dereferences per emitted row, so its page
            # touches interleave with the outer's and the residual's.
            plan = Proj(
                plan, out(lw=path("l", "w"), rt=path("r", "ref", "w"))
            )
        assert_parity(physical, plan)

    @given(
        left=_key_columns(),
        right=_key_columns(),
        flipped=st.booleans(),
        residual=st.sampled_from(["plain", "deref", "three", "second"]),
        bound=st.integers(min_value=0, max_value=30),
    )
    # Tells a residual run eagerly over a batch's matches from one run
    # between the consumer's touches: one page miss apart at batch 3.
    @example(
        left=[("value", 1)] * 3,
        right=[("value", v) for v in (None, 1, 1, None, None, 0, 0, 0, None)],
        flipped=False,
        residual="deref",
        bound=10,
    )
    @settings(max_examples=60, deadline=None)
    def test_equality_in_a_conjunction(
        self, left, right, flipped, residual, bound
    ):
        physical = build_physical(left, right)
        join = equality(flipped)
        if residual == "plain":
            predicate = and_(join, ge(path("r", "w"), const(bound % 6)))
        elif residual == "deref":
            # Touches a T page per *match*: the residual must run
            # lazily, between the consumer's own touches.
            predicate = and_(join, ge(path("r", "ref", "w"), const(bound)))
        elif residual == "three":
            predicate = and_(
                join,
                ge(path("l", "ref", "w"), const(bound)),
                ge(path("r", "w"), const(1)),
            )
        else:
            # Not the first part: no column form, the loop runs as is.
            predicate = and_(ge(path("r", "w"), const(bound % 6)), join)
        plan = Proj(
            EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), predicate, HASH_JOIN),
            out(lt=path("l", "ref", "w"), rw=path("r", "w")),
        )
        assert_parity(physical, plan)


def closure_plan(delta_on_the_right):
    """The descendant closure along ``R.parent``: temp-tuple deltas
    join the base extent on either side of the EJ."""
    base = Proj(EntityLeaf("R", "x"), out(anc=var("x"), desc=var("x")))
    predicate = eq(path("i", "desc"), path("x", "parent"))
    delta, extent = RecLeaf("Closure", "i"), EntityLeaf("R", "x")
    join = (
        EJ(extent, delta, predicate, HASH_JOIN)
        if delta_on_the_right
        else EJ(delta, extent, predicate, HASH_JOIN)
    )
    recursive = Proj(join, out(anc=path("i", "anc"), desc=var("x")))
    fix = Fix("Closure", UnionOp(base, recursive), "c")
    return Proj(
        fix, out(anc=path("c", "anc", "w"), desc=path("c", "desc", "w"))
    )


class TestRecursiveJoinParity:
    @given(
        parents=st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=8),
                st.tuples(
                    st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=8),
                ),
            ),
            min_size=1,
            max_size=9,
        ),
        delta_on_the_right=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_closure(self, parents, delta_on_the_right):
        physical = build_physical([], [("value", None)] * len(parents))
        records = physical.store.extent("R").records
        for record, parent in zip(records, parents):
            # Any parent, cycles included: set semantics terminate the
            # fixpoint.  A pair is a multivalued reference.
            if isinstance(parent, tuple):
                record.values["parent"] = tuple(
                    records[p % len(records)].oid for p in parent
                )
            elif parent is not None:
                record.values["parent"] = records[parent % len(records)].oid
            else:
                record.values["parent"] = None
        assert_parity(physical, closure_plan(delta_on_the_right))


class TestKernelEngages:
    """The parity above would hold vacuously if the kernel never
    fired; pin where it does and where it must not.  The spy sits on
    :meth:`JoinKernel.matches`, the hash join's one probe routine."""

    @pytest.fixture()
    def fired(self, monkeypatch):
        calls = {"matched": 0, "declined": 0}
        original = JoinKernel.matches

        def spy(self, key, column, probes):
            found = original(self, key, column, probes)
            calls["declined" if found is None else "matched"] += 1
            return found

        monkeypatch.setattr(JoinKernel, "matches", spy)
        return calls

    @pytest.fixture()
    def reopened(self, monkeypatch):
        """The plan nodes handed to ``Engine.iterate_batches``, in
        order: once per open of each."""
        opened = []
        original = Engine.iterate_batches

        def spy(self, node, delta_env):
            opened.append(node)
            return original(self, node, delta_env)

        monkeypatch.setattr(Engine, "iterate_batches", spy)
        return opened

    def run(self, left, right, predicate=None):
        physical = build_physical(
            [("value", v) for v in left], [("value", v) for v in right]
        )
        plan = EJ(
            EntityLeaf("L", "l"),
            EntityLeaf("R", "r"),
            predicate if predicate is not None else equality(False),
            HASH_JOIN,
        )
        return Engine(physical, batch_size=256).execute(plan)

    def test_null_inner_keys_do_not_decline_the_batch(self, fired):
        result = self.run([1, 2], [None, 1, None, 2, 1])
        assert fired == {"matched": 2, "declined": 0}
        assert [
            (row["l"].values["w"], row["r"].values["w"]) for row in result.rows
        ] == [(0, 1), (0, 4), (1, 3)]
        assert result.metrics.predicate_evals == 10
        assert result.metrics.expr_evals == 20

    def test_null_outer_key_matches_nothing(self, fired):
        result = self.run([None, 1], [1, None])
        # A null outer key equals nothing: its probe finds no record,
        # counted as the two pairs the loop would judge.
        assert fired == {"matched": 2, "declined": 0}
        assert len(result.rows) == 1
        assert result.metrics.predicate_evals == 4
        assert result.metrics.expr_evals == 8

    def test_lookalike_keys_match_as_the_loop_does(self, fired):
        result = self.run([1, "1", NAN], [True, 1.0, "1", NAN, 1])
        assert fired["declined"] == 0
        assert [
            (row["l"].values["w"], row["r"].values["w"]) for row in result.rows
        ] == [(0, 0), (0, 1), (0, 4), (1, 2)]

    def test_multivalued_inner_key_declines_the_whole_batch(self, fired):
        result = self.run([1], [1, (1, 2)])
        assert fired == {"matched": 0, "declined": 1}
        assert len(result.rows) == 2

    def test_row_layout_never_matches(self):
        """An inner batch built from binding dicts has no native
        columns: the generic loop finds no inner column to probe, so
        the batch takes the per-pair loop, uncounted by the kernel."""
        physical = build_physical([], [("value", 1), ("value", 2)])
        records = physical.store.extent("R").records
        metrics = RuntimeMetrics()
        kernel = JoinKernel(metrics, "l", "k", "r", "k", None)
        rows = [{"r": record} for record in records]
        assert kernel.inner_column(Batch(rows)) is None
        assert kernel.inner_column(
            Batch.from_columns({"r": records, "s": records})
        ) is None
        column = kernel.inner_column(Batch.from_columns({"r": records}))
        assert column is records
        probes = [None, None]
        assert kernel.matches(1, column, probes) == [records[0]]
        assert (metrics.predicate_evals, metrics.expr_evals) == (2, 4)
        assert probes[0] is records

    def test_scan_leaf_inner_is_read_once_per_open(self, fired, reopened):
        result = self.run([1, None, 2], [2, 1, 1])
        assert fired == {"matched": 3, "declined": 0}
        assert len(result.rows) == 3
        # The outer is opened first; its first binding drains the
        # inner once, and all three bindings probe what was drained.
        assert [
            node.entity for node in reopened if isinstance(node, EntityLeaf)
        ] == ["L", "R"]
        assert result.metrics.tuples_by_node["n2"] == 3
        assert result.metrics.predicate_evals == 3 * 3

    def test_empty_outer_never_opens_the_inner(self, reopened):
        result = self.run([], [2, 1, 1])
        assert result.rows == []
        assert [
            node.entity for node in reopened if isinstance(node, EntityLeaf)
        ] == ["L"]
        assert result.metrics.buffer.logical_reads == 0

    def test_non_leaf_inner_is_drained_once_and_probed(self, fired, reopened):
        physical = build_physical(
            [("value", v) for v in (1, 2)], [("value", v) for v in (2, 1, 1)]
        )
        inner = Sel(EntityLeaf("R", "r"), ge(path("r", "w"), const(0)))
        plan = EJ(EntityLeaf("L", "l"), inner, equality(False), HASH_JOIN)
        result = Engine(physical, batch_size=256).execute(plan)
        assert len(result.rows) == 3
        assert fired == {"matched": 2, "declined": 0}
        assert sum(node is inner for node in reopened) == 1
        # The nested loop re-opens the inner (and re-runs its filter)
        # per outer binding.
        nested = Engine(physical, batch_size=256).execute(
            EJ(EntityLeaf("L", "l"), inner, equality(False), NESTED_LOOP)
        )
        assert nested.answer_set() == result.answer_set()
        assert sum(node is inner for node in reopened) == 1 + 2
        assert nested.metrics.predicate_evals == result.metrics.predicate_evals + 3

    def test_non_equality_has_no_kernel(self, fired):
        self.run([1, 2], [1, 2], predicate=ge(path("l", "k"), path("r", "k")))
        assert fired == {"matched": 0, "declined": 0}

    def test_reference_keys(self, fired):
        physical = build_physical(
            [("oid", 1), ("oid", 2)], [("oid", 2), ("oid", 1), ("oid", 1)]
        )
        plan = EJ(
            EntityLeaf("L", "l"), EntityLeaf("R", "r"), equality(True), HASH_JOIN
        )
        result = Engine(physical, batch_size=256).execute(plan)
        assert fired == {"matched": 2, "declined": 0}
        assert all(
            isinstance(row["l"].values["k"], Oid)
            and row["l"].values["k"] == row["r"].values["k"]
            for row in result.rows
        )
        assert len(result.rows) == 3


class TestProbeMemo:
    """A scan hands back the same chunk lists on every open, so the
    join indexes each inner chunk once and answers every later outer
    binding's probe of it from the index — for an extent inner and a
    delta inner alike."""

    @pytest.fixture()
    def probes(self, monkeypatch):
        seen = {"builds": [], "probes": []}
        build, match = JoinKernel._key_index, JoinKernel.matches

        def counting_build(self, column):
            seen["builds"].append(id(column))
            return build(self, column)

        def counting_match(self, key, column, slot):
            found = match(self, key, column, slot)
            if found is not None:
                assert slot[0] is column
                seen["probes"].append(id(column))
            return found

        monkeypatch.setattr(JoinKernel, "_key_index", counting_build)
        monkeypatch.setattr(JoinKernel, "matches", counting_match)
        return seen

    @pytest.mark.parametrize("batch_size", [2, 256])
    def test_extent_inner(self, probes, batch_size):
        physical = build_physical(
            [("value", v) for v in (1, 2, 1, 3)],
            [("value", v) for v in (1, 1, 2, None, 3)],
        )
        plan = EJ(
            EntityLeaf("L", "l"), EntityLeaf("R", "r"), equality(False), HASH_JOIN
        )
        result = Engine(physical, batch_size=batch_size).execute(plan)
        assert len(result.rows) == 2 + 1 + 2 + 1
        # Four outer bindings probe every inner chunk; each chunk is
        # indexed once.
        chunks = -(-5 // batch_size)
        assert len(probes["builds"]) == chunks
        assert len(probes["probes"]) == 4 * chunks
        for chunk in set(probes["probes"]):
            assert probes["probes"].count(chunk) == 4

    def test_extent_inner_is_indexed_once_across_rounds(self, probes):
        """A delta outer probes the same extent chunk in every round:
        the memo outlives the round, so the chunk is indexed once."""
        physical = build_physical([], [("value", None)] * 4)
        records = physical.store.extent("R").records
        for position, record in enumerate(records):
            record.values["parent"] = (
                records[position - 1].oid if position else None
            )
        result = Engine(physical, batch_size=256).execute(
            closure_plan(delta_on_the_right=False)
        )
        assert result.metrics.fix_iterations >= 3
        assert len(probes["builds"]) == 1
        assert len(probes["probes"]) > result.metrics.fix_iterations
        assert set(probes["probes"]) == set(probes["builds"])

    def test_delta_inner(self, probes):
        physical = build_physical([], [("value", None)] * 4)
        records = physical.store.extent("R").records
        # A chain 0 <- 1 <- 2 <- 3 plus a second child of 0: round one's
        # delta is probed by all four outer records.
        parents = [None, 0, 1, 0]
        for record, parent in zip(records, parents):
            record.values["parent"] = (
                None if parent is None else records[parent].oid
            )
        result = Engine(physical, batch_size=256).execute(
            closure_plan(delta_on_the_right=True)
        )
        assert result.rows
        per_chunk = {
            chunk: probes["probes"].count(chunk)
            for chunk in set(probes["probes"])
        }
        assert max(per_chunk.values()) >= 2
        assert len(probes["builds"]) < len(probes["probes"])
