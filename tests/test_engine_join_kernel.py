"""Nested-loop EJ column kernel: parity with the per-pair loop.

The kernel's contract is that nothing but wall time may tell it from
the loop it replaces: the emitted row *list* (order and duplicates),
every evaluation counter, the buffer's hit/miss/eviction history and
the per-node tuple counts must be identical.  The loop is still in
``src/`` — it is where the join goes whenever the kernel declines — so
it is the oracle: each generated join runs with the kernel {on, off} x
``batch_size`` {1, 3, 256} x buffer {6 pages, default}, the off run
having ``compile_join_kernel`` answer None so every pair takes the
loop, and at every point the two runs must agree.

The generated key columns mix what the kernel accepts (ints, strings,
bools, floats incl. NaN, oids, nulls) with everything that must send a
binding or a whole batch back to the loop: multivalued and
record-valued attributes, and attributes computed by a method.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Batch, Engine, RuntimeMetrics
from repro.engine.eval_expr import (
    ExpressionEvaluator,
    JoinKernel,
    canonical_row,
)
from repro.physical.buffer import BufferPool
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import ObjectStore, Oid
from repro.plans import EJ, EntityLeaf, Fix, Proj, RecLeaf, UnionOp
from repro.querygraph.builder import and_, const, eq, ge, out, path, var
from repro.schema.catalog import Catalog
from repro.schema.conceptual import Attribute, ClassDef, Method
from repro.schema.types import INT

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
BATCH_DEPENDENT = ("batches", "physical_reads", "evictions")


def observe(physical, plan, kernel, batch_size, buffer_pages):
    """Everything a run may be told apart by, from a cold buffer.
    ``kernel=False`` is the oracle: no join kernel is ever built, so
    the nested loop judges every pair through the per-pair closure."""
    physical.store.buffer = (
        BufferPool() if buffer_pages is None else BufferPool(buffer_pages)
    )
    no_kernel = mock.patch.object(
        ExpressionEvaluator, "compile_join_kernel", return_value=None
    )
    with contextlib.nullcontext() if kernel else no_kernel:
        result = Engine(physical, batch_size=batch_size).execute(plan)
    metrics = result.metrics
    return {
        # repr: NaN keys compare unequal to themselves.
        "rows": repr([canonical_row(row) for row in result.rows]),
        "predicate_evals": metrics.predicate_evals,
        "expr_evals": metrics.expr_evals,
        "method_eval_weight": metrics.method_eval_weight,
        "logical_reads": metrics.buffer.logical_reads,
        "physical_reads": metrics.buffer.physical_reads,
        "evictions": metrics.buffer.evictions,
        "batches": metrics.batches,
        "tuples_by_node": dict(metrics.tuples_by_node),
    }


def assert_parity(physical, plan):
    for buffer_pages in BUFFERS:
        invariant = None
        for batch_size in BATCH_SIZES:
            oracle = observe(physical, plan, False, batch_size, buffer_pages)
            kernel = observe(physical, plan, True, batch_size, buffer_pages)
            assert kernel == oracle, (batch_size, buffer_pages)
            for name in BATCH_DEPENDENT:
                del oracle[name]
            if invariant is None:
                invariant = oracle
            assert oracle == invariant, (batch_size, buffer_pages)


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
        plan = EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), equality(flipped))
        if projected:
            # The consumer dereferences per emitted row, so its page
            # touches interleave with the inner re-scans.
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
            EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), predicate),
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
        EJ(extent, delta, predicate)
        if delta_on_the_right
        else EJ(delta, extent, predicate)
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
    fired; pin where it does and where it must not."""

    @pytest.fixture()
    def fired(self, monkeypatch):
        calls = {"matched": 0, "declined": 0}
        original = JoinKernel.matches

        def spy(self, key, batch):
            found = original(self, key, batch)
            calls["declined" if found is None else "matched"] += 1
            return found

        monkeypatch.setattr(JoinKernel, "matches", spy)
        return calls

    def run(self, left, right, predicate=None):
        physical = build_physical(
            [("value", v) for v in left], [("value", v) for v in right]
        )
        plan = EJ(
            EntityLeaf("L", "l"),
            EntityLeaf("R", "r"),
            predicate if predicate is not None else equality(False),
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

    def test_null_outer_key_takes_the_loop(self, fired):
        result = self.run([None, 1], [1, None])
        # Only the non-null outer binding probes the kernel.
        assert fired == {"matched": 1, "declined": 0}
        assert len(result.rows) == 1
        assert result.metrics.predicate_evals == 4

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
        columns: ``matches`` declines it, uncounted, and the join takes
        the loop."""
        physical = build_physical([], [("value", 1), ("value", 2)])
        records = physical.store.extent("R").records
        metrics = RuntimeMetrics()
        kernel = JoinKernel(metrics, "l", "k", "r", "k", None)
        rows = [{"r": record} for record in records]
        assert kernel.matches(1, Batch(rows)) is None
        assert (metrics.predicate_evals, metrics.expr_evals) == (0, 0)
        assert kernel.matches(1, Batch.from_columns({"r": records})) == [
            records[0]
        ]
        assert (metrics.predicate_evals, metrics.expr_evals) == (2, 4)

    def test_non_equality_has_no_kernel(self, fired):
        self.run([1, 2], [1, 2], predicate=ge(path("l", "k"), path("r", "k")))
        assert fired == {"matched": 0, "declined": 0}

    def test_reference_keys(self, fired):
        physical = build_physical(
            [("oid", 1), ("oid", 2)], [("oid", 2), ("oid", 1), ("oid", 1)]
        )
        plan = EJ(EntityLeaf("L", "l"), EntityLeaf("R", "r"), equality(True))
        result = Engine(physical, batch_size=256).execute(plan)
        assert fired == {"matched": 2, "declined": 0}
        assert all(
            isinstance(row["l"].values["k"], Oid)
            and row["l"].values["k"] == row["r"].values["k"]
            for row in result.rows
        )
        assert len(result.rows) == 3
