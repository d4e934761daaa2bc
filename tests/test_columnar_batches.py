"""Columnar batches: round-trip properties and kernel parity.

Whether a batch was built from columns or from binding dicts, and
whether an operator's column kernel took it or declined it to the row
closure, must be invisible to every consumer.  The properties here pin
the three boundaries:

* ``Batch.from_columns(...).rows`` materializes exactly the binding
  dicts a row batch would carry (same values, same field order), and
  ``Batch(rows).columns`` inverts it;
* columnar exchange frames (run-length encoded columns) decode back to
  the exact tuples the row frames carry, values *and* types;
* running one plan through the column kernels and through the row
  closures they decline to produces identical answers and identical
  metering counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.exchange import decode_tuples, encode_tuples
from repro.engine import Engine
from repro.engine.batch import Batch
from repro.plans import EntityLeaf, Proj, Sel
from repro.querygraph.builder import and_, const, ge, le, out, path
from tests.diff_harness import kernels_declined

# Atom values covering every kind the engine stores, including the
# adversarial bool/int/float lookalikes (True vs 1 vs 1.0) that a
# type-loose run-length encoder would merge.
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.sampled_from([0, 1, True, False, 1.0, 0.0, "", "0"]),
)

_field_names = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def _uniform_rows(draw):
    """A non-empty list of binding dicts sharing one field order —
    the schema uniformity every operator's emissions guarantee."""
    names = draw(_field_names)
    count = draw(st.integers(min_value=1, max_value=24))
    return [
        {name: draw(_atoms) for name in names} for _ in range(count)
    ]


class TestBatchRoundTrip:
    @given(rows=_uniform_rows())
    @settings(max_examples=200, deadline=None)
    def test_columns_to_rows_to_columns(self, rows):
        columns = {name: [row[name] for row in rows] for name in rows[0]}
        batch = Batch.from_columns(
            {name: list(values) for name, values in columns.items()}
        )
        assert batch.is_columnar
        assert len(batch) == len(rows)
        # Materialized rows match value-for-value, field order included.
        assert batch.rows == rows
        assert [list(row) for row in batch.rows] == [
            list(row) for row in rows
        ]
        # And the inverse conversion recovers the exact columns.
        assert Batch(batch.rows).columns == columns

    @given(rows=_uniform_rows())
    @settings(max_examples=100, deadline=None)
    def test_row_batch_columns_match(self, rows):
        batch = Batch(rows)
        assert not batch.is_columnar
        assert batch.columns == {
            name: [row[name] for row in rows] for name in rows[0]
        }

    def test_empty_columnar_batch(self):
        batch = Batch.from_columns({}, length=0)
        assert len(batch) == 0
        assert not batch
        assert batch.rows == []


class TestExchangeRoundTrip:
    def frames_for(self, tuples, layout):
        return encode_tuples("delta", "fix", 0, 0, tuples, layout=layout)

    @given(rows=_uniform_rows())
    @settings(max_examples=200, deadline=None)
    def test_columnar_frames_decode_exactly(self, rows):
        decoded = decode_tuples(self.frames_for(rows, "columnar"))
        assert decoded == rows
        # JSON round-trips must preserve types exactly: True must not
        # come back as 1, nor 1.0 as 1 (run merging is type-strict).
        for got, want in zip(decoded, rows):
            for name, value in want.items():
                assert type(got[name]) is type(value)

    @given(rows=_uniform_rows())
    @settings(max_examples=50, deadline=None)
    def test_both_layouts_decode_to_the_same_tuples(self, rows):
        columnar = decode_tuples(self.frames_for(rows, "columnar"))
        row_wise = decode_tuples(self.frames_for(rows, "row"))
        assert columnar == row_wise == rows

    def test_empty_sequence_round_trips(self):
        for layout in ("row", "columnar"):
            assert decode_tuples(self.frames_for([], layout)) == []


class TestLayoutParity:
    """A column kernel only changes how a batch is evaluated; every
    observable counter of the computation itself is what the row
    closures (the kernels' decline path) produce."""

    def plan(self):
        return Proj(
            Sel(
                EntityLeaf("Composer", "x"),
                and_(
                    ge(path("x", "birthyear"), const(1600)),
                    le(path("x", "birthyear"), const(1850)),
                ),
            ),
            out(name=path("x", "name")),
        )

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_row_and_columnar_agree(self, indexed_db, batch_size):
        engine = Engine(indexed_db.physical, batch_size=batch_size)
        col = engine.execute(self.plan())
        with kernels_declined():
            row = engine.execute(self.plan())
        assert col.answer_set() == row.answer_set()
        assert col.metrics.tuples_by_node == row.metrics.tuples_by_node
        assert col.metrics.predicate_evals == row.metrics.predicate_evals
        assert (
            col.metrics.buffer.logical_reads
            == row.metrics.buffer.logical_reads
        )
        assert col.metrics.batches == row.metrics.batches
        assert col.metrics.column_touches == row.metrics.column_touches
