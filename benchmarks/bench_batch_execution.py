"""BATCH-EXECUTION — throughput of batch-at-a-time vs tuple-at-a-time.

The batch refactor's speed claim is amortization: one generator
resumption, one cancellation poll, one ``add_tuples`` flush per batch
instead of per tuple.  This benchmark measures it where it is most
visible — a CPU-bound flat SPJ (scan + conjunctive filter +
projection) whose per-tuple work is a couple of compiled-closure
calls, so the per-tuple pipeline overhead dominates at batch size 1 —
and where it matters for the paper's workload, the ``Contains``
closure of a bill-of-materials assembly (the Section 5 recursive
query), whose semi-naive rounds feed delta batches through the same
operator pipeline.

Every run at every batch size must produce the identical answer set
and total tuple count; the bench must not claim speed for an engine
that drops tuples.  The machine-readable twin
``results/BENCH_batch_execution.json`` carries the speedups;
``check_regression.py`` holds the SPJ batched-over-tuple-at-a-time
ratio to the >=2x claim.
"""

import time

from repro.engine import Engine
from repro.plans.nodes import EntityLeaf, Fix, IJ, Proj, RecLeaf, Sel, UnionOp
from repro.querygraph.builder import add, and_, const, ge, le, out, path, var
from repro.querygraph.graph import OutputField, OutputSpec
from repro.querygraph.predicates import Comparison, Const, PathRef
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.parts import PartsConfig, generate_parts_database

BATCH_SIZES = (1, 64, 1024)

#: Best-of-N per batch size; discards scheduler noise.
REPEATS = 5

REQUIRED_SPJ_SPEEDUP = 2.0

ROOT = "assembly_root_0"


def build_music_db():
    """CPU-bound regime: everything fits in the buffer pool, so the
    measured time is pipeline overhead plus closure calls."""
    db = generate_music_database(
        MusicConfig(
            lineages=60,
            generations=40,
            works_per_composer=1,
            buffer_pages=65536,
            seed=1992,
        )
    )
    db.physical.refresh_statistics()
    return db


def build_parts_db():
    db = generate_parts_database(
        PartsConfig(
            assemblies=2,
            depth=5,
            fanout=3,
            sharing=0.0,
            buffer_pages=4096,
            seed=1992,
        )
    )
    db.physical.build_selection_index("Part", "pname")
    db.physical.refresh_statistics()
    return db


def scan_filter_plan():
    """Scan + conjunctive range filter over Composer (every record
    passes, so the full extent flows through both operators — maximum
    pipeline stress, the shape the >=2x claim is gated on)."""
    return Sel(
        EntityLeaf("Composer", "x"),
        and_(
            ge(path("x", "birthyear"), const(0)),
            le(path("x", "birthyear"), const(99999)),
        ),
    )


def spj_plan():
    """The full flat SPJ pipeline: scan + filter + project."""
    return Proj(
        scan_filter_plan(),
        out(name=path("x", "name"), year=path("x", "birthyear")),
    )


def contains_plan():
    """The ``Contains`` closure of one assembly as a pointer-join PT
    (index-selected base part, one IJ hop ``r.component.subparts`` per
    delta tuple)."""
    base = Proj(
        IJ(
            Sel(
                EntityLeaf("Part", "p"),
                Comparison("=", PathRef("p", ("pname",)), Const(ROOT)),
            ),
            EntityLeaf("Part", "c"),
            PathRef("p", ("subparts",)),
            "c",
        ),
        OutputSpec(
            [
                OutputField("assembly", var("p")),
                OutputField("component", var("c")),
                OutputField("level", const(1)),
            ]
        ),
    )
    recursive = Proj(
        IJ(
            RecLeaf("Contains", "r"),
            EntityLeaf("Part", "c"),
            PathRef("r", ("component", "subparts")),
            "c",
        ),
        OutputSpec(
            [
                OutputField("assembly", path("r", "assembly")),
                OutputField("component", var("c")),
                OutputField("level", add(path("r", "level"), const(1))),
            ]
        ),
    )
    fix = Fix(
        "Contains",
        UnionOp(base, recursive),
        "k",
        recursion_entity="Part",
        recursion_attribute="subparts",
        invariant_fields=("assembly",),
    )
    return Proj(
        fix,
        OutputSpec(
            [
                OutputField("component", path("k", "component")),
                OutputField("level", path("k", "level")),
            ]
        ),
    )


def measure(db, plan, batch_size):
    best = None
    for _ in range(REPEATS):
        engine = Engine(db.physical, batch_size=batch_size)
        started = time.perf_counter()
        result = engine.execute(plan)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    return {
        "batch_size": batch_size,
        "elapsed_s": round(elapsed, 4),
        "rows": len(result.rows),
        "rows_per_sec": round(len(result.rows) / elapsed) if elapsed else 0,
        "total_tuples": result.metrics.total_tuples,
        "batches": result.metrics.batches,
        "answers": result.answer_set(),
    }


def sweep(db, plan):
    measurements = [measure(db, plan, size) for size in BATCH_SIZES]
    serial = measurements[0]
    want = serial["answers"]
    for row in measurements:
        assert row["answers"] == want
        assert row["total_tuples"] == serial["total_tuples"]
        del row["answers"]
        row["speedup"] = round(serial["elapsed_s"] / row["elapsed_s"], 3)
    return measurements


def test_batch_execution_throughput(report, table):
    music_db = build_music_db()
    workloads = [
        ("spj_scan_filter", music_db, scan_filter_plan()),
        ("spj_full", music_db, spj_plan()),
        ("contains_closure", build_parts_db(), contains_plan()),
    ]
    results = {}
    rows = []
    for name, db, plan in workloads:
        measurements = sweep(db, plan)
        results[name] = measurements
        for row in measurements:
            rows.append(
                (
                    name,
                    row["batch_size"],
                    f"{row['elapsed_s']:.4f}",
                    f"{row['rows_per_sec']:,}",
                    f"{row['speedup']:.2f}x",
                    row["batches"],
                    row["total_tuples"],
                )
            )

    def speedup_at(name, size):
        for row in results[name]:
            if row["batch_size"] == size:
                return row["speedup"]
        raise KeyError(size)

    spj_speedup = max(
        speedup_at("spj_scan_filter", size) for size in BATCH_SIZES[1:]
    )
    text = table(
        (
            "workload",
            "batch_size",
            "elapsed_s",
            "rows/sec",
            "speedup",
            "batches",
            "total_tuples",
        ),
        rows,
    )
    report(
        "batch_execution",
        text,
        data={
            "batch_sizes": list(BATCH_SIZES),
            "repeats": REPEATS,
            "measurements": results,
            "spj_speedup@64": speedup_at("spj_scan_filter", 64),
            "spj_speedup@1024": speedup_at("spj_scan_filter", 1024),
            "spj_speedup@batched": spj_speedup,
            "spj_full_speedup@1024": speedup_at("spj_full", 1024),
            "contains_speedup@1024": speedup_at("contains_closure", 1024),
            "required_spj_speedup": REQUIRED_SPJ_SPEEDUP,
        },
    )

    assert spj_speedup >= REQUIRED_SPJ_SPEEDUP, (
        f"batched SPJ speedup {spj_speedup:.2f}x fell below the "
        f"{REQUIRED_SPJ_SPEEDUP}x tuple-at-a-time claim"
    )
