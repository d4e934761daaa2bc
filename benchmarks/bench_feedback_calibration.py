"""FEEDBACK-CALIBRATION — closing the cost-model loop from production.

The paper calibrates its cost model offline against micro-benchmarks
(Section 4.6 / our ``bench_calibration``).  The query service records
estimated vs. measured cost *per executed query and per operator*, so
the same NNLS fit can run online, from production actuals.  This
benchmark demonstrates the full loop on two workloads (the music
lineage database and the parts bill-of-materials):

1. serve a skewed workload from unit costs fitted on another machine
   (:data:`OTHER_MACHINE`) and record the mean per-operator
   misestimate (q-error of estimated vs. measured operator cost);
2. ``recalibrate(apply=True)`` — refit the unit weights from the
   accumulated telemetry and hot-swap them into the serving path;
3. serve the workload again: the misestimate must strictly shrink.

It also drives the plan-regression detector end to end: a deliberately
worse plan (no push into the recursion) is swapped into the cache, the
detector flags it after ``regression_min_runs`` executions — both
fingerprints land in the event — and pinning reverts to the prior
plan.  Finally, the feedback-off throughput guard: with
``feedback_enabled=False`` the serving path must stay within a few
percent of the feedback-on path (and of the pre-feedback baseline).

``results/BENCH_feedback_calibration.json`` carries all of it for the
CI regression gate (``benchmarks/check_regression.py``).
"""

import time

import pytest

from repro.core.baselines import naive_optimizer
from repro.cost import CostParameters
from repro.lang import compile_text
from repro.service import QueryService, ServiceConfig
from repro.workloads import (
    MusicConfig,
    PartsConfig,
    generate_music_database,
    generate_parts_database,
)

MUSIC_PUSHABLE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 3;
"""

MUSIC_RECURSIVE = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.gen >= 4;
"""

MUSIC_SCAN = (
    "select [name: x.name] from x in Composer where x.birthyear >= 1700;"
)
MUSIC_LOOKUP = (
    'select [name: x.name] from x in Composer where x.name = "Bach";'
)

PARTS_RECURSIVE = """
view Contained as
  select [root: p, part: s, depth: 1]
  from p in Part, s in Part where p.subparts = s
  union
  select [root: c.root, part: s, depth: c.depth + 1]
  from c in Contained, s in Part where c.part.subparts = s;
select [name: c.part.pname, depth: c.depth]
from c in Contained
where c.root.pname = "assembly_root_0" and c.depth >= 2;
"""

PARTS_SCAN = "select [name: p.pname] from p in Part where p.mass >= 5.0;"


def build_music():
    db = generate_music_database(
        MusicConfig(lineages=4, generations=6, works_per_composer=2, seed=92)
    )
    db.build_paper_indexes()
    return db


def build_music_skewed():
    """The calibration workload's deployment: data outgrew the buffer
    pool (scans really hit disk, as the model assumes) and the paper
    indexes were never built.  Here the prior unit costs — not the
    cardinality model — dominate the misestimate, which is exactly the
    error online recalibration can remove."""
    return generate_music_database(
        MusicConfig(
            lineages=16,
            generations=8,
            works_per_composer=3,
            buffer_pages=4,
            seed=92,
        )
    )


def build_parts():
    return generate_parts_database(
        PartsConfig(assemblies=3, depth=4, fanout=3, seed=7)
    )


WORKLOADS = [
    (
        "music",
        build_music_skewed,
        [MUSIC_RECURSIVE, MUSIC_SCAN, MUSIC_LOOKUP],
    ),
    ("parts", build_parts, [PARTS_RECURSIVE, PARTS_SCAN]),
]

ROUNDS = 6

#: The prior each workload's service starts from: unit costs fitted on
#: another machine, where a predicate evaluation costs a fifth of what
#: it costs here.  The built-in defaults are this simulator's own
#: weights, so a service started from them has nothing to recover.
OTHER_MACHINE = dict(eval_per_tuple=0.02)


def feedback_config():
    return ServiceConfig(
        # Small ring: the post-recalibration rounds fully replace the
        # pre-recalibration observations, so before/after are clean.
        history_window=ROUNDS,
        recalibrate_min_samples=6,
        profile_sample_every=1,
    )


def mean_misestimates(service):
    summary = service.feedback.misestimate_by_query()
    cost = [
        entry["cost_misestimate"]
        for entry in summary.values()
        if entry["cost_misestimate"] is not None
    ]
    ops = [
        entry["operator_misestimate"]
        for entry in summary.values()
        if entry["operator_misestimate"] is not None
    ]
    return (
        sum(cost) / len(cost) if cost else None,
        sum(ops) / len(ops) if ops else None,
    )


@pytest.fixture(scope="module")
def calibration_rows():
    rows = []
    for name, build, queries in WORKLOADS:
        service = QueryService(build(), feedback_config())
        # Installed the way ``recalibrate(apply=True)`` installs a fit.
        service._cost_params = CostParameters(**OTHER_MACHINE)
        try:
            for _round in range(ROUNDS):
                for text in queries:
                    service.run_query(text)
            before_cost, before_ops = mean_misestimates(service)
            fit = service.recalibrate(apply=True)
            for _round in range(ROUNDS):
                for text in queries:
                    service.run_query(text)
            after_cost, after_ops = mean_misestimates(service)
        finally:
            service.close()
        rows.append(
            {
                "workload": name,
                "queries": len(queries),
                "samples": fit["samples"],
                "weights": fit["weights"],
                "before_cost_q": round(before_cost, 4),
                "after_cost_q": round(after_cost, 4),
                "before_operator_q": round(before_ops, 4),
                "after_operator_q": round(after_ops, 4),
                "operator_improvement": round(before_ops / after_ops, 4),
                "cost_improvement": round(before_cost / after_cost, 4),
            }
        )
    return rows


@pytest.fixture(scope="module")
def regression_row():
    service = QueryService(
        build_music(),
        ServiceConfig(
            history_window=16,
            regression_min_runs=3,
            regression_ratio=0.01,  # deterministic: flag any new median
        ),
    )
    try:
        for _run in range(4):
            service.run_query(MUSIC_PUSHABLE)
        with service._store_lock:
            key = service.cache.key_for(MUSIC_PUSHABLE, service.physical)
            old_entry = service.cache.entry(key)
            graph = compile_text(MUSIC_PUSHABLE, service.database.catalog)
            worse = naive_optimizer(service.physical).optimize(graph)
            new_entry = service.cache.store(
                key, worse.plan, worse.cost, service.physical
            )
            new_entry.fingerprint = service.feedback.register_plan(
                key[0], worse.plan, worse.cost
            )
            service.feedback.plan_changed(
                key[0],
                old_entry.plan,
                old_entry.cost,
                worse.plan,
                worse.cost,
                "cost_drift",
            )
        for _run in range(3):
            service.run_query(MUSIC_PUSHABLE)
        events = [
            event
            for event in service.feedback.store.events
            if event["event"] == "plan_regression"
        ]
        pinned = service.pin_query(MUSIC_PUSHABLE, revert=True)
        entry = service.cache.entry(key)
        return {
            "detected": len(events),
            "old_fingerprint": events[0]["old_fingerprint"],
            "new_fingerprint": events[0]["new_fingerprint"],
            "latency_ratio": events[0]["latency_ratio"],
            "reverted_by_pin": bool(
                pinned["reverted"]
                and entry.pinned
                and entry.fingerprint == events[0]["old_fingerprint"]
            ),
        }
    finally:
        service.close()


REQUESTS = 40
REPEATS = 5


def timed_round(service, text):
    started = time.perf_counter()
    for _ in range(REQUESTS):
        service.run_query(text)
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def throughput_row():
    # Interleave the two modes round by round (best-of per mode) so a
    # scheduler hiccup or cache-warming drift penalises both equally
    # instead of whichever mode happened to run second.
    services = {
        label: QueryService(
            build_music(), ServiceConfig(feedback_enabled=enabled)
        )
        for label, enabled in (("enabled", True), ("disabled", False))
    }
    best = {label: None for label in services}
    try:
        for service in services.values():
            service.run_query(MUSIC_PUSHABLE)  # prime cache + allocator
        for _ in range(REPEATS):
            for label, service in services.items():
                elapsed = timed_round(service, MUSIC_PUSHABLE)
                if best[label] is None or elapsed < best[label]:
                    best[label] = elapsed
    finally:
        for service in services.values():
            service.close()
    qps = {label: REQUESTS / elapsed for label, elapsed in best.items()}
    return {
        "feedback_enabled_qps": round(qps["enabled"], 1),
        "feedback_disabled_qps": round(qps["disabled"], 1),
        "disabled_over_enabled": round(qps["disabled"] / qps["enabled"], 4),
    }


def test_feedback_calibration_report(
    calibration_rows, regression_row, throughput_row, report, table
):
    for row in calibration_rows:
        # The acceptance claim: the mean per-operator misestimate
        # strictly improves after online recalibration, per workload.
        assert row["after_operator_q"] < row["before_operator_q"], row
        assert row["after_cost_q"] < row["before_cost_q"], row
    assert regression_row["detected"] >= 1
    assert regression_row["reverted_by_pin"]
    assert regression_row["old_fingerprint"] != regression_row[
        "new_fingerprint"
    ]
    # Feedback bookkeeping must not tax the serving path measurably;
    # 0.90 leaves slack for scheduler noise (the recorded ratio in the
    # JSON is the actual guard the CI gate watches).
    assert throughput_row["disabled_over_enabled"] >= 0.90

    text = table(
        [
            "workload",
            "cost q before",
            "cost q after",
            "op q before",
            "op q after",
            "op improvement",
        ],
        [
            [
                row["workload"],
                f"{row['before_cost_q']:.3f}",
                f"{row['after_cost_q']:.3f}",
                f"{row['before_operator_q']:.3f}",
                f"{row['after_operator_q']:.3f}",
                f"{row['operator_improvement']:.2f}x",
            ]
            for row in calibration_rows
        ],
    )
    text += "\nregression: old={old} new={new} ratio={ratio}x pin={pin}\n".format(
        old=regression_row["old_fingerprint"],
        new=regression_row["new_fingerprint"],
        ratio=regression_row["latency_ratio"],
        pin="reverted" if regression_row["reverted_by_pin"] else "FAILED",
    )
    text += (
        "throughput guard: feedback off {off:.1f} qps / on {on:.1f} qps "
        "= {ratio:.3f}\n".format(
            off=throughput_row["feedback_disabled_qps"],
            on=throughput_row["feedback_enabled_qps"],
            ratio=throughput_row["disabled_over_enabled"],
        )
    )
    report(
        "feedback_calibration",
        text,
        data={
            "calibration": calibration_rows,
            "regression": regression_row,
            "throughput_guard": throughput_row,
        },
    )
