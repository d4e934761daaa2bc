"""Consistency self-test of the macro benchmark.

    python -m pytest benchmarks/macro -q

Runs ``run.py --smoke`` once (2 s windows, one set-up, a third of the
replay) and checks that the instrument is coherent: declared names are
emitted, the staged spans account for the request, each workload hits
or misses the plan cache as designed, request streams are a function of
the seed, and exact counters repeat.  Not collected by tier-1
(``testpaths = ["tests"]``).
"""

import itertools
import json
import os
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import macro_workloads  # noqa: E402
from repro.service import protocol  # noqa: E402

with open(compare.BENCHMARK_JSON) as _handle:
    BENCHMARK = json.load(_handle)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CLOSURES = ("warm_recursive", "sharded_recursive", "starved_recursive")


def _run(tmp_path, *args):
    out = str(tmp_path / "result.json")
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", out, *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle)["runs"][-1], process.stdout, out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("macro"), "--seed", "92")


def _layer(run, workload, metric):
    return run["workloads"][workload]["per_layer"][metric]["value"]


def test_declared_names_are_emitted(smoke):
    run, stdout, _out = smoke
    declared_workloads = [entry["name"] for entry in BENCHMARK["workloads"]]
    assert declared_workloads == list(macro_workloads.WORKLOADS)
    assert sorted(run["workloads"]) == sorted(declared_workloads)
    for section in ("end_to_end", "per_layer"):
        declared = sorted(entry["name"] for entry in BENCHMARK[section])
        assert all(NAME.match(name) for name in declared)
        for workload, record in run["workloads"].items():
            assert sorted(record[section]) == declared, (workload, section)
            for name in declared:
                assert f"{workload:<18} {name:<34}" in stdout
    assert "setup_s" in {entry["name"] for entry in BENCHMARK["end_to_end"]}


def test_every_answer_verified_and_nothing_failed(smoke):
    run, _stdout, _out = smoke
    for workload, record in run["workloads"].items():
        assert record["correct"], workload
        assert record["failed"] == 0 and record["wrong_answers"] == 0, workload
        assert record["end_to_end"]["ok_fraction"]["value"] == 1.0
        assert record["end_to_end"]["verified_fraction"]["value"] == 1.0


def test_staged_spans_account_for_the_request(smoke):
    run, _stdout, _out = smoke
    for workload in run["workloads"]:
        path = os.path.join(HERE, run["workloads"][workload]["trace_file"])
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        roots = [e for e in events if e["name"] == "staged"]
        assert roots, workload
        for root in roots:
            # Self time of the staged root = what no stage span covers.
            assert root["args"]["self_ms"] <= max(0.1, 0.03 * root["dur"] / 1000.0)
        # What the real path spends beyond the staged layers is small.
        handle_ms = _layer(run, workload, "server.handle_ms")
        assert abs(_layer(run, workload, "server.unattributed_ms")) <= 0.2 * handle_ms


def test_staged_engine_time_matches_the_untraced_server(smoke):
    run, _stdout, _out = smoke
    for workload in CLOSURES:
        staged = _layer(run, workload, "engine.execute_ms")
        untraced = _layer(run, workload, "server.execute_ms")
        assert 0.7 <= staged / untraced <= 1.3, (workload, staged, untraced)


def _staged_share(run, workload, *stages):
    """Median over replayed requests of the share of the staged root
    span that the named stage spans take."""
    path = os.path.join(HERE, run["workloads"][workload]["trace_file"])
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    shares = []
    for root in (e for e in events if e["name"] == "staged"):
        request = root["args"]["request"]
        if request.startswith("warmup"):
            continue
        inside = sum(
            e["dur"]
            for e in events
            if e["args"]["request"] == request and e["name"] in stages
        )
        shares.append(inside / root["dur"])
    return statistics.median(shares)


def test_each_workload_is_dominated_by_its_layer(smoke):
    run, _stdout, _out = smoke
    assert _staged_share(run, "warm_recursive", "engine.execute") >= 0.9
    assert _staged_share(run, "cold_optimize", "core.optimize", "lang.compile") >= 0.8
    assert _staged_share(run, "short_mix", "engine.execute") <= 0.6
    starved = run["workloads"]["starved_recursive"]
    assert (
        starved["per_layer"]["buffer.miss_sleep_ms"]["value"]
        >= 0.5 * starved["end_to_end"]["latency_p50_ms"]["value"]
    )
    for workload in run["workloads"]:
        sharded = workload == "sharded_recursive"
        assert (_layer(run, workload, "dist.exchange_tuples") > 0) == sharded
    for workload in CLOSURES:
        median = run["workloads"][workload]["end_to_end"]["latency_p50_ms"]["value"]
        assert median >= 150.0, workload


def test_plan_cache_is_hit_or_bypassed_as_designed(smoke):
    run, _stdout, _out = smoke
    for workload, record in run["workloads"].items():
        assert record["cache_violations"] == 0, workload
        expected = 0.0 if workload == "cold_optimize" else 1.0
        assert _layer(run, workload, "plan_cache.hit_ratio") == expected


def _wire_bytes(workload_name, seed, count=300):
    workload = macro_workloads.WORKLOADS[workload_name]
    db = macro_workloads.build_database(workload, seed)
    statements = {t.key: f"s{i}" for i, t in enumerate(workload.templates, 1)}
    stream = macro_workloads.request_stream(workload, db, seed)
    return b"".join(
        protocol.encode(request.payload(statements))
        for request in itertools.islice(stream, count)
    )


@pytest.mark.parametrize("workload", list(macro_workloads.WORKLOADS))
def test_request_stream_is_a_function_of_the_seed(workload):
    assert _wire_bytes(workload, 92) == _wire_bytes(workload, 92)
    if workload in ("cold_optimize", "short_mix"):
        assert _wire_bytes(workload, 92) != _wire_bytes(workload, 7)


def test_cold_optimize_never_repeats_within_the_cache():
    workload = macro_workloads.WORKLOADS["cold_optimize"]
    db = macro_workloads.build_database(workload, 92)
    texts = [
        request.text
        for request in itertools.islice(
            macro_workloads.request_stream(workload, db, 92), 400
        )
    ]
    assert len(set(texts)) >= 128
    for index, text in enumerate(texts):
        assert text not in texts[max(0, index - 64) : index]


def test_exact_counters_repeat(smoke, tmp_path):
    run, _stdout, _out = smoke
    again, _stdout, _out = _run(tmp_path, "--seed", "92", "--workload", "cold_optimize")
    first, second = (r["workloads"]["cold_optimize"] for r in (run, again))
    for metric in ("buffer.physical_reads", "core.plans_costed"):
        assert first["per_layer"][metric] == second["per_layer"][metric]
    assert first["end_to_end"]["plan_regret"] == second["end_to_end"]["plan_regret"]
    assert first["decisions"] == second["decisions"]


def test_plan_regret_does_not_depend_on_the_seed():
    # Per-seed databases read 1.654 (seed 0) and 1.000 (seed 1).
    workload = macro_workloads.WORKLOADS["cold_optimize"]
    assert (
        macro_workloads.Oracle(workload, 0).plan_regret()
        == macro_workloads.Oracle(workload, 1).plan_regret()
    )


def test_compare_applies_the_bounds(smoke, tmp_path, capsys):
    _run_record, _stdout, out = smoke
    assert compare.main(["compare.py", out, out]) == 0
    assert "regressed" not in capsys.readouterr().out
    with open(out) as handle:
        slower = json.load(handle)
    metric = slower["runs"][0]["workloads"]["short_mix"]["end_to_end"]["latency_p50_ms"]
    metric["value"] *= 1.5
    doctored = tmp_path / "slower.json"
    doctored.write_text(json.dumps(slower))
    assert compare.main(["compare.py", out, str(doctored)]) == 1
    assert "regressed" in capsys.readouterr().out
