"""The repo's macro benchmark: one command, five TCP workloads.

    python benchmarks/macro/run.py --seed 92            # everything
    python benchmarks/macro/run.py --workload short_mix --seed 7 \\
        --seconds 15 --trace 0                          # one driver run

For each workload the harness starts the real ``QueryServer`` in a
child process, drives it over a real TCP connection with
``ServiceClient`` (closed loop, one connection), verifies every answer
against ``ReferenceEvaluator``, and -- with tracing -- replays the same
requests in process for the per-layer numbers.  End-to-end metrics come
only from the untraced window.  See ``README.md`` beside this file.

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from typing import Dict, List, Optional

try:
    import macro_workloads  # puts the checkout's src/ on sys.path
    import repro  # noqa: F401
except ImportError as error:
    sys.stderr.write(
        f"macro benchmark: the repro package is not importable ({error}); "
        "run from a checkout that has src/repro\n"
    )
    sys.exit(2)

import macro_load
import macro_replay
from macro_workloads import (
    WORKLOADS,
    Oracle,
    Workload,
    request_stream,
    warmup_count,
)

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "results", "trajectory.jsonl")
#: Server set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    end_to_end: bool,
    traced: bool,
    smoke: bool = False,
) -> dict:
    """Run one workload; returns its result record.

    A traced-only run still needs an untraced TCP window (the client
    and server-response layer metrics come from it) but makes it a
    third as long and sets the server up once.  ``smoke`` (the
    self-test) also sets up once and replays a third of the requests.
    """
    oracle = Oracle(workload, seed)
    window_seconds = seconds if end_to_end else max(1.0, seconds / 3.0)
    setup_times: List[float] = []
    extras: Dict[str, float] = {}
    with ExitStack() as stack:
        for _attempt in range(SETUPS if end_to_end and not smoke else 1):
            # The previous set-up's child is stopped before the next
            # starts: set-ups are measured alone on the machine.
            stack.close()
            started = time.perf_counter()
            server = stack.enter_context(macro_load.ServerChild(workload, seed))
            stream = request_stream(workload, oracle.db, seed)
            session = macro_load.set_up(
                server, stream, warmup_count(workload, oracle.db)
            )
            stack.callback(session.close)
            setup_times.append(time.perf_counter() - started)
        window = macro_load.run_window(server, session, stream, window_seconds)
        if traced:
            extras = _side_phases(server, session, oracle, seed, window, seconds)
    macro_load.verify(window, oracle, workload.expect_cache)

    record = {
        "attempted": window.attempted,
        "failed": window.failed,
        "wrong_answers": window.wrong_answers,
        "cache_violations": window.cache_violations,
        "errors": window.errors[:5],
        "window_s": window.seconds,
        "server_ready": server.ready,
    }
    if end_to_end:
        regret, decisions = oracle.plan_regret()
        record["decisions"] = decisions
        record["end_to_end"] = _named(
            {
                "setup_s": (statistics.median(setup_times), "s"),
                "latency_p50_ms": (
                    statistics.median(window.latencies_ms() or [0.0]), "ms"
                ),
                "throughput_qps": (window.ok / window.seconds, "1/s"),
                "server_cpu_ms_per_query": (
                    window.cpu_seconds * 1000.0 / max(1, window.completed), "ms"
                ),
                "peak_rss_mb": (window.peak_rss_mb, "MB"),
                "ok_fraction": (window.ok / window.attempted, "ratio"),
                "verified_fraction": (
                    1.0 - window.wrong_answers / max(1, window.completed), "ratio"
                ),
                "plan_regret": (regret, "ratio"),
            }
        )
    if traced:
        replay = macro_replay.Replay(workload, seed)
        try:
            count = workload.replay_count
            replay.run(oracle, max(3, count // 3) if smoke else count)
            record["per_layer"] = _named(
                macro_replay.layer_metrics(replay, window, extras)
            )
        finally:
            replay.close()
        os.makedirs(macro_load.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(macro_load.OUT_DIR, f"trace_{workload.name}.json")
        with open(trace_path, "w") as handle:
            json.dump(replay.recorder.chrome_trace(), handle)
        record["trace_file"] = os.path.relpath(trace_path, HERE)
    record["correct"] = window.wrong_answers == 0 and window.cache_violations == 0
    return record


def _side_phases(
    server: macro_load.ServerChild,
    session: macro_load.Session,
    oracle: Oracle,
    seed: int,
    window: macro_load.Window,
    seconds: float,
) -> Dict[str, float]:
    """TCP measurements that need the live server but belong to one
    layer, run after the window so they cannot disturb it."""
    workload = server.workload
    extras: Dict[str, float] = {}
    if workload.shards:
        # The same closure, unsharded, on the same server: the verdict
        # on what routing through dist costs when there is no sleep to
        # overlap.
        serial = macro_workloads.WORKLOADS["warm_recursive"]
        serial_stream = request_stream(serial, oracle.db, seed)
        latencies = []
        for _ in range(10):
            started = time.perf_counter()
            session.send(next(serial_stream))
            latencies.append(time.perf_counter() - started)
        extras["dist.latency_ratio_vs_serial"] = statistics.median(
            window.latencies_ms()
        ) / (statistics.median(latencies) * 1000.0)
    if workload.name == "short_mix":
        # Two connections against one: above 1 only once _store_lock
        # stops serialising whole requests.
        windows: List[macro_load.Window] = []

        def client(offset: int) -> None:
            other = macro_load.Session(server)
            try:
                windows.append(
                    macro_load.run_window(
                        server,
                        other,
                        request_stream(workload, oracle.db, seed + offset),
                        min(5.0, seconds / 3.0),
                    )
                )
            finally:
                other.close()

        threads = [threading.Thread(target=client, args=(n,)) for n in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(windows) == 2:
            qps_two = sum(w.ok for w in windows) / max(w.seconds for w in windows)
            extras["client.qps_ratio_2_clients"] = qps_two / (
                window.ok / window.seconds
            )
    return extras


def _named(metrics: macro_replay.Metrics) -> dict:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(metrics.items())
    }


def _print_table(name: str, record: dict) -> None:
    print(f"== {name}: attempted={record['attempted']} failed={record['failed']} "
          f"wrong_answers={record['wrong_answers']} correct={record['correct']}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in record.get(section, {}).items():
            print(f"  {name:<18} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _write_results(run: dict, path: str, append: bool) -> None:
    runs = []
    if append and os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"runs": runs + [run]}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _record_trajectory(run: dict) -> None:
    line = {
        key: run[key]
        for key in ("commit", "date", "seed", "seconds", "python", "nproc")
    }
    line["workloads"] = {
        name: {
            metric: entry["value"]
            for metric, entry in record["end_to_end"].items()
        }
        for name, record in run["workloads"].items()
    }
    os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
    with open(TRAJECTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=92)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="untraced measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only; "
                             "default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="the self-test's setting: 2 s windows, one set-up, "
                             "a third of the replay")
    parser.add_argument("--out", default=os.path.join(macro_load.OUT_DIR, "result.json"))
    parser.add_argument("--append", action="store_true",
                        help="add this run to --out instead of replacing it")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end metrics to results/trajectory.jsonl")
    args = parser.parse_args(argv)
    seconds = 2.0 if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    run = {
        "commit": _commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    status = 0
    for name in names:
        try:
            record = measure(
                WORKLOADS[name],
                args.seed,
                seconds,
                end_to_end=args.trace != 1,
                traced=args.trace != 0,
                smoke=args.smoke,
            )
        except macro_load.ServerDied as error:
            sys.stderr.write(f"macro benchmark: {error}\n")
            return 1
        run["workloads"][name] = record
        _print_table(name, record)
        if not record["correct"]:
            sys.stderr.write(
                f"macro benchmark: {name}: {record['wrong_answers']} wrong "
                f"answer(s), {record['cache_violations']} response(s) with the "
                "wrong cache status\n"
            )
            status = 1
    _write_results(run, args.out, args.append)
    if args.record and status == 0:
        _record_trajectory(run)
    if args.workload:
        record = run["workloads"][args.workload]
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": record["per_layer" if args.trace == 1 else "end_to_end"],
                }
            )
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
