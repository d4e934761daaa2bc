"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run QUERY_FILE``     — optimize and execute a query against a
  generated database, printing the chosen plan and the answers;
* ``explain QUERY_FILE`` — optimize only: plan tree, candidate costs,
  per-node cost breakdown; ``--analyze`` also executes the plan and
  prints actual rows/cost/time next to each operator's estimates
  (see ``docs/observability.md``);
* ``trace QUERY_FILE``   — optimize and execute under the span tracer,
  writing the trace as JSON or Chrome ``chrome://tracing`` format;
* ``demo``               — the paper's Figure 3 walkthrough;
* ``serve``              — long-running TCP query service with a plan
  cache, admission control and metrics (see ``docs/service.md``);
  ``--metrics-port`` adds an HTTP ``/metrics`` Prometheus endpoint;
* ``history``            — ask a running server for its per-plan
  telemetry (estimated vs. measured, per operator);
* ``feedback``           — inspect the feedback loop on a running
  server, trigger a cost-model recalibration (``--recalibrate
  --apply``), or pin/revert plans after a flagged regression
  (see ``docs/observability.md``);
* ``top``                — live per-round fixpoint progress of the
  queries a running server is executing (delta sizes per shard, skew,
  exchange throughput, barrier waits).

The database is synthetic and parameterized from the command line
(``--db music`` or ``--db parts``); queries are written in the OQL-like
language of :mod:`repro.lang`.  ``run``, ``explain``, ``trace`` and
``demo`` plan and execute through the ``plan`` and ``execute`` stages
of one in-process :class:`~repro.service.QueryService`, so a printed
estimate is priced for the batch size and fan-out the plan runs at.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import List, Optional

from repro.core import STRATEGY_NAMES
from repro.cost import SimplifiedCostModel
from repro.errors import ReproError, ServiceError
from repro.plans import render_tree

__all__ = ["main", "build_parser"]

FIG3_TEXT = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1]
  from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer
  where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 3;
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cost-controlled optimization of object-oriented recursive "
            "queries (SIGMOD 1992 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, policy=True):
        p.add_argument(
            "--db",
            choices=["music", "parts"],
            default="music",
            help="which synthetic database to generate",
        )
        p.add_argument("--seed", type=int, default=1992)
        p.add_argument("--lineages", type=int, default=8)
        p.add_argument("--generations", type=int, default=8)
        p.add_argument(
            "--selectivity",
            type=float,
            default=0.15,
            help="fraction of works using the selective instrument",
        )
        p.add_argument("--buffer-pages", type=int, default=64)
        if policy:
            p.add_argument(
                "--policy",
                choices=["cost", "always", "never"],
                default="cost",
                help="push-through-recursion policy",
            )
        p.add_argument(
            "--strategy",
            choices=list(STRATEGY_NAMES),
            default="ii",
            help="transformPT search strategy (only with --policy cost): "
            "ii = the paper's iterative improvement, enum = memoized "
            "exact enumeration",
        )

    def add_query(p):
        p.add_argument("query_file")
        p.add_argument(
            "--shards",
            type=int,
            default=1,
            help="price and execute the plan at this shard fan-out, "
            "fixpoints running as distributed scatter-gather rounds "
            "(1 = single process)",
        )

    run_parser = sub.add_parser("run", help="optimize and execute a query")
    add_query(run_parser)
    run_parser.add_argument(
        "--limit", type=int, default=20, help="max rows to print"
    )
    run_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="bindings per batch exchanged between operators "
        "(default: REPRO_BATCH_SIZE or 256; 1 = tuple-at-a-time)",
    )
    add_common(run_parser)

    explain_parser = sub.add_parser("explain", help="optimize only")
    add_query(explain_parser)
    explain_parser.add_argument(
        "--simplified",
        action="store_true",
        help="also print the Section 4.6 symbolic cost table",
    )
    explain_parser.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan and print actual rows/cost/time "
        "next to each operator's estimates",
    )
    explain_parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the explain tree as JSON ('-' for stdout)",
    )
    add_common(explain_parser)

    trace_parser = sub.add_parser(
        "trace",
        help="optimize and execute under the span tracer, writing the "
        "trace to a file",
    )
    add_query(trace_parser)
    trace_parser.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="where to write the trace (default trace.json)",
    )
    trace_parser.add_argument(
        "--format",
        choices=["json", "chrome"],
        default="chrome",
        help="chrome (load in chrome://tracing / Perfetto) or plain json",
    )
    trace_parser.add_argument(
        "--no-execute",
        action="store_true",
        help="trace optimization only, skip plan execution",
    )
    add_common(trace_parser)

    demo_parser = sub.add_parser("demo", help="run the paper's Figure 3 demo")
    add_common(demo_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="serve queries over TCP with a plan cache and admission control",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=7654, help="0 picks an ephemeral port"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=8, help="protocol worker threads"
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=64, help="plan cache capacity"
    )
    serve_parser.add_argument(
        "--drift-ratio",
        type=float,
        default=0.5,
        help="re-optimize a cached plan when its re-costed estimate "
        "drifts beyond this fraction",
    )
    serve_parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="reject queries whose estimated cost exceeds this budget",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-query timeout in seconds",
    )
    serve_parser.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        help="execution slots before requests queue",
    )
    serve_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="bindings per batch the engine exchanges between operators "
        "(requests may override; default: REPRO_BATCH_SIZE or 256)",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="default shard fan-out per query (requests may override; "
        "a shards-N query reserves N execution slots)",
    )
    serve_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve HTTP GET /metrics (Prometheus text format) "
        "on this port; 0 picks an ephemeral port",
    )
    serve_parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=1000.0,
        help="log queries slower than this to the slow-query log "
        "(0 disables)",
    )
    serve_parser.add_argument(
        "--misestimate-ratio",
        type=float,
        default=10.0,
        help="log queries whose measured cost diverges from the "
        "estimate by more than this factor (0 disables)",
    )
    serve_parser.add_argument(
        "--no-feedback",
        action="store_true",
        help="disable the telemetry store / feedback loop entirely",
    )
    serve_parser.add_argument(
        "--history-file",
        default=None,
        metavar="JSONL",
        help="persist query telemetry to this JSONL file (reloaded on "
        "startup)",
    )
    serve_parser.add_argument(
        "--regression-ratio",
        type=float,
        default=1.5,
        help="flag a re-optimized plan whose median latency is worse "
        "than the prior plan's by more than this factor",
    )
    serve_parser.add_argument(
        "--profile-sample-every",
        type=int,
        default=0,
        metavar="N",
        help="profile every Nth query for per-operator actual costs "
        "(0 records per-operator cardinalities only)",
    )
    serve_parser.add_argument(
        "--auto-pin",
        action="store_true",
        help="automatically pin the prior plan when a regression is "
        "flagged",
    )
    serve_parser.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        help="structured log output format",
    )
    serve_parser.add_argument(
        "--bundle-dir",
        default=None,
        metavar="DIR",
        help="write flight-recorder bundles (repro diagnose) to this "
        "directory",
    )
    serve_parser.add_argument(
        "--history-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="size cap for the telemetry JSONL file; the oldest "
        "observations are compacted away on overflow",
    )
    add_common(serve_parser, policy=False)

    def add_client(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7654)
        p.add_argument(
            "--json", action="store_true", help="print the raw payload"
        )

    history_parser = sub.add_parser(
        "history",
        help="per-plan telemetry (estimated vs. measured) from a "
        "running server",
    )
    history_parser.add_argument(
        "--query",
        default=None,
        help="only queries whose canonical text contains this substring",
    )
    history_parser.add_argument("--limit", type=int, default=20)
    add_client(history_parser)

    feedback_parser = sub.add_parser(
        "feedback",
        help="inspect or drive the feedback loop on a running server",
    )
    feedback_parser.add_argument(
        "--recalibrate",
        action="store_true",
        help="fit fresh cost-model weights from accumulated telemetry",
    )
    feedback_parser.add_argument(
        "--apply",
        action="store_true",
        help="hot-swap the refit weights into the serving path "
        "(implies --recalibrate)",
    )
    feedback_parser.add_argument(
        "--pin",
        metavar="QUERY_FILE",
        default=None,
        help="pin this query's cached plan against re-optimization",
    )
    feedback_parser.add_argument(
        "--revert",
        action="store_true",
        help="with --pin: reinstall the plan that predates the last "
        "flagged regression",
    )
    feedback_parser.add_argument(
        "--unpin",
        metavar="QUERY_FILE",
        default=None,
        help="release a pinned plan",
    )
    add_client(feedback_parser)

    diagnose_parser = sub.add_parser(
        "diagnose",
        help="run a query at full observability detail on a running "
        "server and record a flight-recorder bundle",
    )
    diagnose_parser.add_argument("query_file")
    diagnose_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="execute the diagnostic run at this shard fan-out",
    )
    add_client(diagnose_parser)

    replay_parser = sub.add_parser(
        "replay",
        help="deterministically re-execute a flight-recorder bundle "
        "and verify plan + answer fingerprints",
    )
    replay_parser.add_argument("bundle")
    replay_parser.add_argument(
        "--json", action="store_true", help="print the raw match report"
    )

    top_parser = sub.add_parser(
        "top",
        help="live per-round fixpoint progress of queries on a running "
        "server (like top, but for recursive queries)",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between refreshes",
    )
    top_parser.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many refreshes (0 = until interrupted)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (same as --iterations 1)",
    )
    add_client(top_parser)
    return parser


def _database_config(args) -> dict:
    """The seeded generator recipe of the CLI's database arguments —
    the same dict flight-recorder bundles embed, so a bundle recorded
    by ``repro serve`` replays against a bit-identical store."""
    return {
        "db": args.db,
        "seed": args.seed,
        "lineages": args.lineages,
        "generations": args.generations,
        "selectivity": args.selectivity,
        "buffer_pages": args.buffer_pages,
    }


def _build_database(args):
    from repro.obs.recorder import database_from_config

    return database_from_config(_database_config(args))


def _service_config(args, **knobs):
    """The :class:`~repro.service.ServiceConfig` of the CLI's database,
    strategy, batch-size and shard flags plus ``knobs``; a knob out of
    range is a one-line error, not a traceback."""
    from repro.service import ServiceConfig

    try:
        return ServiceConfig(
            batch_size=getattr(args, "batch_size", None),
            shards=getattr(args, "shards", 1),
            strategy=args.strategy if args.strategy != "ii" else None,
            database_config=_database_config(args),
            **knobs,
        )
    except ValueError as error:
        raise ServiceError(str(error)) from None


def _service(args):
    """One in-process query service over the CLI's database: ``run``,
    ``explain`` and ``trace`` go through its ``plan`` and ``execute``
    stages, so their plans are priced by the service's model at the
    batch size and fan-out they execute at.  One slot per shard, so
    admission grants the width asked for."""
    from repro.service import QueryService

    shards = getattr(args, "shards", 1)
    config = _service_config(args, max_concurrent=shards, feedback_enabled=False)
    return QueryService(_build_database(args), config)


def _read_query(args) -> str:
    with open(args.query_file) as handle:
        return handle.read()


def _print_plan(title: str, tree: str, planned, out) -> None:
    """The chosen plan and the optimizer's decision (shared by ``run``
    and ``explain``)."""
    result = planned.result
    print(title, file=out)
    print(tree, file=out)
    print(file=out)
    print(f"estimated cost : {planned.estimated:.1f}", file=out)
    print(f"plans costed   : {planned.plans_costed}", file=out)
    print(f"pushed through recursion: {result.chose_push()}", file=out)
    if result.candidates:
        print("candidates:", file=out)
        for description, cost in result.candidates:
            print(f"  {cost:10.1f}  {description}", file=out)
    if result.strategy_stats:
        print(
            "enumeration: {subplans_memoized} subplans memoized, "
            "{memo_hits} memo hits, {pruned_branches} branches pruned, "
            "{candidates_costed} candidates costed".format(
                **result.strategy_stats
            ),
            file=out,
        )


def cmd_run(args, out) -> int:
    text = _read_query(args)
    with closing(_service(args)) as service:
        planned = service.plan(text, fresh=True, policy=args.policy)
        _print_plan("=== plan ===", render_tree(planned.plan), planned, out)
        run = service.execute(planned)
    execution, elapsed = run.execution, run.seconds
    print(file=out)
    print(f"=== {len(execution.rows)} rows ===", file=out)
    for row in execution.rows[: args.limit]:
        rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(row.items()))
        print(f"  {rendered}", file=out)
    if len(execution.rows) > args.limit:
        print(f"  ... {len(execution.rows) - args.limit} more", file=out)
    metrics = execution.metrics
    print(file=out)
    print(
        f"measured: {metrics.buffer.physical_reads} page reads, "
        f"{metrics.predicate_evals} predicate evals, "
        f"{metrics.index_lookups} index lookups, "
        f"{metrics.fix_iterations} fixpoint iterations",
        file=out,
    )
    rows_per_sec = len(execution.rows) / elapsed if elapsed > 0 else 0.0
    # Effective batch size: tuples an average emitted batch carried
    # (<= the configured size — selective filters shrink batches).
    effective = (
        metrics.total_tuples / metrics.batches if metrics.batches else 0.0
    )
    print(
        f"throughput: {rows_per_sec:,.0f} rows/sec "
        f"({elapsed * 1000:.1f} ms execute, "
        f"batch size {run.engine.batch_size}, effective {effective:.1f})",
        file=out,
    )
    if metrics.shards_used:
        per_shard = ", ".join(
            f"shard {shard}: {count} tuples"
            for shard, count in sorted(metrics.tuples_by_shard.items())
        )
        print(
            f"distributed: {metrics.shards_used} shards, "
            f"{metrics.exchange_rounds} exchange rounds, "
            f"{metrics.exchange_tuples} tuples / "
            f"{metrics.exchange_bytes} bytes exchanged ({per_shard})",
            file=out,
        )
    return 0


def cmd_explain(args, out) -> int:
    import json

    from repro.obs import PlanProfiler, build_explain, render_explain

    text = _read_query(args)
    with closing(_service(args)) as service:
        planned = service.plan(text, fresh=True, policy=args.policy)
        profiler = execution = None
        if args.analyze:
            profiler = PlanProfiler()
            execution = service.execute(planned, profiler=profiler).execution
    model = planned.cost_model
    tree = build_explain(planned.plan, model, profiler)
    title = "=== plan (EXPLAIN ANALYZE) ===" if args.analyze else "=== plan ==="
    _print_plan(title, render_explain(tree), planned, out)
    if execution is not None:
        metrics = execution.metrics
        print(file=out)
        print(
            f"actuals: {len(execution.rows)} rows, "
            f"{metrics.buffer.physical_reads} page reads, "
            f"{metrics.predicate_evals} predicate evals, "
            f"{metrics.fix_iterations} fixpoint iterations, "
            f"measured cost {metrics.measured_cost():.1f}",
            file=out,
        )
        if metrics.shards_used:
            print(
                f"distributed: {metrics.shards_used} shards, "
                f"{metrics.exchange_rounds} rounds, "
                f"{metrics.exchange_tuples} tuples / "
                f"{metrics.exchange_frames} frames exchanged, "
                f"observed skew {metrics.observed_skew():.2f}, "
                f"barrier wait {metrics.barrier_wait_seconds * 1000:.1f}ms",
                file=out,
            )
    report = model.report(planned.plan)
    print(file=out)
    print("=== cost breakdown (detailed model) ===", file=out)
    print(
        f"total {report.total:.2f} (io {report.io:.2f}, cpu {report.cpu:.2f})",
        file=out,
    )
    if args.simplified:
        print(file=out)
        print("=== simplified model (Section 4.6) ===", file=out)
        simplified = SimplifiedCostModel(service.physical)
        for row in simplified.table(planned.plan, symbolic=True):
            print(f"  {row.label:>4} [{row.section:>8}] {row.formula!r}", file=out)
    if args.json:
        payload = json.dumps(tree.to_dict(), indent=2)
        if args.json == "-":
            print(payload, file=out)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
            print(f"explain tree written to {args.json}", file=out)
    return 0


def cmd_trace(args, out) -> int:
    import json

    from repro.obs import PlanProfiler, Tracer

    text = _read_query(args)
    with closing(_service(args)) as service:
        tracer = Tracer(trace_id="cli" if service.config.shards > 1 else None)
        planned = service.plan(text, fresh=True, tracer=tracer, policy=args.policy)
        profiler = None
        if not args.no_execute:
            profiler = PlanProfiler()
            run = service.execute(planned, profiler=profiler, tracer=tracer)
            print(f"{len(run.execution.rows)} rows", file=out)
    if args.format == "chrome":
        payload = tracer.to_chrome_trace()
    else:
        payload = tracer.to_dict()
        if profiler is not None:
            payload["profile"] = profiler.to_dict()
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    spans = len(tracer.spans)
    events = sum(len(span.events) for span in tracer.spans)
    lanes = 1 + len(tracer.children)
    print(
        f"trace written to {args.output} "
        f"({spans} spans, {events} events, {lanes} lane(s), "
        f"format={args.format})",
        file=out,
    )
    return 0


def _serve_config(args):
    """The :class:`~repro.service.ServiceConfig` ``repro serve`` runs
    with; at default flags it is ``ServiceConfig()`` plus the database
    recipe."""
    return _service_config(
        args,
        cache_capacity=args.cache_size,
        drift_ratio=args.drift_ratio,
        cost_budget=args.budget,
        default_timeout=args.timeout,
        max_concurrent=args.max_concurrent,
        slow_query_seconds=(
            args.slow_query_ms / 1000.0 if args.slow_query_ms else None
        ),
        misestimate_ratio=args.misestimate_ratio or None,
        feedback_enabled=not args.no_feedback,
        history_path=args.history_file,
        regression_ratio=args.regression_ratio,
        profile_sample_every=args.profile_sample_every,
        auto_pin=args.auto_pin,
        bundle_dir=args.bundle_dir,
        history_max_bytes=args.history_max_bytes,
    )


def cmd_serve(args, out, server_box=None) -> int:
    """Start the query service and block until a client sends
    ``shutdown`` (or the process is interrupted).

    ``server_box`` is a test hook: when given a list, the started
    :class:`~repro.service.server.QueryServer` (and, with
    ``--metrics-port``, the :class:`~repro.service.server.MetricsServer`)
    is appended to it so the caller can reach the bound ports and stop
    the servers."""
    from repro.obs.log import configure_logging
    from repro.service import MetricsServer, QueryServer, QueryService

    config = _serve_config(args)
    configure_logging(args.log_format)
    service = QueryService(_build_database(args), config)
    server = QueryServer(
        service, host=args.host, port=args.port, max_workers=args.workers
    )
    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = MetricsServer(
            service, host=args.host, port=args.metrics_port
        )
        metrics_server.start()
    if server_box is not None:
        server_box.append(server)
        if metrics_server is not None:
            server_box.append(metrics_server)
    print(f"serving {args.db} database on {server.address}", file=out, flush=True)
    if metrics_server is not None:
        print(
            f"metrics on http://{metrics_server.address}/metrics",
            file=out,
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
        if metrics_server is not None:
            metrics_server.stop()
    print("server stopped", file=out, flush=True)
    return 0


def cmd_history(args, out) -> int:
    """``repro history``: pretty-print a running server's telemetry."""
    import json

    from repro.service import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        payload = client.history(args.query, args.limit)
    if args.json:
        print(json.dumps(payload, indent=2, default=str), file=out)
        return 0
    history = payload["history"]
    print(
        f"{history['plans']} plan(s) tracked, "
        f"{history['dropped_plans']} dropped",
        file=out,
    )
    for entry in history["queries"]:
        print(file=out)
        print(f"query [{entry['class']}]: {entry['query']}", file=out)
        for plan in entry["plans"]:
            print(
                f"  plan {plan['fingerprint']}  runs={plan['runs']}  "
                f"est_cost={plan['plan_cost']}  "
                f"median={plan['median_execute_ms']}ms  "
                f"cost_q={plan['cost_misestimate']}  "
                f"op_q={plan['mean_operator_misestimate']}",
                file=out,
            )
            for node_id, op in plan.get("operators", {}).items():
                print(
                    f"    {node_id:>4} {op['label']:<30} "
                    f"est_rows={op['est_rows']} "
                    f"rows_q={op['rows_q_error']} "
                    f"cost_q={op['cost_q_error']} "
                    f"samples={op['samples']}",
                    file=out,
                )
    events = history.get("events", [])
    if events:
        print(file=out)
        print(f"recent events ({len(events)}):", file=out)
        for event in events[-10:]:
            print(f"  {event.get('event', '?')}: {event}", file=out)
    return 0


def cmd_feedback(args, out) -> int:
    """``repro feedback``: inspect/drive the loop on a running server."""
    import json

    from repro.service import ServiceClient

    def read_file(path: str) -> str:
        with open(path) as handle:
            return handle.read()

    with ServiceClient(args.host, args.port) as client:
        if args.pin:
            result = client.pin(read_file(args.pin), revert=args.revert)
            if args.json:
                print(json.dumps(result, indent=2, default=str), file=out)
            else:
                verb = "reverted to and pinned" if result["reverted"] else "pinned"
                print(f"plan {result['fingerprint']} {verb}", file=out)
            return 0
        if args.unpin:
            result = client.unpin(read_file(args.unpin))
            if args.json:
                print(json.dumps(result, indent=2, default=str), file=out)
            else:
                print(
                    "plan unpinned" if result["found"] else "no cached plan",
                    file=out,
                )
            return 0
        if args.recalibrate or args.apply:
            result = client.recalibrate(apply=args.apply)
            if args.json:
                print(json.dumps(result, indent=2, default=str), file=out)
                return 0
            print(
                f"recalibrated from {result['samples']} observations "
                f"(residual {result['residual']})",
                file=out,
            )
            for event, weight in sorted(result["weights"].items()):
                print(f"  {event:<18} {weight}", file=out)
            if result["applied"]:
                print(
                    f"applied: {result['plans_invalidated']} cached plan(s) "
                    "invalidated for re-optimization",
                    file=out,
                )
            else:
                print("dry run (use --apply to hot-swap)", file=out)
            return 0
        stats = client.stats()
        feedback = stats.get("feedback")
        if feedback is None:
            print("feedback loop is disabled on this server", file=out)
            return 1
        if args.json:
            print(json.dumps(feedback, indent=2, default=str), file=out)
            return 0
        print(
            f"tracked plans      : {feedback['tracked_plans']}\n"
            f"recalibrations     : {feedback['recalibrations']}\n"
            f"regressions flagged: {feedback['regressions_flagged']}",
            file=out,
        )
        if feedback.get("last_calibration"):
            print(
                f"last calibration   : {feedback['last_calibration']}",
                file=out,
            )
        for change in feedback.get("pending_changes", []):
            print(
                f"watching plan change {change['old_fingerprint']} -> "
                f"{change['new_fingerprint']} ({change['reason']}) "
                f"for: {change['query']}",
                file=out,
            )
        for regression in feedback.get("regressions", []):
            print(
                f"REGRESSION {regression['old_fingerprint']} -> "
                f"{regression['new_fingerprint']} ({regression['reason']}) "
                f"for: {regression['query']}",
                file=out,
            )
    return 0


def cmd_top(args, out) -> int:
    """``repro top``: stream live fixpoint progress from a server."""
    import json
    import time

    from repro.service import ServiceClient

    iterations = 1 if args.once else max(0, args.iterations)
    rendered = 0
    with ServiceClient(args.host, args.port) as client:
        while True:
            payload = client.progress()
            rendered += 1
            if args.json:
                print(json.dumps(payload, indent=2, default=str), file=out)
            else:
                _render_top(payload, out)
            if iterations and rendered >= iterations:
                break
            time.sleep(max(0.05, args.interval))
    return 0


def _render_top(payload: dict, out) -> None:
    """One refresh of the ``repro top`` display."""
    admission = payload.get("admission", {})
    print(
        f"uptime {payload.get('uptime_seconds', 0):.0f}s  "
        f"slots {admission.get('slots_in_use', '?')}"
        f"/{admission.get('max_concurrent', '?')} in use  "
        f"admitted {admission.get('admitted', '?')}",
        file=out,
    )
    active = payload.get("active", [])
    if not active:
        print("  (no queries in flight)", file=out)
    for query in active + payload.get("recent", []):
        live = query in active
        state = "RUNNING" if live else "done"
        print(
            f"  [{query['request']}] {state:<7} shards={query['shards']} "
            f"rounds={query['rounds']} delta_total={query['total_delta']} "
            f"elapsed={query['elapsed_s']:.2f}s  {query['query'][:60]}",
            file=out,
        )
        last = query.get("last_round")
        if last is None:
            continue
        line = (
            f"    round {last['round']} [{last['fix']}]: "
            f"+{last['delta']} tuples in {last['ms']:.1f}ms"
        )
        if last.get("delta_by_shard"):
            per_shard = ", ".join(
                f"s{shard}:{count}"
                for shard, count in last["delta_by_shard"].items()
            )
            line += f" ({per_shard})"
        if last.get("skew") is not None:
            line += f" skew={last['skew']:.2f}"
        if last.get("exchange_tuples_per_s") is not None:
            line += f" exchange={last['exchange_tuples_per_s']:,.0f} tup/s"
        if last.get("barrier_wait_ms") is not None:
            line += f" barrier={last['barrier_wait_ms']:.1f}ms"
        print(line, file=out)


def cmd_diagnose(args, out) -> int:
    """``repro diagnose``: record a full-detail flight-recorder bundle
    for one query on a running server."""
    import json

    from repro.service import ServiceClient

    with open(args.query_file) as handle:
        text = handle.read()
    with ServiceClient(args.host, args.port) as client:
        result = client.diagnose(text, shards=args.shards)
    if args.json:
        print(json.dumps(result, indent=2, default=str), file=out)
        return 0
    print(f"request     : {result['request_id']}", file=out)
    print(f"query class : {result['query_class']}", file=out)
    print(f"rows        : {result['row_count']}", file=out)
    print(f"plan fp     : {result['fingerprint']}", file=out)
    print(f"answer fp   : {result['answer_fingerprint']}", file=out)
    bundle = result.get("bundle")
    if bundle:
        print(f"bundle      : {bundle}", file=out)
    else:
        print(
            "bundle      : kept in server memory (start the server "
            "with --bundle-dir to persist bundles)",
            file=out,
        )
    return 0


def cmd_replay(args, out) -> int:
    """``repro replay``: deterministically re-execute a bundle and
    verify its plan and answer fingerprints."""
    import json

    from repro.obs.recorder import load_bundle, replay_bundle

    report = replay_bundle(load_bundle(args.bundle))
    if args.json:
        print(json.dumps(report, indent=2, default=str), file=out)
        return 0 if report["matched"] else 1
    print(f"schema match: {report['schema_match']}", file=out)
    print(
        f"plan        : {report['fingerprint']} vs recorded "
        f"{report['expected_fingerprint']} -> "
        f"{'match' if report['plan_match'] else 'MISMATCH'}",
        file=out,
    )
    print(
        f"answer      : {report['answer_fingerprint']} vs recorded "
        f"{report['expected_answer_fingerprint']} -> "
        f"{'match' if report['answer_match'] else 'MISMATCH'}",
        file=out,
    )
    print(
        f"rows        : {report['row_count']} "
        f"(recorded {report['expected_row_count']})",
        file=out,
    )
    print("REPLAY OK" if report["matched"] else "REPLAY FAILED", file=out)
    return 0 if report["matched"] else 1


def cmd_demo(args, out) -> int:
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".oql", delete=False) as handle:
        handle.write(FIG3_TEXT)
        args.query_file = handle.name
    args.limit = 15
    print("running the paper's Figure 3 query:", file=out)
    print(FIG3_TEXT, file=out)
    return cmd_run(args, out)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, out)
        if args.command == "explain":
            return cmd_explain(args, out)
        if args.command == "trace":
            return cmd_trace(args, out)
        if args.command == "demo":
            return cmd_demo(args, out)
        if args.command == "serve":
            return cmd_serve(args, out)
        if args.command == "history":
            return cmd_history(args, out)
        if args.command == "feedback":
            return cmd_feedback(args, out)
        if args.command == "top":
            return cmd_top(args, out)
        if args.command == "diagnose":
            return cmd_diagnose(args, out)
        if args.command == "replay":
            return cmd_replay(args, out)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
