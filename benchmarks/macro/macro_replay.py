"""Traced in-process replay: where every millisecond of a request goes.

Layers are timed from OUTSIDE the program: spans are recorded here,
around calls into each layer's public entry points, never inside
``src/``.  Every replayed request is recorded twice under one request
id:

(a) ``handle`` -- ``QueryService.handle(request)``, the real serving
    path, as the root span; and
(b) ``staged`` -- the same request walked through the public entry
    points in pipeline order (``protocol.decode`` ->
    ``substitute_params`` -> ``canonical_text`` -> ``schema_fingerprint``
    -> ``stats_fingerprint`` -> ``PlanCache.lookup`` -> on a miss
    ``compile_text`` and ``Optimizer.optimize(tracer=)`` -> admission ->
    ``Engine.execute(profiler=)`` -> ``protocol.encode``).

``server.unattributed_ms`` is what (a) spends that (b) does not see:
settle/feedback/metrics bookkeeping and ``_jsonable``.  Counts
(``RuntimeMetrics``, ``BufferStats``, ``CacheStats``) are read at the
same boundaries.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from macro_load import Window, iqr, tail
from macro_workloads import (
    Oracle,
    Request,
    Workload,
    build_database,
    request_stream,
    row_set,
    warmup_count,
)
from repro.core import cost_controlled_optimizer
from repro.cost import DetailedCostModel
from repro.dist import ShardCluster, exchange
from repro.engine import Engine
from repro.lang.canonical import canonical_text
from repro.lang.compile import compile_text
from repro.obs.profile import PlanProfiler
from repro.obs.trace import Tracer
from repro.service import QueryService, ServiceConfig, protocol
from repro.service.admission import AdmissionController
from repro.service.plan_cache import (
    PlanCache,
    schema_fingerprint,
    stats_fingerprint,
)

Metrics = Dict[str, Tuple[float, str]]

#: PlanProfiler node kinds -> the ``engine.<x>_ms`` metric they feed.
_OPERATOR_METRIC = {
    "Fix": "engine.fix_self_ms",
    "EJ": "engine.ej_ms",
    "IJ": "engine.ij_ms",
    "PIJ": "engine.pij_ms",
    "Sel": "engine.sel_ms",
    "Proj": "engine.proj_ms",
    "EntityLeaf": "engine.scan_ms",
    "TempLeaf": "engine.scan_ms",
    "RecLeaf": "engine.scan_ms",
}

class SpanRecorder:
    """A small in-memory span store: name, start, end, parent, and the
    request id every span of one request shares."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[dict]:
        record = {
            "name": name,
            "request": request,
            "index": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(record["index"])
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, tracer: Tracer, under: dict, prefix: str) -> None:
        """Graft a finished ``repro.obs.trace.Tracer``'s spans in as
        descendants of ``under`` (the optimizer's own phase spans)."""
        base = len(self.spans)
        for span in tracer.spans:
            self.spans.append(
                {
                    "name": prefix + span.name,
                    "request": under["request"],
                    "index": base + span.index,
                    "parent": (
                        under["index"] if span.parent is None else base + span.parent
                    ),
                    "start": span.start,
                    "end": span.end if span.end is not None else span.start,
                }
            )

    def per_request_ms(self, name: str) -> Dict[str, float]:
        """Total milliseconds of the spans called ``name``, by request."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span["name"] == name:
                totals[span["request"]] = totals.get(span["request"], 0.0) + (
                    span["end"] - span["start"]
                ) * 1000.0
        return totals

    def self_ms(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        remaining = [(span["end"] - span["start"]) * 1000.0 for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                remaining[span["parent"]] -= (span["end"] - span["start"]) * 1000.0
        return remaining

    def chrome_trace(self) -> dict:
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {
                    "request": span["request"],
                    "span": span["index"],
                    "parent": span["parent"],
                    "self_ms": round(self_ms, 6),
                },
            }
            for span, self_ms in zip(self.spans, self.self_ms())
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Replay:
    """One workload's traced replay on an identically seeded database."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.db = build_database(workload, seed)
        self.physical = self.db.physical
        self.recorder = SpanRecorder()
        self.service = QueryService(self.db, ServiceConfig())
        self.service_no_feedback = QueryService(
            self.db, ServiceConfig(feedback_enabled=False)
        )
        # The staged pipeline's own cache and admission controller,
        # configured like the service's (ServiceConfig defaults).
        self.cache = PlanCache(
            capacity=self.service.config.cache_capacity,
            drift_ratio=self.service.config.drift_ratio,
        )
        self.admission = AdmissionController()
        self.cluster = (
            ShardCluster(self.physical, workload.shards)
            if workload.shards
            else None
        )
        self._sessions = {
            id(service): self._open_session(service)
            for service in (self.service, self.service_no_feedback)
        }
        # Per staged request: what the engine and the optimizer reported.
        self.executions: Dict[str, dict] = {}
        self.optimizations: List[dict] = []

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
        self.service.close()
        self.service_no_feedback.close()

    # -- the two recorded paths ----------------------------------------------

    def _open_session(self, service: QueryService) -> Tuple[str, Dict[str, str]]:
        session = service.handle({"op": "hello"})["session"]
        statements = {
            template.key: service.handle(
                {"op": "prepare", "session": session, "text": template.text}
            )["statement"]
            for template in self.workload.templates
            if template.prepared
        }
        return session, statements

    def _payload(self, service: QueryService, request: Request) -> dict:
        session, statements = self._sessions[id(service)]
        return {**request.payload(statements), "session": session}

    def handle(
        self, service: QueryService, request: Request, span: str, rid: str
    ) -> Tuple[dict, float]:
        """The real serving path under a span called ``span``; returns
        (response, milliseconds)."""
        payload = self._payload(service, request)
        with self.recorder.span(span, rid) as record:
            response = service.handle(payload)
        if not response.get("ok"):
            raise RuntimeError(
                f"{self.workload.name}: replayed request failed: {response}"
            )
        return response, (record["end"] - record["start"]) * 1000.0

    def staged(self, request: Request, rid: str, response: dict) -> None:
        """The same request through the public entry points, one span
        per stage; ``response`` (what ``handle`` returned for it) is the
        payload the encode stage serialises.  Nothing but stages runs
        inside the root span: bookkeeping waits until it has closed."""
        span = self.recorder.span
        line = protocol.encode(self._payload(self.service, request))
        optimized = executed = None
        with span("staged", rid):
            with span("protocol.decode", rid):
                protocol.decode(line)
            if request.template is None:
                with span("stats.refresh", rid):
                    self.physical.refresh_statistics()
            else:
                optimized, executed = self._staged_query(request, rid)
            with span("protocol.encode", rid):
                encoded = protocol.encode(response)
        if optimized is not None:
            self._note_optimization(rid, *optimized)
        if executed is not None:
            self._note_execution(rid, request, *executed)
        self.executions.setdefault(rid, {}).update(
            request_bytes=len(line), response_bytes=len(encoded)
        )

    def _staged_query(self, request: Request, rid: str) -> Tuple[Optional[tuple], tuple]:
        """Returns ``(result, tracer, optimize span)`` when the plan
        cache missed (else None) and ``(execution, profiler)``."""
        span = self.recorder.span
        physical = self.physical
        optimized = None
        with span("protocol.substitute", rid):
            text = protocol.substitute_params(request.template.text, request.params)
        with span("lang.canonical", rid):
            canonical = canonical_text(text)
        with span("plan_cache.schema_fingerprint", rid):
            key = (canonical, schema_fingerprint(physical))
        with span("plan_cache.stats_fingerprint", rid):
            # Pays the O(database) re-collection whenever the previous
            # request's Fix temp invalidated the statistics.
            stats_fingerprint(physical)
        with span("plan_cache.lookup", rid):
            lookup = self.cache.lookup(key, physical)
        if lookup.entry is not None:
            plan, estimated = lookup.entry.plan, lookup.entry.cost
        else:
            with span("lang.compile", rid):
                graph = compile_text(text, self.db.catalog)
            tracer = Tracer()
            with span("core.optimize", rid) as optimize_span:
                result = cost_controlled_optimizer(physical).optimize(
                    graph, tracer=tracer
                )
            plan, estimated = result.plan, result.cost
            with span("plan_cache.store", rid):
                self.cache.store(key, plan, estimated, physical)
            optimized = (result, tracer, optimize_span)
        profiler = PlanProfiler()
        shards = self.workload.shards or 1
        with ExitStack() as slot:
            with span("admission.wait", rid):
                self.admission.admit(estimated)
                slot.enter_context(self.admission.slot(weight=shards))
            with span("engine.execute", rid):
                execution = Engine(
                    physical, shards=shards, cluster=self.cluster
                ).execute(plan, profiler=profiler)
        return optimized, (execution, profiler)

    def _note_optimization(self, rid, result, tracer: Tracer, optimize_span) -> None:
        self.recorder.adopt(tracer, optimize_span, "core.")
        model = DetailedCostModel(self.physical)
        started = time.perf_counter()
        model.cost(result.plan)
        self.optimizations.append(
            {
                "request": rid,
                "plans_costed": result.plans_costed,
                "push_candidates": len(tracer.events_named("transformPT.candidate")),
                "chose_push": result.chose_push(),
                "cost_call_us": (time.perf_counter() - started) * 1e6,
            }
        )

    def _note_execution(
        self, rid: str, request: Request, execution, profiler: PlanProfiler
    ) -> None:
        rows = row_set(execution.rows)
        if rows != self._expected(request):
            raise RuntimeError(
                f"{self.workload.name}: staged replay of {request.text!r} "
                "returned a wrong answer"
            )
        self.executions[rid] = {
            "metrics": execution.metrics,
            "rows": len(execution.rows),
            "distinct_rows": len(rows),
            "operators": _operator_ms(profiler),
            "fix_round_max_ms": max(
                (
                    entry.seconds * 1000.0
                    for profile in profiler.profiles.values()
                    for entry in profile.fix_iterations
                ),
                default=0.0,
            ),
        }

    # -- orchestration -------------------------------------------------------

    def run(self, oracle: Oracle, count: int) -> None:
        """Warm both paths, then replay ``count`` stream requests."""
        self._expected = oracle.expected
        stream = request_stream(self.workload, self.db, self.seed)
        # Every distinct statement once is enough here: there is no
        # lazy server set-up to finish, only plan caches to fill.
        warmup = warmup_count(self.workload, self.db, extra=0)
        for index, request in enumerate(itertools.islice(stream, warmup)):
            rid = f"warmup-{index}"
            response, _ms = self.handle(self.service, request, "warmup.handle", rid)
            self.handle(self.service_no_feedback, request, "warmup.handle", rid)
            self.staged(request, rid, response)
        self.cache_before = self.cache.stats.snapshot()
        self.requests = list(itertools.islice(stream, count))
        # Feedback on/off is a paired difference on the first third of
        # the requests: the two services run back to back on the same
        # request, so drift between passes cancels.
        paired = max(3, count // 3)
        self.feedback_delta_ms: List[float] = []
        for index, request in enumerate(self.requests):
            rid = f"r{index}"
            response, on_ms = self.handle(self.service, request, "handle", rid)
            if index < paired and request.template is not None:
                _response, off_ms = self.handle(
                    self.service_no_feedback, request, "handle.no_feedback", rid
                )
                self.feedback_delta_ms.append(on_ms - off_ms)
            self.staged(request, rid, response)
            self.executions[rid]["response"] = response
        self.cache_after = self.cache.stats.snapshot()

    def statistics_recollections(self, count: int) -> float:
        """Fraction of requests after which ``physical.statistics`` is
        a new object -- an untimed pass of its own, because looking
        forces the re-collection the next request would have paid."""
        queries = [r for r in self.requests if r.template is not None][:count]
        recollected = 0
        for request in queries:
            before = self.physical.statistics
            self.handle(self.service, request, "stats_pass.handle", "stats-pass")
            recollected += self.physical.statistics is not before
        return recollected / len(queries)

    def refresh_ms(self, repeats: int = 5) -> float:
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            self.physical.refresh_statistics()
            samples.append((time.perf_counter() - started) * 1000.0)
        return statistics.median(samples)

    def exchange_codec_us(self) -> Tuple[float, float]:
        """encode/decode microseconds per tuple of the exchange wire
        format, on the largest delta one sharded execution scattered
        (recorded by wrapping the public ``exchange.encode_tuples``)."""
        if self.cluster is None:
            return 0.0, 0.0
        recorded: List[tuple] = []
        original = exchange.encode_tuples

        def recording(op, fix_name, round_index, shard, tuples, *args, **kwargs):
            recorded.append((len(tuples), list(tuples), kwargs.get("layout", "row")))
            return original(op, fix_name, round_index, shard, tuples, *args, **kwargs)

        exchange.encode_tuples = recording
        try:
            plan = self.cache.entry(self.cache.keys()[0]).plan
            Engine(
                self.physical, shards=self.workload.shards, cluster=self.cluster
            ).execute(plan)
        finally:
            exchange.encode_tuples = original
        size, delta, layout = max(recorded, key=lambda item: item[0])
        if size == 0:
            return 0.0, 0.0
        repeats = 20
        started = time.perf_counter()
        for _ in range(repeats):
            frames = original("delta", "Influencer", 1, 0, delta, layout=layout)
        encoded = time.perf_counter()
        for _ in range(repeats):
            exchange.decode_tuples(frames)
        decoded = time.perf_counter()
        per_tuple = 1e6 / (repeats * size)
        return (encoded - started) * per_tuple, (decoded - encoded) * per_tuple


def _operator_ms(profiler: PlanProfiler) -> Dict[str, float]:
    """Exclusive milliseconds by operator kind."""
    totals: Dict[str, float] = {}
    for node_id, profile in profiler.profiles.items():
        metric = _OPERATOR_METRIC.get(profile.kind)
        if metric is not None:
            totals[metric] = totals.get(metric, 0.0) + (
                profiler.exclusive_seconds(node_id) * 1000.0
            )
    return totals


def layer_metrics(
    replay: Replay, window: Window, extras: Dict[str, float]
) -> Metrics:
    """Every per-layer metric, by name, from the untraced window (client
    and server response fields), the traced replay, and ``extras`` (the
    TCP side phases only the caller can run)."""
    recorder = replay.recorder
    main = [f"r{index}" for index in range(len(replay.requests))]
    query_ids = [
        rid
        for rid, request in zip(main, replay.requests)
        if request.template is not None
    ]

    def stage_ms(name: str, over: Iterable[str] = query_ids) -> float:
        """Median over requests, a request that skipped the stage
        counting as zero (a plan-cache hit never compiles)."""
        totals = recorder.per_request_ms(name)
        return _median(totals.get(rid, 0.0) for rid in over)

    def when_run_ms(name: str) -> float:
        """Median over only the requests that ran the stage (warm-up
        included): the cost of a miss, wherever misses happened."""
        return _median(recorder.per_request_ms(name).values())

    def execution(getter: Callable[[dict], float]) -> float:
        return _median(getter(replay.executions[rid]) for rid in query_ids)

    def total(getter: Callable[[dict], float]) -> float:
        return sum(getter(replay.executions[rid]) for rid in query_ids)

    # Ratios over the whole replay, not medians of per-request ratios:
    # a selective text may legitimately return no rows at all.
    distinct_rows = max(1, total(lambda e: e["distinct_rows"]))
    latencies = window.latencies_ms()
    tcp_p50 = _median(latencies)
    tail_percentile, tail_ms = tail(latencies)
    handle_ms = stage_ms("handle", main)
    handled = recorder.per_request_ms("handle")
    staged_total = recorder.per_request_ms("staged")
    untraced_ms = _median(
        sample.response["optimize_ms"] + sample.response["execute_ms"]
        for sample in window.samples
        if "execute_ms" in sample.response
    )
    server_execute_ms = _median(window.response_field_ms("execute_ms"))
    engine_execute_ms = stage_ms("engine.execute")
    io_latency_ms = replay.workload.io_latency * 1000.0
    cache_delta = {
        name: replay.cache_after[name] - replay.cache_before[name]
        for name in ("revalidations", "invalidations")
    }
    hits = sum(
        sample.response.get("cache") in ("hit", "revalidated")
        for sample in window.samples
    )
    cache_lookups = sum("cache" in sample.response for sample in window.samples)
    optimizations = replay.optimizations
    encode_us, decode_us = replay.exchange_codec_us()

    metrics: Metrics = {
        "client.samples": (len(latencies), "count"),
        "client.failed_fraction": (window.failed / window.attempted, "ratio"),
        "client.wrong_answers": (window.wrong_answers, "count"),
        "client.latency_tail_ms": (tail_ms, "ms"),
        "client.tail_percentile": (tail_percentile, "%"),
        "client.latency_iqr_ms": (iqr(latencies), "ms"),
        "client.p50_pushed_ms": (_median(window.latencies_ms("pushed")), "ms"),
        "client.p50_point_ms": (_median(window.latencies_ms("point")), "ms"),
        "client.qps_ratio_2_clients": (
            extras.get("client.qps_ratio_2_clients", 0.0), "ratio"
        ),
        "protocol.decode_us": (stage_ms("protocol.decode", main) * 1000.0, "us"),
        "protocol.encode_us": (stage_ms("protocol.encode", main) * 1000.0, "us"),
        "protocol.request_bytes": (
            _median(replay.executions[rid]["request_bytes"] for rid in main), "B"
        ),
        "protocol.response_bytes": (
            _median(replay.executions[rid]["response_bytes"] for rid in main), "B"
        ),
        "server.optimize_ms": (
            _median(window.response_field_ms("optimize_ms")), "ms"
        ),
        "server.execute_ms": (server_execute_ms, "ms"),
        "server.wire_ms": (tcp_p50 - handle_ms, "ms"),
        "server.unattributed_ms": (
            _median(handled[rid] - staged_total[rid] for rid in main), "ms"
        ),
        "server.handle_ms": (handle_ms, "ms"),
        "lang.canonical_us": (stage_ms("lang.canonical") * 1000.0, "us"),
        "lang.compile_ms": (when_run_ms("lang.compile"), "ms"),
        "plan_cache.key_us": (
            (
                stage_ms("lang.canonical")
                + stage_ms("plan_cache.schema_fingerprint")
            )
            * 1000.0,
            "us",
        ),
        "plan_cache.schema_fingerprint_us": (
            stage_ms("plan_cache.schema_fingerprint") * 1000.0, "us"
        ),
        "plan_cache.stats_fingerprint_ms": (
            stage_ms("plan_cache.stats_fingerprint"), "ms"
        ),
        "plan_cache.lookup_ms": (stage_ms("plan_cache.lookup"), "ms"),
        "plan_cache.hit_ratio": (
            hits / cache_lookups if cache_lookups else 0.0, "ratio"
        ),
        "plan_cache.revalidations": (cache_delta["revalidations"], "count"),
        "plan_cache.invalidations": (cache_delta["invalidations"], "count"),
        "stats.refresh_ms": (replay.refresh_ms(), "ms"),
        "stats.recollections_per_query": (
            replay.statistics_recollections(max(3, len(main) // 10)), "ratio"
        ),
        "core.optimize_ms": (when_run_ms("core.optimize"), "ms"),
        "core.rewrite_ms": (when_run_ms("core.rewrite"), "ms"),
        "core.generatePT_ms": (when_run_ms("core.generatePT"), "ms"),
        "core.transformPT_ms": (when_run_ms("core.transformPT"), "ms"),
        "core.plans_costed": (
            _median(entry["plans_costed"] for entry in optimizations), "count"
        ),
        "core.push_candidates": (
            _median(entry["push_candidates"] for entry in optimizations), "count"
        ),
        "core.chose_push_fraction": (
            sum(entry["chose_push"] for entry in optimizations)
            / len(optimizations),
            "ratio",
        ),
        "cost.cost_call_us": (
            _median(entry["cost_call_us"] for entry in optimizations), "us"
        ),
        "cost.estimate_q_error": (
            _median(
                max(
                    sample.response["estimated_cost"] / sample.response["measured_cost"],
                    sample.response["measured_cost"] / sample.response["estimated_cost"],
                )
                for sample in window.samples
                if sample.response.get("measured_cost")
                and sample.response.get("estimated_cost")
            ),
            "ratio",
        ),
        "admission.wait_us": (stage_ms("admission.wait") * 1000.0, "us"),
        "admission.rejected": (
            replay.admission.rejected_budget + replay.admission.rejected_queue,
            "count",
        ),
        "engine.execute_ms": (engine_execute_ms, "ms"),
        "engine.fix_rounds": (
            execution(lambda e: e["metrics"].fix_iterations), "count"
        ),
        "engine.fix_round_max_ms": (
            execution(lambda e: e["fix_round_max_ms"]), "ms"
        ),
        "engine.tuples_total": (
            execution(lambda e: e["metrics"].total_tuples), "count"
        ),
        "engine.predicate_evals": (
            execution(lambda e: e["metrics"].predicate_evals), "count"
        ),
        "engine.batches": (execution(lambda e: e["metrics"].batches), "count"),
        "engine.tuples_per_distinct_row": (
            total(lambda e: e["metrics"].total_tuples) / distinct_rows, "ratio"
        ),
        "engine.duplicate_row_ratio": (
            total(lambda e: e["rows"]) / distinct_rows, "ratio"
        ),
        "engine.profiler_overhead_ratio": (
            engine_execute_ms / server_execute_ms if server_execute_ms else 0.0,
            "ratio",
        ),
        "buffer.logical_reads": (
            execution(lambda e: e["metrics"].buffer.logical_reads), "count"
        ),
        "buffer.physical_reads": (
            execution(lambda e: e["metrics"].buffer.physical_reads), "count"
        ),
        "buffer.hit_ratio": (
            execution(lambda e: e["metrics"].buffer.hit_ratio), "ratio"
        ),
        "buffer.miss_sleep_ms": (
            execution(lambda e: e["metrics"].buffer.physical_reads) * io_latency_ms,
            "ms",
        ),
        "dist.exchange_rounds": (
            execution(lambda e: e["metrics"].exchange_rounds), "count"
        ),
        "dist.exchange_tuples": (
            execution(lambda e: e["metrics"].exchange_tuples), "count"
        ),
        "dist.exchange_bytes": (
            execution(lambda e: e["metrics"].exchange_bytes), "B"
        ),
        "dist.exchange_frames": (
            execution(lambda e: e["metrics"].exchange_frames), "count"
        ),
        "dist.barrier_wait_ms": (
            execution(lambda e: e["metrics"].barrier_wait_seconds * 1000.0), "ms"
        ),
        "dist.shard_busy_ms": (
            execution(lambda e: e["metrics"].shard_busy_seconds * 1000.0), "ms"
        ),
        "dist.observed_skew": (
            execution(lambda e: e["metrics"].observed_skew())
            if replay.cluster is not None
            else 0.0,
            "ratio",
        ),
        "dist.encode_us_per_tuple": (encode_us, "us"),
        "dist.decode_us_per_tuple": (decode_us, "us"),
        "dist.latency_ratio_vs_serial": (
            extras.get("dist.latency_ratio_vs_serial", 0.0), "ratio"
        ),
        "obs.feedback_overhead_ms": (_median(replay.feedback_delta_ms), "ms"),
        "trace.overhead_ratio": (
            stage_ms("staged", main) / untraced_ms if untraced_ms else 0.0, "ratio"
        ),
    }
    for metric in set(_OPERATOR_METRIC.values()):
        metrics[metric] = (
            execution(lambda e, metric=metric: e["operators"].get(metric, 0.0)),
            "ms",
        )
    return metrics
