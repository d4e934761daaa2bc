"""The query service: an in-process core plus a socket front-end.

:class:`QueryService` wraps the existing :class:`~repro.core.Optimizer`
/ :class:`~repro.engine.Engine` stack into a long-running server loop
of three stages — :meth:`~QueryService.plan` (plan-cache probe with
cost-drift invalidation, optimize on miss), :meth:`~QueryService.execute`
(admission control, execute under a cancellation token) and ``_settle``
(metrics, observability, feedback) — which ``explain``, ``trace``,
``diagnose`` and the ``repro run``/``explain``/``trace`` commands share.
It is fully usable in-process (tests, benchmarks, the CLI,
embedding); :class:`QueryServer` exposes it over TCP with the line-JSON
protocol of :mod:`repro.service.protocol`, one thread per request via a
``ThreadPoolExecutor``.

Concurrency model: the simulated object store (pages, buffer pool,
temp registration) is a single shared mutable structure, so plan
execution and optimization serialize on one store lock — like a
single-writer storage engine behind a concurrent front door.  Parsing,
canonicalization, protocol handling and queueing all overlap; the
admission controller bounds how many requests may wait on the store at
once.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.optimizer import OptimizationResult, Optimizer, OptimizerConfig
from repro.core.strategies import STRATEGY_NAMES
from repro.cost.model import DetailedCostModel
from repro.cost.params import CostParameters
from repro.cost.recost import recost_plan
from repro.engine.batch import default_batch_size
from repro.engine.cancel import CancellationToken
from repro.engine.context import validate_choice, validate_knob
from repro.engine.evaluator import Engine, ExecutionResult
from repro.errors import (
    AdmissionError,
    ExecutionCancelled,
    ExecutionTimeout,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.lang.compile import compile_program
from repro.lang.parser import parse
from repro.obs.explain import build_explain, render_explain
from repro.obs.feedback import (
    FeedbackConfig,
    FeedbackManager,
    build_observation,
)
from repro.obs.history import query_class
from repro.obs.log import get_logger
from repro.obs.profile import FixIterationProfile, PlanProfiler
from repro.obs.progress import ProgressTracker
from repro.obs.recorder import FlightRecorder, build_bundle
from repro.obs.trace import NULL_TRACER, Tracer
from repro.physical.storage import Oid, StoredRecord
from repro.plans.canonical import canonical_fingerprint
from repro.plans.nodes import PlanNode
from repro.service import protocol
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.metrics import QueryRecord, ServiceMetrics
from repro.service.plan_cache import RECALIBRATION, CacheKey, CachedPlan, PlanCache
from repro.service.protocol import placeholder_names, substitute_params

__all__ = ["ServiceConfig", "QueryService", "QueryServer", "MetricsServer"]

#: Structured service log (JSON or key=value depending on
#: ``repro.obs.log.configure_logging``); records carry request ids and
#: query classes as fields, not formatted into the message.
_LOG = get_logger("service")

#: Span cap for the ``diagnose`` tracer: it buffers spans in memory
#: until the query completes and the bundle is written, so the buffer
#: must be bounded or a runaway fixpoint would fill memory.
TRACE_MAX_SPANS = 4096


@dataclass
class ServiceConfig:
    """All serving knobs in one place."""

    cache_capacity: int = 64
    #: Tolerated relative drift of a cached plan's estimate under fresh
    #: statistics before the plan is re-optimized.
    drift_ratio: float = 0.5
    cost_budget: Optional[float] = None
    max_concurrent: int = 4
    queue_timeout: float = 5.0
    default_timeout: Optional[float] = None
    max_timeout: Optional[float] = None
    max_fix_iterations: int = 256
    #: Default engine batch size for requests that do not override it
    #: (the per-request ``batch_size`` field wins); ``None`` defers to
    #: the engine default (``REPRO_BATCH_SIZE`` or 256).
    batch_size: Optional[int] = None
    #: Default shard fan-out for requests that do not override it (the
    #: per-request ``shards`` field wins); at 1 no shard cluster is
    #: built and execution has exact single-process semantics.  A
    #: shards-N request reserves N admission slots (capped by
    #: ``max_concurrent``) — a distributed query occupies N workers'
    #: worth of machine.
    shards: int = 1
    #: A query slower than this (seconds) enters the slow-query log;
    #: ``None`` disables latency-based logging.
    slow_query_seconds: Optional[float] = 1.0
    #: A query whose measured cost exceeds its estimate by more than
    #: this factor (either direction) enters the slow-query log —
    #: cost-model misestimates are an observability signal even when
    #: the query itself was fast.  ``None`` disables the check.
    misestimate_ratio: Optional[float] = 10.0
    #: The feedback loop (telemetry store + online recalibration +
    #: plan-regression detection).  Recording is cheap — per-plan
    #: estimates are computed once per plan, per-query appends reuse
    #: counters the engine already keeps — but it can be switched off
    #: entirely for a pure-throughput deployment.
    feedback_enabled: bool = True
    #: Per-plan telemetry ring size.
    history_window: int = 128
    #: JSONL file telemetry persists to (and is reloaded from on
    #: startup); ``None`` keeps history in memory only.
    history_path: Optional[str] = None
    #: A re-optimized plan whose median measured latency is worse than
    #: the old plan's by more than this factor is flagged.
    regression_ratio: float = 1.5
    #: Executions of the new plan required before the verdict.
    regression_min_runs: int = 3
    #: Observations required before ``recalibrate`` will fit.
    recalibrate_min_samples: int = 8
    #: Profile every Nth served query for per-operator actual costs
    #: (0 records per-operator cardinalities only): the one rule that
    #: decides how much observability detail a served query gets.
    profile_sample_every: int = 0
    #: Automatically pin the prior plan when a regression is flagged.
    auto_pin: bool = False
    #: Directory flight-recorder bundles are written to; ``None``
    #: keeps the most recent bundles in memory for the ``diagnose``
    #: op only.
    bundle_dir: Optional[str] = None
    #: Size cap in bytes for the telemetry JSONL sink; on overflow the
    #: file is compacted oldest-first.  ``None`` leaves it unbounded.
    history_max_bytes: Optional[int] = None
    #: The seeded generator recipe the serving database was built from
    #: (``{"db", "seed", "lineages", "generations", ...}``).  Embedded
    #: in flight-recorder bundles so ``repro replay`` can rebuild a
    #: bit-identical store; ``None`` produces bundles that replay only
    #: against a caller-supplied database.
    database_config: Optional[dict] = None
    #: Default transformPT search strategy
    #: (:data:`repro.core.strategies.STRATEGY_NAMES`; the per-request
    #: ``strategy`` field wins).  ``None`` keeps the paper's II
    #: reoptimization.
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        validate_knob("batch_size", self.batch_size)
        validate_knob("shards", self.shards)
        validate_choice("strategy", self.strategy, STRATEGY_NAMES)


@dataclass
class Session:
    """One client session: a namespace of prepared statements."""

    id: str
    statements: Dict[str, str] = field(default_factory=dict)
    _counter: "itertools.count[int]" = field(
        default_factory=lambda: itertools.count(1)
    )

    def prepare(self, text: str) -> str:
        statement_id = f"s{next(self._counter)}"
        self.statements[statement_id] = text
        return statement_id


@dataclass
class _Planned:
    """A request's plan as :meth:`QueryService.plan` leaves it;
    ``status`` (the cache's verdict) is ``None`` for a fresh plan,
    ``result`` and ``cost_model`` are set only when this request ran
    the optimizer."""

    text: str
    key: CacheKey
    strategy: str
    status: Optional[str] = None
    plan: Optional[PlanNode] = None
    estimated: float = 0.0
    plans_costed: int = 0
    fingerprint: Optional[str] = None
    optimize_seconds: float = 0.0
    result: Optional[OptimizationResult] = None
    cost_model: Optional[DetailedCostModel] = None


@dataclass
class _Executed:
    """One run as :meth:`QueryService.execute` leaves it; the engine's
    ``request_id``, ``batch_size`` and ``shards`` (the granted width)
    describe it."""

    execution: ExecutionResult
    engine: Engine
    seconds: float
    profiler: Optional[PlanProfiler]
    tracer: Optional[Tracer]


class QueryService:
    """The serving core: cache, admission, metrics, sessions."""

    def __init__(self, database, config: Optional[ServiceConfig] = None) -> None:
        self.database = database
        self.physical = database.physical
        self.config = config or ServiceConfig()
        self.cache = PlanCache(
            capacity=self.config.cache_capacity,
            drift_ratio=self.config.drift_ratio,
        )
        self.admission = AdmissionController(
            AdmissionPolicy(
                cost_budget=self.config.cost_budget,
                max_concurrent=self.config.max_concurrent,
                queue_timeout=self.config.queue_timeout,
                default_timeout=self.config.default_timeout,
                max_timeout=self.config.max_timeout,
            )
        )
        self.metrics = ServiceMetrics()
        self.feedback: Optional[FeedbackManager] = None
        if self.config.feedback_enabled:
            self.feedback = FeedbackManager(
                FeedbackConfig(
                    history_window=self.config.history_window,
                    persist_path=self.config.history_path,
                    regression_ratio=self.config.regression_ratio,
                    regression_min_runs=self.config.regression_min_runs,
                    recalibrate_min_samples=self.config.recalibrate_min_samples,
                    profile_sample_every=self.config.profile_sample_every,
                    auto_pin=self.config.auto_pin,
                    history_max_bytes=self.config.history_max_bytes,
                )
            )
        #: Flight recorder: always constructed (memory-only without a
        #: bundle directory) so the ``diagnose`` op works everywhere.
        self.recorder = FlightRecorder(directory=self.config.bundle_dir)
        #: Built-in unit costs at the service's batch size and fan-out
        #: (pool capacity and page size come from the store).
        self._base_params = CostParameters(
            batch_size=self.config.batch_size or default_batch_size(),
            shards=self.config.shards,
        )
        #: Whether a serial model at the base parameters is the
        #: optimizer's default one, so ``_model`` may leave it to be
        #: built lazily (decided once: a cache hit then builds none).
        self._default_params = self._base_params == CostParameters()
        #: Recalibrated unit costs, hot-swapped by ``recalibrate(apply)``;
        #: ``None`` means ``_base_params``.
        self._cost_params: Optional[CostParameters] = None
        #: Entries evicted by a recalibration recost pass, awaiting
        #: their replacement plan (consumed on the next cache miss so
        #: the regression detector can compare old vs. new).
        self._replanned: Dict[CacheKey, CachedPlan] = {}
        self._sessions: Dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        #: Serializes every touch of the shared store/schema/statistics.
        self._store_lock = threading.RLock()
        #: Shard clusters by width, built lazily on the first request
        #: that asks for that fan-out (replicas are zero-copy, so a
        #: cluster is cheap; per-request state lives in shard sessions,
        #: so one cluster serves concurrent queries).
        self._clusters: Dict[int, object] = {}
        #: Request ids: a random per-service prefix plus a counter is
        #: as unique as a uuid per request but far cheaper to mint.
        self._request_prefix = uuid.uuid4().hex[:8]
        self._request_counter = itertools.count(1)
        #: Live fixpoint introspection: every served query registers a
        #: progress handle here; the ``progress`` op (and ``repro top``)
        #: read its snapshot, and each round feeds the round-latency
        #: histogram and skew/barrier gauges.
        self.progress = ProgressTracker(on_round=self._observe_round)
        self.started_at = time.time()

    def _observe_round(self, entry: FixIterationProfile, shards: int) -> None:
        """Progress-tracker callback: fold one fixpoint round record
        into the service metrics (histogram + gauges)."""
        barrier_fraction = None
        if entry.barrier_wait_s is not None and entry.seconds > 0:
            barrier_fraction = entry.barrier_wait_s / entry.seconds
        self.metrics.observe_round(
            entry.seconds,
            barrier_fraction=barrier_fraction,
            skew=entry.skew,
            shards=shards,
        )

    def _next_request_id(self) -> str:
        return f"{self._request_prefix}{next(self._request_counter):08x}"

    # -- sessions -----------------------------------------------------------

    def open_session(self) -> str:
        session = Session(uuid.uuid4().hex[:12])
        with self._sessions_lock:
            self._sessions[session.id] = session
        return session.id

    def close_session(self, session_id: str) -> bool:
        with self._sessions_lock:
            return self._sessions.pop(session_id, None) is not None

    def _session(self, session_id: Optional[str]) -> Session:
        if not session_id:
            raise ProtocolError("this operation requires a session (hello first)")
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session {session_id!r}")
        return session

    # -- prepared statements ------------------------------------------------

    def prepare(self, session_id: Optional[str], text: str) -> dict:
        session = self._session(session_id)
        statement_id = session.prepare(text)
        return {"statement": statement_id, "parameters": placeholder_names(text)}

    # -- the serving path ---------------------------------------------------

    def run_query(
        self,
        text: str,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
        strategy: Optional[str] = None,
    ) -> dict:
        """Serve one query end to end (``plan`` → ``execute`` →
        ``_settle``); failures raise ReproError subclasses, which the
        protocol layer maps to error codes.  ``batch_size``, ``shards``
        and ``strategy`` override the configured defaults."""
        self.metrics.record_request()
        try:
            planned = self.plan(text, params, strategy)
            run = self.execute(
                planned, None, timeout, batch_size, shards, sample=True
            )
            record = self._settle(planned, run)
        except ReproError as error:
            self._count_failure(error)
            raise
        return {
            "request_id": run.engine.request_id,
            "rows": [_jsonable_row(row) for row in run.execution.rows],
            "row_count": record.rows,
            "cache": planned.status,
            "estimated_cost": round(planned.estimated, 2),
            "measured_cost": round(record.measured_cost, 2),
            "plans_costed": planned.plans_costed,
            "optimize_ms": round(planned.optimize_seconds * 1000, 3),
            "execute_ms": round(run.seconds * 1000, 3),
            "fix_iterations": run.execution.metrics.fix_iterations,
            "batch_size": run.engine.batch_size,
            "shards": run.engine.shards,
        }

    def _count_failure(self, error: ReproError) -> None:
        if isinstance(error, ExecutionTimeout):
            self.metrics.record_timeout()
        elif isinstance(error, ExecutionCancelled):
            self.metrics.record_cancel()
        elif isinstance(error, AdmissionError):
            self.metrics.record_rejection()
        else:
            self.metrics.record_error()

    def _model(
        self, width: int, cost_params: Optional[CostParameters] = None
    ) -> Optional[DetailedCostModel]:
        """The cost model at ``width`` shards — the distributed-Fix
        variant must see the width the engine will use — with
        ``cost_params`` or else the recalibrated unit costs when
        applied.  ``None`` on the serial, uncalibrated path at the
        default parameters: callees build that model lazily, so a cache
        hit builds none."""
        params = cost_params or self._cost_params
        if params is None and width <= 1 and self._default_params:
            return None
        return DetailedCostModel(
            self.physical, replace(params or self._base_params, shards=width)
        )

    def _optimizer(
        self,
        strategy: Optional[str] = None,
        width: Optional[int] = None,
        policy: str = "cost",
        cost_params: Optional[CostParameters] = None,
    ) -> Optimizer:
        """A fresh optimizer priced at ``width`` shards (default: the
        configured fan-out) under ``cost_params`` (default: the
        service's) with the configured strategy unless ``strategy``
        overrides it; unset, the paper's II.  ``policy``
        ``always``/``never`` builds the deductive / naive baseline
        instead (:mod:`repro.core.baselines`), priced by the same
        model."""
        model = self._model(
            self.config.shards if width is None else width, cost_params
        )
        if policy == "cost":
            config = OptimizerConfig(strategy=strategy or self.config.strategy)
        else:
            config = OptimizerConfig(push_policy=policy, reoptimize=False)
        return Optimizer(self.physical, model, config)

    def _cluster_for(self, width: int):
        """The shared shard cluster for ``width`` shards, built lazily
        on first use.  Callers hold ``_store_lock`` (cluster
        construction snapshots the store's extent tables)."""
        if width <= 1:
            return None
        cluster = self._clusters.get(width)
        if cluster is None:
            # Imported here: repro.dist uses the service protocol's
            # framing, so a top-level import would be circular.
            from repro.dist import ShardCluster

            cluster = ShardCluster(self.physical, width)
            self._clusters[width] = cluster
        return cluster

    # -- the request pipeline: plan → execute → _settle ---------------------

    def plan(
        self,
        text: str,
        params: Optional[dict] = None,
        strategy: Optional[str] = None,
        *,
        width: Optional[int] = None,
        fresh: bool = False,
        tracer: Tracer = NULL_TRACER,
        policy: str = "cost",
        cost_params: Optional[CostParameters] = None,
    ) -> _Planned:
        """Substitute → cache key → lookup, or compile → optimize →
        store.  ``fresh`` (explain, trace, diagnose, the CLI, replay)
        optimizes from scratch, priced at ``width`` shards, and neither
        reads nor fills the cache: the point is to audit the optimizer.
        Cached plans are priced at the configured fan-out, never at one
        request's.  ``policy`` ``always``/``never`` plans with a
        baseline push policy (see :meth:`_optimizer`), and
        ``cost_params`` (a bundle's recorded machine) replaces the
        service's unit costs; such a plan is never cached."""
        fresh = fresh or policy != "cost" or cost_params is not None
        substituted = substitute_params(text, params)
        validate_choice("strategy", strategy, STRATEGY_NAMES)
        default = self.config.strategy or "ii"
        started = time.perf_counter()
        with self._store_lock:
            program = parse(substituted)
            key = self.cache.key_for_program(program, self.physical)
            if strategy not in (None, default):
                # A strategy override must not collide with plans
                # cached under the default (or another) strategy:
                # suffix the canonical text, like a different query.
                key = (f"{key[0]}\n-- strategy={strategy}", key[1])
            planned = _Planned(substituted, key, strategy or default)
            lookup = None
            if not fresh:
                model = self._model(self.config.shards)
                lookup = self.cache.lookup(key, self.physical, model)
            entry = lookup.entry if lookup is not None else None
            if entry is not None:
                planned.plan, planned.estimated = entry.plan, entry.cost
                if self.feedback is not None and entry.fingerprint is None:
                    entry.fingerprint = self.feedback.register_plan(
                        key[0], entry.plan, entry.cost
                    )
                planned.fingerprint = entry.fingerprint
            else:
                graph = compile_program(program, self.database.catalog)
                optimizer = self._optimizer(strategy, width, policy, cost_params)
                with tracer.span("optimize"):
                    result = optimizer.optimize(graph, tracer=tracer)
                planned.result, planned.cost_model = result, optimizer.cost_model
                planned.plan, planned.estimated = result.plan, result.cost
                planned.plans_costed = result.plans_costed
                if lookup is not None:
                    self._store(planned, lookup)
        planned.optimize_seconds = time.perf_counter() - started
        if lookup is not None:
            planned.status = lookup.status
            self.metrics.count(f"cache_{lookup.status}")
        return planned

    def _store(self, planned: _Planned, lookup) -> None:
        """Cache a freshly optimized plan and register it with the
        feedback loop (callers hold ``_store_lock``)."""
        key, plan, estimated = planned.key, planned.plan, planned.estimated
        entry = self.cache.store(key, plan, estimated, self.physical)
        feedback = self.feedback
        if feedback is None:
            return
        planned.fingerprint = entry.fingerprint = feedback.register_plan(
            key[0], plan, estimated, planned.cost_model, entry.stats_fp
        )
        # A drift eviction (this lookup) or a recalibration recost pass
        # (earlier) replaced a cached plan: put the replacement on
        # regression watch.
        old = lookup.evicted or self._replanned.pop(key, None)
        if old is not None:
            reason = lookup.reason or RECALIBRATION
            feedback.plan_changed(
                key[0], old.plan, old.cost, plan, estimated, reason
            )

    def execute(
        self,
        planned: _Planned,
        request_id: Optional[str] = None,
        timeout: Optional[float] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
        *,
        sample: bool = False,
        profiler: Optional[PlanProfiler] = None,
        tracer: Optional[Tracer] = None,
    ) -> _Executed:
        """Cost-budget admission → slots weighted by the shard fan-out →
        cancellation token → engine → progress → execute.  ``sample``
        (the serving path) profiles every ``profile_sample_every``-th
        run; otherwise the caller's ``profiler``/``tracer`` run.
        ``request_id`` defaults to a fresh one."""
        self.admission.admit(planned.estimated)
        # Minted before execution so the running query is addressable:
        # shard-worker thread names, exchange frames, dist log lines
        # and the live progress view carry this id.
        request_id = request_id or self._next_request_id()
        if sample and self.feedback is not None and self.feedback.should_profile():
            profiler = PlanProfiler()
        requested = self.config.shards if shards is None else shards
        if batch_size is None:
            batch_size = self.config.batch_size
        # A shards-N request reserves N slots, capped by the slot pool,
        # and the engine runs with exactly the granted width.  Slots are
        # taken before the store lock, so queued requests never hold it.
        with self.admission.slot(weight=requested) as granted:
            width = min(requested, granted)
            token = CancellationToken(self.admission.effective_timeout(timeout))
            started = time.perf_counter()
            with self._store_lock:
                engine = Engine(
                    self.physical,
                    max_fix_iterations=self.config.max_fix_iterations,
                    batch_size=batch_size,
                    shards=width,
                    cluster=self._cluster_for(width),
                )
                engine.request_id = request_id
                engine.tracer = tracer or NULL_TRACER
                engine.progress = self.progress.begin(
                    request_id, query=planned.key[0], shards=width
                )
                try:
                    with engine.tracer.span("execute"):
                        execution = engine.execute(
                            planned.plan, cancel=token, profiler=profiler
                        )
                finally:
                    self.progress.finish(engine.progress)
            seconds = time.perf_counter() - started
        return _Executed(execution, engine, seconds, profiler, tracer)

    def _settle(self, planned: _Planned, run: _Executed) -> QueryRecord:
        """The query record, the slow-query log and feedback."""
        metrics = run.execution.metrics
        record = QueryRecord(
            canonical=planned.key[0],
            cache_status=planned.status,
            estimated_cost=planned.estimated,
            measured_cost=metrics.measured_cost(),
            optimize_seconds=planned.optimize_seconds,
            execute_seconds=run.seconds,
            rows=len(run.execution.rows),
            request_id=run.engine.request_id,
            batch_size=run.engine.batch_size,
            shards=run.engine.shards,
            exchange_tuples=metrics.exchange_tuples,
            exchange_bytes=metrics.exchange_bytes,
            reads_by_shard=dict(metrics.reads_by_shard),
        )
        self.metrics.record_execution(record, metrics)
        slow_reasons = self._slow_reasons(record)
        if slow_reasons:
            self.metrics.record_slow(record, slow_reasons)
        if self.feedback is not None and planned.fingerprint is not None:
            self._feed_back(planned, run, record)
        return record

    def _slow_reasons(self, record: QueryRecord) -> List[str]:
        """Why (if at all) this query belongs in the slow-query log: its
        latency and its cost misestimate are the service's incident
        signals."""
        reasons: List[str] = []
        threshold = self.config.slow_query_seconds
        if threshold is not None and record.execute_seconds > threshold:
            reasons.append(
                f"execute took {record.execute_seconds * 1000:.1f}ms "
                f"(threshold {threshold * 1000:.0f}ms)"
            )
        cap = self.config.misestimate_ratio
        if cap is not None and record.estimated_cost > 0 and record.measured_cost > 0:
            ratio = record.measured_cost / record.estimated_cost
            if ratio > cap or ratio < 1.0 / cap:
                reasons.append(
                    f"measured/estimated cost ratio {ratio:.2f} "
                    f"outside [1/{cap:g}, {cap:g}]"
                )
        return reasons

    def _record_bundle(
        self, planned: _Planned, run: _Executed
    ) -> Tuple[Optional[str], dict]:
        """Snapshot one ``diagnose`` run into a flight-recorder bundle;
        returns its path (``None`` when memory-only or capped) and the
        bundle.  It records the parameters the plan was priced with, so
        replay prices the same machine."""
        canonical = planned.key[0]
        query_cls = query_class(canonical)
        model = planned.cost_model or self._model(self.config.shards)
        bundle = build_bundle(
            query_text=planned.text,
            canonical=canonical,
            query_cls=query_cls,
            plan=planned.plan,
            fingerprint=planned.fingerprint or canonical_fingerprint(planned.plan),
            estimated_cost=planned.estimated,
            rows=run.execution.rows,
            measured_cost=run.execution.metrics.measured_cost(),
            execute_seconds=run.seconds,
            fix_iterations=run.execution.metrics.fix_iterations,
            knobs={
                "batch_size": run.engine.batch_size,
                "shards": run.engine.shards,
                "max_fix_iterations": self.config.max_fix_iterations,
                "strategy": planned.strategy,
            },
            physical=self.physical,
            database=self.config.database_config,
            cost_parameters=model.params if model is not None else None,
            request_id=run.engine.request_id,
            trace=run.tracer.to_dict() if run.tracer is not None else None,
            profile=run.profiler.to_dict() if run.profiler is not None else None,
            telemetry=(
                self.feedback.store.snapshot(canonical, 1)
                if self.feedback is not None
                else None
            ),
        )
        recorded_before = self.recorder.written
        path = self.recorder.record(bundle)
        if self.recorder.written > recorded_before:
            self.metrics.count("flight_bundles")
        return path, bundle

    def _feed_back(
        self, planned: _Planned, run: _Executed, record: QueryRecord
    ) -> None:
        """Record one execution into the telemetry store and act on a
        regression verdict (slow-log entry, counters, optional
        auto-pin)."""
        observation = build_observation(
            record.request_id,
            record.estimated_cost,
            record.measured_cost,
            record.execute_seconds,
            record.rows,
            run.execution.metrics,
            run.profiler,
        )
        regression = self.feedback.observe(
            planned.key[0], planned.fingerprint, observation
        )
        if regression is None:
            return
        self.metrics.count("plan_regressions")
        self.metrics.record_slow(
            record,
            [
                "plan_regression: new plan "
                f"{regression['new_fingerprint']} is "
                f"{regression['latency_ratio']}x slower than prior plan "
                f"{regression['old_fingerprint']} "
                f"(median {regression['new_median_ms']}ms vs "
                f"{regression['old_median_ms']}ms)"
            ],
        )
        if self.config.auto_pin:
            try:
                self._pin(planned.key, revert=True)
            except ReproError:
                pass  # the old plan no longer costs/fits; keep the new one

    def execute_statement(
        self,
        session_id: Optional[str],
        statement_id: str,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
        strategy: Optional[str] = None,
    ) -> dict:
        session = self._session(session_id)
        template = session.statements.get(statement_id)
        if template is None:
            raise ProtocolError(f"unknown statement {statement_id!r}")
        return self.run_query(
            template, params, timeout, batch_size, shards, strategy
        )

    # -- maintenance / observability ---------------------------------------

    def refresh_statistics(self) -> dict:
        """Re-ANALYZE the store (after data mutations); cached plans are
        then subject to drift checks on their next lookup."""
        with self._store_lock:
            self.physical.refresh_statistics()
        return {"refreshed": True}

    def _require_feedback(self) -> FeedbackManager:
        if self.feedback is None:
            raise ServiceError(
                "the feedback loop is disabled (feedback_enabled=False)"
            )
        return self.feedback

    def recalibrate(self, apply: bool = False) -> dict:
        """Fit fresh cost-model unit weights from the accumulated
        telemetry; with ``apply``, hot-swap them into the serving path
        and re-cost the plan cache under the new model (entries whose
        estimate drifts beyond the ratio are re-optimized on their next
        request, under regression watch)."""
        feedback = self._require_feedback()
        base = self._cost_params or self._base_params
        _weights, params, report = feedback.recalibrate(base)
        self.metrics.count("recalibrations")
        payload = {"applied": False, **report}
        if apply:
            with self._store_lock:
                self._cost_params = params
                evicted = self.cache.recost_all(
                    self.physical, DetailedCostModel(self.physical, params)
                )
                for key, entry, _fresh in evicted:
                    self._replanned[key] = entry
            payload["applied"] = True
            payload["plans_invalidated"] = len(evicted)
        return payload

    def reset_calibration(self) -> dict:
        """Drop hot-swapped parameters, back to the built-in defaults."""
        with self._store_lock:
            was_applied = self._cost_params is not None
            self._cost_params = None
        return {"reset": was_applied}

    def pin_query(
        self,
        text: str,
        params: Optional[dict] = None,
        revert: bool = False,
    ) -> dict:
        """Pin a query's cached plan against drift re-optimization;
        with ``revert``, reinstall the *prior* plan of its last flagged
        regression and pin that."""
        substituted = substitute_params(text, params)
        with self._store_lock:
            key = self.cache.key_for(substituted, self.physical)
            return self._pin(key, revert=revert)

    def _pin(self, key: CacheKey, revert: bool) -> dict:
        """Pin ``key``'s cached plan; with ``revert``, reinstall and pin
        the prior plan of its last flagged regression.  Takes the
        re-entrant store lock, so callers may already hold it."""
        feedback = self.feedback
        with self._store_lock:
            if not revert:
                if not self.cache.pin(key, True):
                    raise ServiceError("no cached plan for this query to pin")
                fingerprint = self.cache.entry(key).fingerprint
                self.metrics.count("plans_pinned")
                if feedback is not None:
                    feedback.record_pin(key[0], fingerprint or "", True)
                return {"pinned": True, "reverted": False, "fingerprint": fingerprint}
            if feedback is None:
                raise ServiceError("pin revert requires the feedback loop")
            change = feedback.regression_for(key[0])
            if change is None:
                raise ServiceError(
                    "no flagged plan regression to revert for this query"
                )
            cost, plan = change.old_cost, change.old_plan
            try:
                cost = recost_plan(plan, self.physical, self._model(self.config.shards))
            except ReproError:
                pass  # keep the plan-time estimate
            entry = self.cache.store(key, plan, cost, self.physical, pinned=True)
            entry.fingerprint = change.old_fingerprint
            self.metrics.count("plans_pinned")
            feedback.record_pin(key[0], change.old_fingerprint, True)
            return {
                "pinned": True,
                "reverted": True,
                "fingerprint": change.old_fingerprint,
                "estimated_cost": round(cost, 2),
            }

    def unpin_query(self, text: str, params: Optional[dict] = None) -> dict:
        substituted = substitute_params(text, params)
        with self._store_lock:
            key = self.cache.key_for(substituted, self.physical)
            found = self.cache.pin(key, False)
        if self.feedback is not None and found:
            entry = self.cache.entry(key)
            self.feedback.record_pin(
                key[0], (entry.fingerprint if entry else None) or "", False
            )
        return {"pinned": False, "found": found}

    def history(self, query: Optional[str] = None, limit: int = 20) -> dict:
        """The ``history`` protocol payload: per-query plan histories
        (estimated vs. measured, per operator) plus control-loop state."""
        feedback = self._require_feedback()
        self._refresh_feedback_gauges()
        return {
            "history": feedback.store.snapshot(query, limit),
            "feedback": feedback.snapshot(),
        }

    #: Per-query-class gauge samples published on scrape are capped at
    #: this many classes (most-run first): Prometheus label cardinality
    #: must stay bounded no matter how many distinct query shapes a
    #: client sends.
    GAUGE_CLASS_CAP = 32

    def _refresh_feedback_gauges(self) -> None:
        """Publish per-query-class misestimate gauges from telemetry, on
        scrape (the summary walks history); the sample set is replaced
        whole, so classes that left the window disappear."""
        if self.feedback is None:
            return
        entries = sorted(
            self.feedback.misestimate_by_query().items(),
            key=lambda item: item[1].get("runs", 0),
            reverse=True,
        )[: self.GAUGE_CLASS_CAP]
        cost_samples: Dict[tuple, float] = {}
        operator_samples: Dict[tuple, float] = {}
        for query_cls, entry in entries:
            label_key = (("query_class", query_cls),)
            if entry["cost_misestimate"] is not None:
                cost_samples[label_key] = entry["cost_misestimate"]
            if entry["operator_misestimate"] is not None:
                operator_samples[label_key] = entry["operator_misestimate"]
        self.metrics.replace_gauge(
            "misestimate_ratio",
            "Mean estimated-vs-measured cost q-error per query class.",
            cost_samples,
        )
        self.metrics.replace_gauge(
            "operator_misestimate_ratio",
            "Mean per-operator misestimate q-error per query class.",
            operator_samples,
        )

    def stats(self) -> dict:
        payload = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "service": self.metrics.snapshot(),
            "cache": self.cache.snapshot(),
            "admission": self.admission.snapshot(),
        }
        if self.feedback is not None:
            payload["feedback"] = self.feedback.snapshot()
        return payload

    def diagnose_query(
        self,
        text: str,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """On-demand flight recording: plan fresh, run the query once at
        full observability detail — bypassing ``profile_sample_every``,
        not admission — and record a ``diagnose`` bundle."""
        request_id = self._next_request_id()
        width = shards or self.config.shards
        tracer = Tracer(trace_id=request_id, max_spans=TRACE_MAX_SPANS)
        planned = self.plan(text, params, width=width, fresh=True, tracer=tracer)
        run = self.execute(
            planned,
            request_id,
            timeout,
            shards=width,
            profiler=PlanProfiler(),
            tracer=tracer,
        )
        path, bundle = self._record_bundle(planned, run)
        query_cls = bundle["query"]["class"]
        _LOG.info(
            "diagnose bundle recorded",
            extra={"request_id": request_id, "query_class": query_cls, "bundle": path},
        )
        return {
            "request_id": request_id,
            "bundle": path,
            "query_class": query_cls,
            "row_count": len(run.execution.rows),
            "estimated_cost": round(planned.estimated, 2),
            "measured_cost": round(run.execution.metrics.measured_cost(), 2),
            "execute_ms": round(run.seconds * 1000, 3),
            "fingerprint": bundle["plan"]["fingerprint"],
            "answer_fingerprint": bundle["execution"]["answer_fingerprint"],
            "recorder": self.recorder.snapshot(),
        }

    def close(self) -> None:
        """Release resources: flush and close the telemetry sink, and
        shut down the worker pools of the shard clusters built."""
        if self.feedback is not None:
            self.feedback.close()
        with self._store_lock:
            clusters, self._clusters = self._clusters, {}
        for cluster in clusters.values():
            cluster.close()

    def explain_query(
        self,
        text: str,
        params: Optional[dict] = None,
        analyze: bool = False,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """``EXPLAIN [ANALYZE]``: plan fresh and, when ``analyze`` is
        set, execute under a profiler so every operator carries actual
        rows/cost/time next to the estimates.  The plan is costed *and*
        executed at ``shards``, so sharded Fix nodes carry distributed
        est-vs-act terms (network/disk/skew)."""
        request_id = self._next_request_id()
        width = shards or self.config.shards
        planned = self.plan(text, params, width=width, fresh=True)
        payload = {"request_id": request_id, "shards": width, "analyzed": analyze}
        profiler = PlanProfiler() if analyze else None
        if analyze:
            run = self.execute(
                planned, request_id, timeout, shards=width, profiler=profiler
            )
            payload["shards"] = run.engine.shards
            payload["row_count"] = len(run.execution.rows)
        with self._store_lock:
            tree = build_explain(planned.plan, planned.cost_model, profiler)
        payload.update(
            estimated_cost=round(planned.estimated, 2),
            plans_costed=planned.plans_costed,
            plan=render_explain(tree),
            tree=tree.to_dict(),
            candidates=[
                {"description": description, "cost": round(cost, 2)}
                for description, cost in planned.result.candidates
            ],
        )
        return payload

    def trace_query(
        self,
        text: str,
        params: Optional[dict] = None,
        execute: bool = True,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """Full-pipeline trace: optimizer spans/events plus (when
        ``execute`` is set) the per-operator runtime profile.  With
        ``shards`` > 1 the query executes distributed and the tracer is
        handed to the engine, so the exported Chrome trace carries one
        lane per shard next to the coordinator lane."""
        request_id = self._next_request_id()
        width = shards or self.config.shards
        tracer = Tracer(trace_id=request_id if width > 1 else None)
        planned = self.plan(text, params, width=width, fresh=True, tracer=tracer)
        payload = {"request_id": request_id, "shards": width}
        if execute:
            profiler = PlanProfiler()
            run = self.execute(
                planned,
                request_id,
                timeout,
                shards=width,
                profiler=profiler,
                tracer=tracer,
            )
            payload["shards"] = run.engine.shards
            payload["profile"] = profiler.to_dict()
        payload.update(
            estimated_cost=round(planned.estimated, 2),
            trace=tracer.to_dict(),
            chrome_trace=tracer.to_chrome_trace(),
        )
        return payload

    def metrics_text(self) -> str:
        """The Prometheus exposition of the service counters."""
        self._refresh_feedback_gauges()
        return self.metrics.to_prometheus()

    # -- protocol dispatch --------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one protocol request dict → response dict (never
        raises; errors become ``ok: false`` responses).  A client
        ``id`` field is echoed back verbatim on every response —
        success or error — so pipelined clients can correlate."""
        client_id = request.get("id") if isinstance(request, dict) else None
        try:
            op = request.get("op")
            if not isinstance(op, str):
                raise ProtocolError("request must carry a string 'op'")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            payload = handler(request)
            response = {"ok": True}
            response.update(payload)
        except ReproError as error:
            response = protocol.error_response(
                protocol.error_code_for(error), str(error)
            )
        except Exception as error:  # pragma: no cover - defensive
            self.metrics.record_error()
            response = protocol.error_response(protocol.INTERNAL, str(error))
        if client_id is not None:
            response["id"] = client_id
        return response

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _op_hello(self, request: dict) -> dict:
        return {"session": self.open_session()}

    def _op_close(self, request: dict) -> dict:
        return {"closed": self.close_session(request.get("session") or "")}

    def _op_query(self, request: dict) -> dict:
        return self.run_query(
            _string_field(request, "text"),
            request.get("params"),
            *_execution_fields(request),
        )

    def _op_prepare(self, request: dict) -> dict:
        return self.prepare(request.get("session"), _string_field(request, "text"))

    def _op_execute(self, request: dict) -> dict:
        return self.execute_statement(
            request.get("session"),
            _string_field(request, "statement"),
            request.get("params"),
            *_execution_fields(request),
        )

    def _op_stats(self, request: dict) -> dict:
        return self.stats()

    def _op_refresh_stats(self, request: dict) -> dict:
        return self.refresh_statistics()

    def _op_explain(self, request: dict) -> dict:
        return self.explain_query(
            _string_field(request, "text"),
            request.get("params"),
            analyze=bool(request.get("analyze")),
            timeout=_timeout_field(request),
            shards=_positive_int_field(request, "shards"),
        )

    def _op_trace(self, request: dict) -> dict:
        return self.trace_query(
            _string_field(request, "text"),
            request.get("params"),
            execute=request.get("execute", True) is not False,
            timeout=_timeout_field(request),
            shards=_positive_int_field(request, "shards"),
        )

    def _op_progress(self, request: dict) -> dict:
        """Live introspection for ``repro top``: per-query fixpoint
        rounds plus the admission slot picture."""
        payload = self.progress.snapshot()
        payload["admission"] = self.admission.snapshot()
        payload["uptime_seconds"] = round(time.time() - self.started_at, 3)
        return {"progress": payload}

    def _op_metrics(self, request: dict) -> dict:
        return {"metrics": self.metrics_text()}

    def _op_history(self, request: dict) -> dict:
        query = request.get("query")
        if query is not None and not isinstance(query, str):
            raise ProtocolError("history 'query' must be a string")
        return self.history(query, _positive_int_field(request, "limit") or 20)

    def _op_recalibrate(self, request: dict) -> dict:
        return self.recalibrate(apply=bool(request.get("apply")))

    def _op_pin(self, request: dict) -> dict:
        text = _string_field(request, "text")
        revert = bool(request.get("revert"))
        return self.pin_query(text, request.get("params"), revert=revert)

    def _op_unpin(self, request: dict) -> dict:
        return self.unpin_query(_string_field(request, "text"), request.get("params"))

    def _op_diagnose(self, request: dict) -> dict:
        return self.diagnose_query(
            _string_field(request, "text"),
            request.get("params"),
            timeout=_timeout_field(request),
            shards=_positive_int_field(request, "shards"),
        )


def _string_field(request: dict, name: str) -> str:
    value = request.get(name)
    if not isinstance(value, str):
        raise ProtocolError(f"{request.get('op')} requires a string {name!r}")
    return value


def _execution_fields(request: dict) -> tuple:
    """A ``query``/``execute`` request's ``timeout``, ``batch_size``,
    ``shards`` and ``strategy``."""
    return (
        _timeout_field(request),
        _positive_int_field(request, "batch_size"),
        _positive_int_field(request, "shards"),
        _strategy_field(request),
    )


def _positive_int_field(request: dict, name: str) -> Optional[int]:
    value = request.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProtocolError(f"{name} must be a positive integer")
    return value


def _strategy_field(request: dict) -> Optional[str]:
    strategy = request.get("strategy")
    if strategy is None:
        return None
    try:
        validate_choice("strategy", strategy, STRATEGY_NAMES)
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return strategy


def _timeout_field(request: dict) -> Optional[float]:
    timeout = request.get("timeout")
    if timeout is None:
        return None
    if not isinstance(timeout, (int, float)) or timeout <= 0:
        raise ProtocolError("timeout must be a positive number of seconds")
    return float(timeout)


def _jsonable_row(row: dict) -> dict:
    return {key: _jsonable(value) for key, value in row.items()}


def _jsonable(value):
    if isinstance(value, StoredRecord):
        return {"oid": str(value.oid), **_jsonable_row(value.values)}
    if isinstance(value, Oid):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


class QueryServer:
    """TCP front door: line-JSON protocol over a listening socket."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        allow_shutdown: bool = True,
    ) -> None:
        self.service = service
        self.allow_shutdown = allow_shutdown
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start accepting connections in a background thread."""
        if self._accept_thread is not None:
            raise ServiceError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` is called."""
        self.start()
        self._stopping.wait()

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self._pool.shutdown(wait=True)
        self._listener.close()
        self.service.close()

    # -- connection handling ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._pool.submit(self._serve_connection, connection)

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(300)
            reader = connection.makefile("rb")
            while not self._stopping.is_set():
                line = reader.readline(protocol.MAX_LINE_BYTES + 1)
                if not line:
                    break
                response = self._serve_line(line)
                shutdown = response.pop("_shutdown", False)
                connection.sendall(protocol.encode(response))
                if shutdown:
                    self._stopping.set()
                    break
        except OSError:
            pass  # client went away mid-request
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _serve_line(self, line: bytes) -> dict:
        try:
            request = protocol.decode(line)
        except ProtocolError as error:
            return protocol.error_response(protocol.PROTOCOL, str(error))
        if request.get("op") == "shutdown":
            if not self.allow_shutdown:
                return protocol.error_response(
                    protocol.PROTOCOL, "shutdown is disabled on this server"
                )
            response = {"ok": True, "stopping": True, "_shutdown": True}
            if request.get("id") is not None:
                response["id"] = request["id"]
            return response
        return self.service.handle(request)


class MetricsServer:
    """A minimal HTTP sidecar exposing ``GET /metrics`` in Prometheus
    text format (``repro serve --metrics-port``), so a standard scraper
    can watch the service without speaking the query protocol."""

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served here")
                    return
                body = service.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass  # scrapes should not spam the server's stdout

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
