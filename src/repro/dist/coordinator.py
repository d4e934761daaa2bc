"""The shard cluster and the distributed scatter-gather fixpoint.

:class:`ShardCluster` owns N :class:`~repro.dist.shard.ShardWorker`
replicas of a physical schema plus the pool their tasks run on.
:func:`run_fixpoint_distributed` is the distributed twin of the
serial loop in :mod:`repro.engine.fixpoint`: the same semi-naive
structure, but each round is a **scatter-gather exchange** —

1. *partition*: the coordinator hash-partitions the round's delta on
   the recursion-binding columns (one slice per shard; parts whose
   semantics partitioning would change take the whole delta on one
   shard, rotating per round);
2. *scatter*: each shard's slice crosses the service's line-JSON
   framing as ``delta`` frames and is staged into the shard session's
   private store;
3. *evaluate*: each shard runs its recursive parts against the staged
   slice with the batch pipeline, reading base extents through its own
   buffer pool;
4. *gather*: produced tuples come back as ``result`` frames, and the
   coordinator — sole owner of the seen-set — dedups in shard order
   and materializes the fresh tuples as the next delta.

Rounds are barriers and slices are disjoint, so answer sets and
per-node tuple counts match the serial evaluator exactly (the
additivity argument is :func:`repro.dist.partition.partitionable`'s).
The first shard error aborts the remaining work of the round and
re-raises in the coordinator; ``Engine.execute``'s cleanup then drops
the coordinator temp, and each session's ``close()`` drops its
shard-local staging extents — failure semantics are documented in
``docs/architecture.md``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple

from repro.dist import exchange
from repro.dist.partition import (
    ShardMap,
    _rebinding_fields,
    partition_delta,
    partitionable,
)
from repro.dist.shard import ShardSession, ShardWorker
from repro.engine.fixpoint import key_of_normalized, partition_parts
from repro.errors import FixpointLimitError
from repro.obs.log import get_logger
from repro.obs.trace import NULL_TRACER
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import StoredRecord
from repro.plans.nodes import Fix, PlanNode

__all__ = ["ShardCluster", "run_fixpoint_distributed"]

#: Structured logger: request id / shard / round travel as fields (see
#: :mod:`repro.obs.log`), so JSON log pipelines can filter on them.
logger = get_logger("dist")


def _annotate(exc: BaseException, context: str) -> None:
    """Prefix an exception's message with request/shard context so
    abort-on-first-error reports name their origin.  Best-effort: an
    exception whose ``args`` setter rejects the rewrite (a TypeError)
    propagates unchanged."""
    try:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[{context}] {exc.args[0]}",) + exc.args[1:]
        else:
            exc.args = (f"[{context}]",) + exc.args
    except TypeError:
        pass


class ShardCluster:
    """N shard workers over replicas of one physical schema.

    Base extents are replicated (zero-copy; each shard reads them
    through its own buffer pool); recursion tuple spaces are
    hash-partitioned per round by the distributed fixpoint, which
    records the partitioning in :attr:`shard_map`.  One cluster may
    serve many engines — and several concurrently: all per-request
    state lives in :class:`~repro.dist.shard.ShardSession` objects.
    """

    def __init__(
        self,
        physical: PhysicalSchema,
        shards: int,
        buffer_capacity: Optional[int] = None,
        io_latency: Optional[float] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.physical = physical
        self.shards = shards
        self.shard_map = ShardMap(shards)
        for name in physical.store.extent_names():
            self.shard_map.place_replicated(name)
        self.workers: List[ShardWorker] = [
            ShardWorker(index, physical, buffer_capacity, io_latency)
            for index in range(shards)
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, shards), thread_name_prefix="shard"
        )
        self._session_lock = threading.Lock()

    def open_sessions(self, engine, width: int) -> List[ShardSession]:
        """One per-request session on each of the first ``width``
        shards (safe to call from concurrent coordinators)."""
        with self._session_lock:
            return [
                worker.open_session(engine) for worker in self.workers[:width]
            ]

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot(self) -> dict:
        """Per-shard buffer statistics plus the placement map."""
        return {
            "shards": self.shards,
            "shard_map": self.shard_map.to_dict(),
            "buffers": [
                {
                    "shard": worker.index,
                    "logical_reads": worker.buffer.stats.logical_reads,
                    "physical_reads": worker.buffer.stats.physical_reads,
                    "resident_pages": worker.buffer.resident_count(),
                }
                for worker in self.workers
            ],
        }


def run_fixpoint_distributed(
    engine,
    fix: Fix,
    delta_env: Dict[str, List[StoredRecord]],
    cluster: ShardCluster,
    shards: int,
) -> str:
    """Evaluate ``fix`` as distributed scatter-gather rounds; returns
    the coordinator temp entity name (same contract as the serial
    path)."""
    width = max(1, min(shards, cluster.shards))
    if width <= 1:
        from repro.engine.fixpoint import run_fixpoint_serial

        return run_fixpoint_serial(engine, fix, delta_env)

    temp_info = engine.physical.register_temp(fix.name)
    temp_name = temp_info.name
    engine.note_temp(temp_name)
    base_parts, recursive_parts = partition_parts(fix)

    seen: Set[tuple] = set()  # coordinator-side; coordinator thread only
    abort = threading.Event()
    sessions = cluster.open_sessions(engine, width)
    metrics = engine.metrics
    metrics.shards_used = max(metrics.shards_used, width)
    profiler = getattr(engine, "profiler", None)
    progress = getattr(engine, "progress", None)
    rid = getattr(engine, "request_id", "") or "local"
    tracer = getattr(engine, "tracer", NULL_TRACER)
    if tracer.enabled and tracer.trace_id is None:
        tracer.trace_id = rid
    trace_id = getattr(tracer, "trace_id", "") or ""
    # One thread-confined tracer per shard lane; rounds are barriers,
    # so at most one pool thread records into a lane at a time.
    if tracer.enabled:
        shard_tracers = [
            tracer.child(f"shard{session.shard}") for session in sessions
        ]
    else:
        shard_tracers = [NULL_TRACER for _ in sessions]
    insert = engine.store.insert
    peek = engine.store.peek

    def shard_task(
        session: ShardSession,
        round_index: int,
        tasks: List[Tuple[PlanNode, Optional[object]]],
        payloads: Dict[object, List[bytes]],
    ) -> dict:
        """Everything one shard does in one round: receive + stage its
        delta frames, evaluate its parts, frame its results."""
        shard = session.shard
        stracer = shard_tracers[sessions.index(session)]
        thread = threading.current_thread()
        saved_name = thread.name
        thread.name = f"shard{shard}-{rid}"
        busy_start = time.perf_counter()
        try:
            with stracer.span(
                "round", round=round_index, shard=shard, request=rid
            ) as round_span:
                reads_before = session.io.stats.logical_reads
                produced: List[Dict[str, object]] = []
                staged_cache: Dict[object, List[StoredRecord]] = {}
                for part, payload_key in tasks:
                    if abort.is_set():
                        break
                    session.engine.check_cancelled()
                    if payload_key is None:  # base part: no delta leg
                        env = delta_env
                    else:
                        staged = staged_cache.get(payload_key)
                        if staged is None:
                            with stracer.span(
                                "exchange_recv",
                                round=round_index,
                                frames=len(payloads[payload_key]),
                            ):
                                received = exchange.decode_tuples(
                                    payloads[payload_key]
                                )
                            with stracer.span(
                                "stage", round=round_index, tuples=len(received)
                            ):
                                staged = session.stage_delta(fix.name, received)
                            staged_cache[payload_key] = staged
                        env = dict(delta_env)
                        env[fix.name] = staged
                    with stracer.span(
                        "evaluate", round=round_index, part=type(part).__name__
                    ):
                        produced.extend(session.evaluate(part, env))
                with stracer.span(
                    "exchange_send", round=round_index, tuples=len(produced)
                ):
                    frames = exchange.encode_tuples(
                        "result",
                        fix.name,
                        round_index,
                        shard,
                        produced,
                        trace_id=trace_id,
                        layout="columnar",
                    )
                reads = session.io.stats.logical_reads - reads_before
                round_span.set(tuples=len(produced), reads=reads)
                return {
                    "frames": frames,
                    "tuples": len(produced),
                    "reads": reads,
                    "busy": time.perf_counter() - busy_start,
                }
        except BaseException as exc:  # noqa: BLE001 - annotated + re-raised
            _annotate(exc, f"request {rid} shard {shard} round {round_index}")
            logger.error(
                "shard round failed: %s",
                exc,
                extra={
                    "request_id": rid,
                    "shard": shard,
                    "round": round_index,
                },
            )
            raise
        finally:
            thread.name = saved_name

    def run_round(
        round_index: int,
        assignments: Dict[int, List[Tuple[PlanNode, Optional[object]]]],
        payloads: Dict[object, List[bytes]],
        scatter_by_shard: Dict[int, exchange.ExchangeStats],
    ) -> Tuple[List[StoredRecord], dict]:
        futures = {
            shard: cluster.submit(
                shard_task, sessions[shard], round_index, tasks, payloads
            )
            for shard, tasks in assignments.items()
            if tasks
        }
        outcomes: List[Tuple[int, dict]] = []
        error: Optional[BaseException] = None
        wait_begin = time.perf_counter()
        with tracer.span("barrier_wait", round=round_index, request=rid):
            for shard in sorted(futures):
                try:
                    outcomes.append((shard, futures[shard].result()))
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    abort.set()
                    if error is None:
                        error = exc
        barrier_wait = time.perf_counter() - wait_begin
        metrics.barrier_wait_seconds += barrier_wait
        if error is not None:
            raise error
        # Gather leg: dedup in shard-index order (deterministic), then
        # materialize the fresh tuples at the coordinator.
        volume = exchange.ExchangeStats()
        for stats in scatter_by_shard.values():
            volume.merge(stats)
        fresh: List[StoredRecord] = []
        loads: Dict[int, float] = {}
        produced_by_shard: Dict[int, int] = {}
        with tracer.span("gather", round=round_index, request=rid):
            for shard, outcome in outcomes:
                volume.count(outcome["frames"], outcome["tuples"])
                metrics.shard_busy_seconds += outcome["busy"]
                loads[shard] = float(outcome["reads"] + outcome["tuples"])
                produced_by_shard[shard] = outcome["tuples"]
                arrived = 0
                for values in exchange.decode_tuples(outcome["frames"]):
                    arrived += 1
                    key = key_of_normalized(values)
                    if key in seen:
                        continue
                    seen.add(key)
                    fresh.append(peek(insert(temp_name, values)))
                scatter = scatter_by_shard.get(shard)
                exchange.write_shard_telemetry(
                    {
                        "request": rid,
                        "fix": fix.name,
                        "round": round_index,
                        "shard": shard,
                        "scatter_tuples": scatter.tuples if scatter else 0,
                        "scatter_bytes": scatter.bytes if scatter else 0,
                        "gather_tuples": arrived,
                        "gather_bytes": sum(len(f) for f in outcome["frames"]),
                        "logical_reads": outcome["reads"],
                        "busy_seconds": round(outcome["busy"], 6),
                    }
                )
        round_max = max(loads.values(), default=0.0)
        round_mean = (sum(loads.values()) / len(loads)) if loads else 0.0
        skew = (round_max / round_mean) if round_mean > 0 else 1.0
        metrics.shard_load_max += round_max
        metrics.shard_load_mean += round_mean
        metrics.exchange_rounds += 1
        metrics.exchange_tuples += volume.tuples
        metrics.exchange_bytes += volume.bytes
        metrics.exchange_frames += volume.frames
        return fresh, {
            "volume": volume,
            "barrier_wait": barrier_wait,
            "skew": max(1.0, skew),
            "loads": loads,
            "produced_by_shard": produced_by_shard,
        }

    def note_round(round_index, fresh, info, seconds):
        volume = info["volume"]
        if profiler is not None:
            profiler.fix_iteration(
                fix,
                round_index,
                len(fresh),
                seconds,
                shards=width,
                exchange_tuples=volume.tuples,
                exchange_bytes=volume.bytes,
                exchange_frames=volume.frames,
                skew=info["skew"],
                barrier_wait_s=info["barrier_wait"],
                per_shard=info["produced_by_shard"],
            )
        if progress is not None:
            progress.round_update(
                fix=fix.name,
                round_index=round_index,
                delta=len(fresh),
                delta_by_shard=info["produced_by_shard"],
                skew=info["skew"],
                exchange_tuples=volume.tuples,
                exchange_bytes=volume.bytes,
                barrier_wait_s=info["barrier_wait"],
                seconds=seconds,
            )

    with tracer.span(
        "fix", fix=fix.name, shards=width, request=rid
    ) as fix_span:
        try:
            # Base round: non-recursive parts fan out round-robin; only
            # the gather leg carries tuples.
            round_start = time.perf_counter()
            assignments: Dict[int, List[Tuple[PlanNode, Optional[object]]]] = {
                shard: [] for shard in range(width)
            }
            for index, part in enumerate(base_parts):
                assignments[index % width].append((part, None))
            delta, info = run_round(0, assignments, {}, {})
            note_round(0, delta, info, time.perf_counter() - round_start)

            rebinding = _rebinding_fields(fix, delta)
            if rebinding:
                cluster.shard_map.place_partitioned(fix.name, rebinding)
            iterations = 0
            while delta:
                iterations += 1
                if iterations > engine.max_fix_iterations:
                    raise FixpointLimitError(
                        fix.name, engine.max_fix_iterations
                    )
                engine.check_cancelled()
                metrics.fix_iterations += 1
                round_start = time.perf_counter()

                assignments = {shard: [] for shard in range(width)}
                payloads: Dict[object, List[bytes]] = {}
                scatter_by_shard: Dict[int, exchange.ExchangeStats] = {}
                slices: Optional[List[List[StoredRecord]]] = None
                with tracer.span(
                    "partition", round=iterations, delta=len(delta), request=rid
                ):
                    for part_index, part in enumerate(recursive_parts):
                        if partitionable(part, fix.name) and len(delta) > 1:
                            if slices is None:
                                slices = partition_delta(
                                    delta, width, rebinding
                                )
                                for shard, piece in enumerate(slices):
                                    if not piece:
                                        continue
                                    frames = exchange.encode_tuples(
                                        "delta",
                                        fix.name,
                                        iterations,
                                        shard,
                                        [record.values for record in piece],
                                        trace_id=trace_id,
                                        layout="columnar",
                                    )
                                    payloads[("slice", shard)] = frames
                                    stats = scatter_by_shard.setdefault(
                                        shard, exchange.ExchangeStats()
                                    )
                                    stats.count(frames, len(piece))
                            for shard, piece in enumerate(slices):
                                if piece:
                                    assignments[shard].append(
                                        (part, ("slice", shard))
                                    )
                        else:
                            # Unpartitionable part: the whole delta
                            # travels to one shard, rotating per round
                            # for balance.  Payloads are keyed (and
                            # their volume counted) per target so the
                            # frame headers name the shard that really
                            # receives them.
                            target = (iterations + part_index) % width
                            payload_key = ("full", target)
                            if payload_key not in payloads:
                                payloads[payload_key] = exchange.encode_tuples(
                                    "delta",
                                    fix.name,
                                    iterations,
                                    target,
                                    [record.values for record in delta],
                                    trace_id=trace_id,
                                    layout="columnar",
                                )
                                stats = scatter_by_shard.setdefault(
                                    target, exchange.ExchangeStats()
                                )
                                stats.count(payloads[payload_key], len(delta))
                            assignments[target].append((part, payload_key))

                delta, info = run_round(
                    iterations, assignments, payloads, scatter_by_shard
                )
                note_round(
                    iterations, delta, info, time.perf_counter() - round_start
                )
            fix_span.set(rounds=metrics.exchange_rounds)
        finally:
            abort.set()
            with tracer.span("cleanup", request=rid):
                for session in sessions:
                    dropped = session.close()
                    if tracer.enabled:
                        tracer.event(
                            "staging_cleanup",
                            shard=session.shard,
                            staging_dropped=dropped,
                            request=rid,
                        )
                    engine.absorb_shard(
                        session.shard, session.engine, session.io.stats
                    )
    return temp_name
