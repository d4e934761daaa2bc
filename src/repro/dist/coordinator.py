"""The shard cluster and the scatter-gather round of a sharded fixpoint.

:class:`ShardCluster` owns N :class:`~repro.dist.shard.ShardWorker`
replicas of a physical schema plus the pool their tasks run on.
:func:`sharded_rounds` is the sharded round evaluator of the one
semi-naive loop, :func:`repro.engine.fixpoint.run_fixpoint` (which
keeps the limit, the cancellation poll between rounds and the round
records): each round it evaluates is a **scatter-gather exchange** —

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
   coordinator dedups them in shard order through the loop's
   seen-set and materializes the fresh tuples as the next delta.

Rounds are barriers and slices are disjoint, so answer sets and
per-node tuple counts match the serial evaluator exactly (the
additivity argument is :func:`repro.dist.partition.partitionable`'s).
The first shard error aborts the remaining work of the round and
re-raises in the coordinator; leaving the context closes each
session (dropping its shard-local staging extents), and
``Engine.execute``'s cleanup then drops the coordinator temp — failure
semantics are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dist import exchange
from repro.dist.partition import (
    ShardMap,
    _rebinding_fields,
    partition_delta,
    partitionable,
)
from repro.dist.shard import ShardSession, ShardWorker
from repro.obs.log import get_logger
from repro.obs.trace import NULL_TRACER
from repro.physical.schema import PhysicalSchema
from repro.physical.storage import StoredRecord
from repro.plans.nodes import Fix, PlanNode

__all__ = ["ShardCluster", "sharded_rounds"]

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


@contextmanager
def sharded_rounds(
    engine,
    fix: Fix,
    delta_env: Dict[str, List[StoredRecord]],
    width: int,
    keep_rows: Callable[[Iterable[Dict[str, object]], List[StoredRecord]], None],
) -> Iterator[Callable]:
    """The sharded round evaluator of
    :func:`repro.engine.fixpoint.run_fixpoint`, as a context: entering
    opens one session per shard, the shard trace lanes and the ``fix``
    span; leaving drops every session's staging and folds its counters
    into the coordinator engine.  The context yields
    ``evaluate(round_index, parts, delta)``, one scatter-gather round;
    the gather dedups through the loop's ``keep_rows``."""
    cluster = engine.cluster
    abort = threading.Event()
    sessions = cluster.open_sessions(engine, width)
    metrics = engine.metrics
    metrics.shards_used = max(metrics.shards_used, width)
    rid = engine.request_id or "local"
    tracer = engine.tracer
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
    #: The recursion-binding columns the delta is partitioned on, read
    #: off the base round's output by the first delta round.
    rebinding: List[str] = []

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
                            payload = payloads[payload_key]
                            with stracer.span(
                                "exchange_recv",
                                round=round_index,
                                frames=len(payload),
                            ) as recv_span:
                                if stracer.enabled:
                                    recv_span.set(bytes=sum(map(len, payload)))
                                received = exchange.decode_tuples(payload)
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
                ) as send_span:
                    frames = exchange.encode_tuples(
                        "result",
                        fix.name,
                        round_index,
                        shard,
                        produced,
                        trace_id=trace_id,
                        layout="columnar",
                    )
                    if stracer.enabled:
                        send_span.set(bytes=sum(map(len, frames)))
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

    def assign(
        round_index: int,
        parts: List[PlanNode],
        delta: Optional[List[StoredRecord]],
    ):
        """Which shard evaluates which part on which payload, plus the
        scatter leg: ``(assignments, payloads, scatter volume)``."""
        assignments: Dict[int, List[Tuple[PlanNode, Optional[object]]]] = {
            shard: [] for shard in range(width)
        }
        payloads: Dict[object, List[bytes]] = {}
        scatter = exchange.ExchangeStats()
        if delta is None:
            # Base round: non-recursive parts fan out round-robin; only
            # the gather leg carries tuples.
            for index, part in enumerate(parts):
                assignments[index % width].append((part, None))
            return assignments, payloads, scatter
        if round_index == 1:
            rebinding[:] = _rebinding_fields(fix, delta)
            if rebinding:
                cluster.shard_map.place_partitioned(fix.name, rebinding)
        slices: Optional[List[List[StoredRecord]]] = None
        with tracer.span(
            "partition", round=round_index, delta=len(delta), request=rid
        ):
            for part_index, part in enumerate(parts):
                if partitionable(part, fix.name) and len(delta) > 1:
                    if slices is None:
                        slices = partition_delta(delta, width, rebinding)
                        for shard, piece in enumerate(slices):
                            if not piece:
                                continue
                            frames = exchange.encode_tuples(
                                "delta",
                                fix.name,
                                round_index,
                                shard,
                                [record.values for record in piece],
                                trace_id=trace_id,
                                layout="columnar",
                            )
                            payloads[("slice", shard)] = frames
                            scatter.count(frames, len(piece))
                    for shard, piece in enumerate(slices):
                        if piece:
                            assignments[shard].append((part, ("slice", shard)))
                else:
                    # Unpartitionable part: the whole delta travels to
                    # one shard, rotating per round for balance.
                    # Payloads are keyed per target so the frame
                    # headers name the shard that really receives them.
                    target = (round_index + part_index) % width
                    payload_key = ("full", target)
                    if payload_key not in payloads:
                        payloads[payload_key] = exchange.encode_tuples(
                            "delta",
                            fix.name,
                            round_index,
                            target,
                            [record.values for record in delta],
                            trace_id=trace_id,
                            layout="columnar",
                        )
                        scatter.count(payloads[payload_key], len(delta))
                    assignments[target].append((part, payload_key))
        return assignments, payloads, scatter

    def evaluate(
        round_index: int,
        parts: List[PlanNode],
        delta: Optional[List[StoredRecord]],
    ) -> Tuple[List[StoredRecord], dict]:
        """One scatter-gather round; returns the fresh records and the
        round record's exchange fields."""
        assignments, payloads, volume = assign(round_index, parts, delta)
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
        fresh: List[StoredRecord] = []
        loads: Dict[int, float] = {}
        produced_by_shard: Dict[int, int] = {}
        with tracer.span("gather", round=round_index, request=rid):
            for shard, outcome in outcomes:
                volume.count(outcome["frames"], outcome["tuples"])
                metrics.shard_busy_seconds += outcome["busy"]
                loads[shard] = float(outcome["reads"] + outcome["tuples"])
                produced_by_shard[shard] = outcome["tuples"]
                keep_rows(exchange.decode_tuples(outcome["frames"]), fresh)
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
            "shards": width,
            "exchange_tuples": volume.tuples,
            "exchange_bytes": volume.bytes,
            "exchange_frames": volume.frames,
            "skew": max(1.0, skew),
            "barrier_wait_s": barrier_wait,
            "per_shard": produced_by_shard,
        }

    with tracer.span("fix", fix=fix.name, shards=width, request=rid) as fix_span:
        try:
            yield evaluate
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
