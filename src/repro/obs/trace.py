"""A lightweight span tracer for the optimizer and the engine.

Spans form a tree (parent/child nesting follows the call structure),
carry attributes, and are timed with a monotonic clock
(:func:`time.perf_counter`).  Point-in-time *events* — one per
candidate PT considered, per Iterative Improvement move accepted or
rejected, per push-vs-no-push cost comparison — attach to the span
that was open when they fired.

Everything is designed to cost nothing when tracing is off: callers
receive :data:`NULL_TRACER` by default, whose ``span``/``event`` are
no-ops, and hot loops guard event construction behind
``tracer.enabled`` so the attribute dicts are never built.

Exports: :meth:`Tracer.to_dict` (plain JSON) and
:meth:`Tracer.to_chrome_trace` (the Chrome ``chrome://tracing`` /
Perfetto "Trace Event Format": complete ``X`` events for spans,
instant ``i`` events for events), both loadable without this library.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanEvent", "Tracer", "NullTracer", "NULL_TRACER"]


class SpanEvent:
    """A point-in-time observation attached to a span."""

    __slots__ = ("name", "at", "attributes")

    def __init__(self, name: str, at: float, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.at = at
        self.attributes = attributes

    def to_dict(self) -> dict:
        payload = {"name": self.name, "at": round(self.at, 9)}
        if self.attributes:
            payload["attributes"] = self.attributes
        return payload


class Span:
    """One timed region; doubles as its own context manager."""

    __slots__ = (
        "tracer",
        "name",
        "index",
        "parent",
        "start",
        "end",
        "attributes",
        "events",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        index: int,
        parent: Optional[int],
        attributes: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.index = index
        self.parent = parent
        self.attributes = attributes
        self.events: List[SpanEvent] = []
        self.start = 0.0
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attributes: Any) -> None:
        """Attach or overwrite attributes on the span."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        self.tracer._stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.attributes["error"] = f"{exc_type.__name__}: {exc}"

    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "start": round(self.start, 9),
            "duration_ms": round(self.duration * 1000, 6),
        }
        if self.attributes:
            payload["attributes"] = self.attributes
        if self.events:
            payload["events"] = [event.to_dict() for event in self.events]
        return payload


class Tracer:
    """Collects a tree of spans plus their events.

    A tracer can carry child tracers, one per *lane*: the distributed
    fixpoint gives every shard its own thread-confined tracer and
    adopts them into the coordinator's (:meth:`adopt`/:meth:`child`),
    so one request's spans stitch into a single trace —
    :meth:`to_chrome_trace` renders each lane as its own ``tid`` row
    (a coordinator lane plus one per shard), all against one shared
    time origin.  ``trace_id`` names the whole stitched trace; child
    lanes inherit it.
    """

    enabled = True

    def __init__(
        self,
        trace_id: Optional[str] = None,
        lane: Optional[str] = None,
        max_spans: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        self.lane = lane
        #: Optional capacity cap: once ``max_spans`` spans exist, new
        #: spans become shared no-op spans and new events are dropped
        #: (counted), so a single long-running request — 10k fixpoint
        #: rounds each opening a round span — has a hard memory
        #: ceiling.  ``None`` keeps the historical unbounded behavior.
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.dropped_events = 0
        self.spans: List[Span] = []
        #: Events fired while no span was open.
        self.orphan_events: List[SpanEvent] = []
        #: Lane name -> adopted child tracer (insertion-ordered; the
        #: Chrome export assigns tids in this order).
        self.children: Dict[str, "Tracer"] = {}
        self._stack: List[int] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span: ``with tracer.span("rewrite", query=...):``."""
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return _OVERFLOW_SPAN  # type: ignore[return-value]
        parent = self._stack[-1] if self._stack else None
        span = Span(self, name, len(self.spans), parent, attributes)
        self.spans.append(span)
        return span

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point event on the currently open span."""
        sink = (
            self.spans[self._stack[-1]].events
            if self._stack
            else self.orphan_events
        )
        if self.max_spans is not None and len(sink) >= self.max_spans:
            self.dropped_events += 1
            return
        sink.append(SpanEvent(name, time.perf_counter(), attributes))

    # -- lanes --------------------------------------------------------------

    def child(self, lane: str) -> "Tracer":
        """Create and adopt a child tracer for ``lane`` (e.g.
        ``"shard0"``).  The child inherits the trace id and is safe to
        record into from another thread — it has its own span stack —
        as long as one thread owns it at a time."""
        tracer = Tracer(
            trace_id=self.trace_id, lane=lane, max_spans=self.max_spans
        )
        self.adopt(lane, tracer)
        return tracer

    def adopt(self, lane: str, tracer: "Tracer") -> None:
        """Stitch an independently recorded tracer in as a lane."""
        tracer.lane = lane
        if tracer.trace_id is None:
            tracer.trace_id = self.trace_id
        self.children[lane] = tracer

    # -- queries ------------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All spans with the given name."""
        return [span for span in self.spans if span.name == name]

    def events_named(self, name: str) -> List[SpanEvent]:
        """All events with the given name, across every span."""
        found = [e for e in self.orphan_events if e.name == name]
        for span in self.spans:
            found.extend(e for e in span.events if e.name == name)
        return found

    # -- exports ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serializable form (spans in creation order)."""
        payload: Dict[str, Any] = {
            "spans": [span.to_dict() for span in self.spans],
            "orphan_events": [e.to_dict() for e in self.orphan_events],
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.lane is not None:
            payload["lane"] = self.lane
        if self.dropped_spans:
            payload["dropped_spans"] = self.dropped_spans
        if self.dropped_events:
            payload["dropped_events"] = self.dropped_events
        if self.children:
            payload["lanes"] = {
                lane: child.to_dict()
                for lane, child in self.children.items()
            }
        return payload

    def _lanes(self) -> List[tuple]:
        """``(tid, lane_name, tracer)`` rows: this tracer on tid 1
        (the coordinator lane when children exist), children on 2..N
        in adoption order."""
        lanes = [(1, self.lane or ("coordinator" if self.children else "main"), self)]
        for index, (lane, child) in enumerate(self.children.items()):
            lanes.append((2 + index, lane, child))
        return lanes

    def to_chrome_trace(self) -> dict:
        """The Chrome Trace Event Format (open in ``chrome://tracing``
        or https://ui.perfetto.dev): spans become complete ``X``
        events, span events become instant ``i`` events.  Adopted lane
        tracers are stitched in against one shared time origin, each
        lane on its own ``tid`` with a ``thread_name`` metadata row."""
        lanes = self._lanes()
        origin = min(
            (
                span.start
                for _tid, _name, tracer in lanes
                for span in tracer.spans
                if span.start
            ),
            default=0.0,
        )

        def micros(seconds: float) -> float:
            return round((seconds - origin) * 1e6, 3)

        trace_events: List[dict] = []
        if self.children or self.lane:
            for tid, name, _tracer in lanes:
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": name},
                    }
                )
        for tid, _name, tracer in lanes:
            common = {}
            if tracer.trace_id is not None:
                common["trace_id"] = tracer.trace_id
            for span in tracer.spans:
                end = span.end if span.end is not None else span.start
                trace_events.append(
                    {
                        "name": span.name,
                        "cat": "repro",
                        "ph": "X",
                        "ts": micros(span.start),
                        "dur": round((end - span.start) * 1e6, 3),
                        "pid": 1,
                        "tid": tid,
                        "args": {**common, **_chrome_args(span.attributes)},
                    }
                )
                for event in span.events:
                    trace_events.append(
                        {
                            "name": event.name,
                            "cat": "repro",
                            "ph": "i",
                            "s": "t",
                            "ts": micros(event.at),
                            "pid": 1,
                            "tid": tid,
                            "args": _chrome_args(event.attributes),
                        }
                    )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _chrome_args(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome-trace args must be JSON scalars; stringify the rest."""
    return {
        key: value
        if isinstance(value, (str, int, float, bool)) or value is None
        else str(value)
        for key, value in attributes.items()
    }


class _NullSpan:
    """Span stand-in that does nothing; reused for every call."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared span handed out once a capped tracer is full — keeps the
#: ``with tracer.span(...)`` call shape working while recording nothing.
#: It never touches the tracer's span stack, so events fired inside it
#: attach to the nearest real open span (and count against its cap).
_OVERFLOW_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot paths should still guard per-item ``event`` calls behind
    ``tracer.enabled`` so keyword dicts are never even built.
    """

    enabled = False

    _SPAN = _NullSpan()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return self._SPAN

    def event(self, name: str, **attributes: Any) -> None:
        pass


#: Shared disabled tracer; the default everywhere a tracer is accepted.
NULL_TRACER = NullTracer()
