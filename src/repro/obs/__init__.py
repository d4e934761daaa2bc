"""Observability: search traces, runtime profiles, EXPLAIN ANALYZE.

The paper's whole argument is *cost-controlled* search: push/no-push
decisions justified by comparing costed Processing Trees.  This package
makes those decisions — and their runtime consequences — inspectable:

* :mod:`repro.obs.trace` — a lightweight span tracer threaded through
  the optimizer's four phases (rewrite, translate, generatePT,
  transformPT) and the search strategies, so the full plan-space
  walk is reconstructable, exportable as JSON or Chrome
  ``chrome://tracing`` format (the only Chrome exporter: a sharded
  run stitches one lane per shard into the same trace);
* :mod:`repro.obs.profile` — per-operator runtime profiling of plan
  execution (tuples out, page reads, predicate evaluations, wall time
  per PT node, per-Fix-iteration deltas);
* :mod:`repro.obs.explain` — merges the cost model's per-node
  estimates with the profiler's actuals into an ``EXPLAIN ANALYZE``
  tree (the continuous Figure 5/6 estimated-vs-measured audit),
  exported as JSON;
* :mod:`repro.obs.history` — the persistent
  :class:`~repro.obs.history.QueryTelemetryStore`: per plan
  fingerprint and per operator, estimated vs. measured cardinalities,
  reads, evaluations and wall time, bounded in memory and persistable
  as JSONL across restarts;
* :mod:`repro.obs.feedback` — the control loop on top of the store:
  online cost-model recalibration from production actuals and
  plan-regression detection with pinning support;
* :mod:`repro.obs.recorder` — the flight recorder: self-contained
  ``repro diagnose`` bundles replayed deterministically by ``repro replay``
  through the serving pipeline (``QueryService.plan`` → ``execute``);
* :mod:`repro.obs.log` — the unified structured (JSON or text) logging
  used across the service, distribution and engine layers.

One rule decides how much detail a served query gets: the service
profiles every ``profile_sample_every``-th query (deterministic 1-in-N;
0 profiles none).  ``explain --analyze``, ``trace`` and ``diagnose``
always run at full detail.
"""

from repro.obs.explain import ExplainNode, build_explain, render_explain
from repro.obs.feedback import (
    FeedbackConfig,
    FeedbackManager,
    PlanChange,
    build_observation,
    operator_estimates,
    plan_diff,
)
from repro.obs.history import (
    Observation,
    OperatorActual,
    OperatorEstimate,
    PlanHistory,
    QueryTelemetryStore,
)
from repro.obs.log import configure_logging, get_logger
from repro.obs.profile import FixIterationProfile, NodeProfile, PlanProfiler
from repro.obs.progress import ProgressTracker, QueryProgress
from repro.obs.recorder import (
    FlightRecorder,
    build_bundle,
    load_bundle,
    replay_bundle,
)
from repro.obs.trace import NULL_TRACER, Span, SpanEvent, Tracer

__all__ = [
    "Tracer",
    "Span",
    "SpanEvent",
    "NULL_TRACER",
    "PlanProfiler",
    "NodeProfile",
    "FixIterationProfile",
    "build_explain",
    "render_explain",
    "ExplainNode",
    "QueryTelemetryStore",
    "PlanHistory",
    "Observation",
    "OperatorActual",
    "OperatorEstimate",
    "ProgressTracker",
    "QueryProgress",
    "FeedbackConfig",
    "FeedbackManager",
    "PlanChange",
    "build_observation",
    "operator_estimates",
    "plan_diff",
    "FlightRecorder",
    "build_bundle",
    "load_bundle",
    "replay_bundle",
    "configure_logging",
    "get_logger",
]
