"""The flight recorder: self-contained diagnostic bundles + replay.

When an operator asks with ``repro diagnose``, the service runs the
query at full detail and snapshots everything needed to debug and
*re-execute* the request on another machine into one JSON bundle:

.. code-block:: text

    bundle_version      schema version of this format (currently 2)
    created_at          unix seconds
    reason              "diagnose"
    request_id          service request id (when recorded in-service)
    query               {text, canonical, class}
    plan                {fingerprint (canonical), rendered,
                        estimated_cost}
    knobs               {batch_size, shards, max_fix_iterations,
                        strategy} (no ``strategy``: the default "ii")
    cost_parameters     the CostParameters the optimizer priced with,
                        buffer_pages / temp_records_per_page resolved
                        against the recorded store, so replay prices
                        the recorded machine
    database            the seeded generator recipe the store was
                        built from ({db, seed, lineages, generations,
                        selectivity, buffer_pages}) — replay rebuilds
                        an identical store from it
    store               {schema, stats} fingerprints of the live store
    execution           {row_count, answer_fingerprint, measured_cost,
                         execute_ms, fix_iterations}
    trace               the run's trace (optional)
    profile             the run's per-node profile (optional)
    telemetry           recent observation window for the plan
    environment         python/platform strings

Bundles written before the overhead governor and anomaly detector were
retired may also carry ``reason: "anomaly"``, ``anomalies``,
``sampling`` and ``baselines``; nothing reads them, so such a bundle
loads and replays like any other.

Everything in the bundle is derived from *seeded* inputs — the
generator recipe rebuilds a bit-identical store, and every transformPT
strategy is deterministic or seeded — so :func:`replay_bundle`
re-plans and re-executes through the serving pipeline
(``QueryService.plan`` → ``execute``) with the recorded strategy,
cost parameters and knobs, and asserts both the plan fingerprint and
the answer-set fingerprint match the originals.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "BUNDLE_VERSION",
    "FlightRecorder",
    "answer_fingerprint",
    "build_bundle",
    "database_from_config",
    "load_bundle",
    "replay_bundle",
]

BUNDLE_VERSION = 2


def answer_fingerprint(rows: List[dict]) -> str:
    """Order-insensitive digest of an answer set.

    Canonicalizes every binding (records collapse to oids, keys
    sorted), sorts the canonical rows, and hashes their reprs — stable
    across processes for the seeded stores replay rebuilds.
    """

    from repro.engine.eval_expr import canonical_row

    hasher = hashlib.sha256()
    for line in sorted(repr(canonical_row(row)) for row in rows):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()[:16]


def database_from_config(config: Dict[str, Any]):
    """Rebuild a workload database from its bundle recipe.

    The same helper backs ``repro run``'s database construction, so a
    bundle recorded by the service replays against a bit-identical
    store.
    """

    from repro.workloads import (
        MusicConfig,
        PartsConfig,
        generate_music_database,
        generate_parts_database,
    )

    kind = config.get("db", "music")
    seed = int(config.get("seed", 1992))
    lineages = int(config.get("lineages", 8))
    generations = int(config.get("generations", 8))
    if kind == "parts":
        return generate_parts_database(
            PartsConfig(
                assemblies=max(1, lineages // 2),
                depth=max(2, generations // 2),
                seed=seed,
            )
        )
    db = generate_music_database(
        MusicConfig(
            lineages=lineages,
            generations=generations,
            selective_fraction=float(config.get("selectivity", 0.15)),
            buffer_pages=int(config.get("buffer_pages", 256)),
            seed=seed,
        )
    )
    db.build_paper_indexes()
    return db


def build_bundle(
    *,
    query_text: str,
    canonical: str,
    query_cls: str,
    plan,
    fingerprint: str,
    estimated_cost: float,
    rows: List[dict],
    measured_cost: float,
    execute_seconds: float,
    fix_iterations: int,
    knobs: Dict[str, Any],
    physical,
    database: Optional[Dict[str, Any]] = None,
    cost_parameters: Optional[Any] = None,
    request_id: Optional[int] = None,
    trace: Optional[dict] = None,
    profile: Optional[dict] = None,
    telemetry: Optional[dict] = None,
) -> Dict[str, Any]:
    """Assemble one self-contained diagnostic bundle."""

    # Imported lazily: repro.service.plan_cache sits above this module
    # in the import graph (the service imports the recorder).
    from dataclasses import asdict

    from repro.cost.params import CostParameters
    from repro.plans import render_tree
    from repro.service.plan_cache import schema_fingerprint, stats_fingerprint

    bundle: Dict[str, Any] = {
        "bundle_version": BUNDLE_VERSION,
        "created_at": round(time.time(), 3),
        "reason": "diagnose",
        "request_id": request_id,
        "query": {
            "text": query_text,
            "canonical": canonical,
            "class": query_cls,
        },
        "plan": {
            "fingerprint": fingerprint,
            "rendered": render_tree(plan),
            "estimated_cost": round(estimated_cost, 4),
        },
        "knobs": dict(knobs),
        "cost_parameters": asdict(
            (cost_parameters or CostParameters()).resolved(physical.store)
        ),
        "database": dict(database) if database else None,
        "store": {
            "schema": schema_fingerprint(physical),
            "stats": stats_fingerprint(physical),
        },
        "execution": {
            "row_count": len(rows),
            "answer_fingerprint": answer_fingerprint(rows),
            "measured_cost": round(measured_cost, 4),
            "execute_ms": round(execute_seconds * 1000, 3),
            "fix_iterations": fix_iterations,
        },
        "trace": trace,
        "profile": profile,
        "telemetry": telemetry,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    return bundle


class FlightRecorder:
    """Writes bundles to a directory (or keeps them in memory only).

    Caps both the total bundles written and the bundles per query
    class, so repeated diagnoses of one class cannot fill the disk or
    drown out other classes.  Thread-safe.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_bundles: int = 64,
        per_class: int = 4,
        keep_recent: int = 8,
    ) -> None:
        self.directory = directory
        self.max_bundles = max_bundles
        self.per_class = per_class
        self._lock = threading.Lock()
        self._by_class: Dict[str, int] = {}
        self.written = 0
        self.suppressed = 0
        #: Most recent bundles, newest last — the ``diagnose`` op can
        #: hand them out even when no directory is configured.
        self.recent: "deque[Dict[str, Any]]" = deque(maxlen=keep_recent)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def record(self, bundle: Dict[str, Any]) -> Optional[str]:
        """Persist *bundle*; returns its path (None when memory-only
        or suppressed by the caps)."""

        query_cls = bundle.get("query", {}).get("class", "unknown")
        with self._lock:
            count = self._by_class.get(query_cls, 0)
            if self.written >= self.max_bundles or count >= self.per_class:
                self.suppressed += 1
                return None
            self._by_class[query_cls] = count + 1
            self.written += 1
            self.recent.append(bundle)
            serial = self.written
        if not self.directory:
            return None
        name = f"bundle-{query_cls or 'unknown'}-{serial:04d}.json"
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, default=str)
        return path

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": self.directory,
                "written": self.written,
                "suppressed": self.suppressed,
                "by_class": dict(self._by_class),
            }


def load_bundle(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    version = bundle.get("bundle_version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported bundle_version {version!r} (expected {BUNDLE_VERSION})"
        )
    return bundle


#: The bundle knobs replay hands to the service; fields of retired
#: knobs (``batch_layout``, ``parallelism``) are dropped, so an older
#: bundle replays on the current engine (retiring a knob does not bump
#: ``bundle_version``).
_REPLAY_KNOBS = ("batch_size", "shards", "max_fix_iterations", "strategy")


def replay_bundle(bundle: Dict[str, Any], database=None) -> Dict[str, Any]:
    """Deterministically re-execute a bundle; returns a match report.

    Rebuilds the store from the bundle's generator recipe (unless a
    prebuilt *database* is supplied) and runs the recorded query
    through the serving pipeline — :meth:`QueryService.plan` under the
    recorded cost parameters and strategy (II's restarts are seeded,
    so this is deterministic), then :meth:`QueryService.execute` under
    the recorded knobs — and compares plan fingerprint and answer-set
    fingerprint against the originals.
    """

    import dataclasses

    from repro.cost.params import CostParameters
    from repro.plans.canonical import canonical_fingerprint
    from repro.service.plan_cache import schema_fingerprint
    from repro.service.server import QueryService, ServiceConfig

    if database is None:
        recipe = bundle.get("database")
        if not recipe:
            raise ValueError(
                "bundle carries no database recipe; pass a prebuilt database"
            )
        database = database_from_config(recipe)

    report: Dict[str, Any] = {
        "schema_match": schema_fingerprint(database.physical)
        == bundle["store"]["schema"],
    }

    knobs = bundle.get("knobs", {})
    config = ServiceConfig(
        feedback_enabled=False,
        **{name: knobs[name] for name in _REPLAY_KNOBS if knobs.get(name)},
    )
    # One slot per shard, so admission grants the recorded width.
    config.max_concurrent = config.shards
    params, width = None, None
    params_dict = bundle.get("cost_parameters")
    if params_dict is not None:
        known = {f.name for f in dataclasses.fields(CostParameters)}
        params = CostParameters(
            **{k: v for k, v in params_dict.items() if k in known}
        )
        # The plan was priced at the recorded parameters' width (a
        # cached plan at the service's fan-out, whatever width ran it).
        width = params.shards
    service = QueryService(database, config)
    try:
        planned = service.plan(
            bundle["query"]["text"], width=width, fresh=True, cost_params=params
        )
        run = service.execute(planned, shards=config.shards)
    finally:
        service.close()
    replayed_fp = canonical_fingerprint(planned.plan)
    replayed_answer = answer_fingerprint(run.execution.rows)

    expected_fp = bundle["plan"]["fingerprint"]
    expected_answer = bundle["execution"]["answer_fingerprint"]
    report.update(
        {
            "fingerprint": replayed_fp,
            "expected_fingerprint": expected_fp,
            "plan_match": replayed_fp == expected_fp,
            "answer_fingerprint": replayed_answer,
            "expected_answer_fingerprint": expected_answer,
            "answer_match": replayed_answer == expected_answer,
            "row_count": len(run.execution.rows),
            "expected_row_count": bundle["execution"]["row_count"],
            "estimated_cost": round(planned.estimated, 4),
            "fix_iterations": run.execution.metrics.fix_iterations,
        }
    )
    report["matched"] = bool(report["plan_match"] and report["answer_match"])
    return report
