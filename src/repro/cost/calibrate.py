"""Cost-model calibration: fit unit weights from measured executions.

The paper's cost constants (``pr``, ``ev``, ...) are parameters "of the
physical schema description"; on a real system they are measured, not
guessed.  This module closes that loop for the simulator: it runs a
probe workload, records per-plan *event counts* (physical page reads,
index page reads, predicate evaluations, weighted method invocations,
output tuples) next to a target cost (by default the simulator's ground
truth with reference weights, but any timing source works), and fits
per-event unit weights by non-negative least squares.

The fitted :class:`CalibratedWeights` convert a
:class:`~repro.engine.metrics.RuntimeMetrics` into cost, and map onto
:class:`~repro.cost.params.CostParameters`, so the detailed model can
be re-based on measured machine constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy

from repro.cost.params import CostParameters
from repro.engine.evaluator import Engine
from repro.engine.metrics import RuntimeMetrics
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import PlanNode

__all__ = [
    "ProbeResult",
    "CalibratedWeights",
    "collect_probes",
    "fit_weights",
    "calibrate",
    "events_of",
    "fit_from_samples",
]

EVENT_NAMES = (
    "physical_reads",
    "index_page_reads",
    "predicate_evals",
    "method_weight",
    "tuples",
    "batches",
    #: Columnar-ABI feature: referenced-column touches (width of the
    #: columns a node reads × its input tuples, metered
    #: layout-invariantly), the runtime twin of the model's
    #: ``column_touch`` term.
    "column_touches",
    #: Distributed-exchange features (zero on single-store runs): the
    #: wire tuples and frames of both scatter-gather legs, the runtime
    #: twins of the distributed model's network terms.
    "exchange_tuples",
    "exchange_frames",
)


@dataclass
class ProbeResult:
    """Event counts and target cost for one probe execution."""

    label: str
    events: Dict[str, float]
    target_cost: float

    def vector(self) -> List[float]:
        return [self.events[name] for name in EVENT_NAMES]


@dataclass
class CalibratedWeights:
    """Per-event unit weights fitted from probe runs."""

    weights: Dict[str, float]
    residual: float

    def cost_of(self, metrics: RuntimeMetrics) -> float:
        """Cost of a measured run under the fitted weights."""
        events = events_of(metrics)
        # Weights fitted before an event existed price it at zero.
        return sum(
            self.weights.get(name, 0.0) * value
            for name, value in events.items()
        )

    def to_parameters(self, base: Optional[CostParameters] = None) -> CostParameters:
        """Project the fitted weights onto detailed-model parameters."""
        base = base or CostParameters()
        return replace(
            base,
            page_read=max(self.weights["physical_reads"], 1e-9),
            eval_per_tuple=max(self.weights["predicate_evals"], 1e-9),
            tuple_cpu=max(self.weights["tuples"], 1e-9),
            index_page=max(self.weights["index_page_reads"], 1e-9),
            # Weights fitted before the batches event existed fall back
            # to the reference per-batch charge.
            batch_overhead=max(
                self.weights.get("batches", base.batch_overhead), 1e-9
            ),
            # Same fallback contract as ``batches``: weights fitted
            # before the column_touches event existed keep the
            # reference per-column-touch charge.
            column_touch=max(
                self.weights.get("column_touches", base.column_touch), 1e-9
            ),
            # Network weights: a workload that never ran sharded leaves
            # the exchange columns zero — keep the base charges rather
            # than zeroing the distributed model's network terms.
            network_per_tuple=(
                self.weights.get("exchange_tuples", 0.0)
                or base.network_per_tuple
            ),
            network_per_round=(
                self.weights.get("exchange_frames", 0.0)
                or base.network_per_round
            ),
        )


def events_of(metrics: RuntimeMetrics) -> Dict[str, float]:
    """The calibration feature vector of one measured run."""
    return {
        "physical_reads": float(metrics.buffer.physical_reads),
        "index_page_reads": float(metrics.index_page_reads),
        "predicate_evals": float(metrics.predicate_evals),
        "method_weight": float(metrics.method_eval_weight),
        "tuples": float(metrics.total_tuples),
        "batches": float(metrics.batches),
        "column_touches": float(metrics.column_touches),
        "exchange_tuples": float(metrics.exchange_tuples),
        "exchange_frames": float(metrics.exchange_frames),
    }


def collect_probes(
    physical: PhysicalSchema,
    plans: Sequence[Tuple[str, PlanNode]],
    target_fn: Optional[Callable[[RuntimeMetrics], float]] = None,
    cold: bool = True,
) -> List[ProbeResult]:
    """Execute probe plans and record (events, target cost) pairs.

    ``target_fn`` maps a run's metrics to the cost to fit against; the
    default is the simulator's reference weighting
    (:data:`~repro.engine.metrics.PAGE_READ_COST` per page read,
    :data:`~repro.engine.metrics.EVAL_COST` per evaluation), standing in for wall-clock time on a real
    system."""
    if target_fn is None:
        target_fn = lambda metrics: metrics.measured_cost()
    engine = Engine(physical)
    probes: List[ProbeResult] = []
    for label, plan in plans:
        if cold:
            physical.store.buffer.clear()
        result = engine.execute(plan)
        probes.append(
            ProbeResult(
                label,
                events_of(result.metrics),
                target_fn(result.metrics),
            )
        )
    return probes


def _feature_priors() -> Dict[str, float]:
    """Reference unit weight per feature (the ``CostParameters``
    defaults): the anchor the rank-deficient directions of a fit fall
    back to."""
    base = CostParameters()
    return {
        "physical_reads": base.page_read,
        "index_page_reads": base.index_page,
        "predicate_evals": base.eval_per_tuple,
        "method_weight": base.eval_per_tuple,
        "tuples": base.tuple_cpu,
        "batches": base.batch_overhead,
        "column_touches": base.column_touch,
        "exchange_tuples": base.network_per_tuple,
        "exchange_frames": base.network_per_round,
    }


def fit_weights(probes: Sequence[ProbeResult]) -> CalibratedWeights:
    """Non-negative least-squares fit of per-event unit weights.

    Uses projected alternating least squares (clip-to-zero iterations on
    top of ``numpy.linalg.lstsq``), which is ample for a handful of
    well-scaled features.

    Probe workloads are often rank-deficient — a history of three
    query shapes cannot identify nine features, and several features
    (predicate evaluations, column touches, output tuples) are near
    collinear on uniform workloads.  A plain min-norm solution is then
    arbitrary within the unidentified subspace, so the fit is anchored:
    a ridge term far below the data scale pulls exactly those
    directions the probes say nothing about toward the reference
    :class:`CostParameters` weights, leaving well-determined directions
    untouched."""
    if probes:
        matrix = numpy.array([probe.vector() for probe in probes], dtype=float)
        # The fit only has to be determined over the features the
        # workload actually exercised (non-zero columns) — a purely
        # single-store probe set never pays for the distributed
        # features it cannot see.
        exercised = int((numpy.abs(matrix) > 0).any(axis=0).sum())
    else:
        matrix = numpy.zeros((0, len(EVENT_NAMES)))
        exercised = len(EVENT_NAMES)
    needed = max(1, exercised)
    if len(probes) < needed:
        raise ValueError(
            f"need at least {needed} probes for the {needed} exercised "
            f"features, got {len(probes)}"
        )
    target = numpy.array([probe.target_cost for probe in probes], dtype=float)
    priors = _feature_priors()
    prior = numpy.array(
        [priors.get(name, 0.0) for name in EVENT_NAMES], dtype=float
    )
    scale = float(numpy.abs(matrix).max()) if matrix.size else 0.0
    ridge = 1e-6 * max(scale, 1.0)
    anchor = ridge * numpy.eye(len(EVENT_NAMES))

    def solve(columns: numpy.ndarray) -> numpy.ndarray:
        design = numpy.vstack([matrix[:, columns], anchor[:, columns][columns]])
        response = numpy.concatenate([target, ridge * prior[columns]])
        solution, *_rest = numpy.linalg.lstsq(design, response, rcond=None)
        return solution

    everything = numpy.ones(len(EVENT_NAMES), dtype=bool)
    solution = numpy.clip(solve(everything), 0.0, None)
    # One refit pass on the active (non-zero) features to repair the
    # clipping bias.
    active = solution > 0
    if active.any() and not active.all():
        refit = numpy.clip(solve(active), 0.0, None)
        solution = numpy.zeros_like(solution)
        solution[active] = refit
    residual = float(
        numpy.linalg.norm(matrix @ solution - target)
        / max(numpy.linalg.norm(target), 1e-12)
    )
    weights = {
        name: float(value) for name, value in zip(EVENT_NAMES, solution)
    }
    return CalibratedWeights(weights, residual)


def calibrate(
    physical: PhysicalSchema,
    plans: Sequence[Tuple[str, PlanNode]],
    target_fn: Optional[Callable[[RuntimeMetrics], float]] = None,
) -> CalibratedWeights:
    """Convenience: collect probes and fit in one call."""
    return fit_weights(collect_probes(physical, plans, target_fn))


def fit_from_samples(samples: Sequence[Dict[str, float]]) -> CalibratedWeights:
    """Fit unit weights from recorded samples instead of live probes.

    Each sample is a mapping with the :data:`EVENT_NAMES` feature
    counts plus a ``target`` cost — exactly what
    :meth:`repro.obs.history.QueryTelemetryStore.calibration_samples`
    yields, so the service can recalibrate from accumulated production
    telemetry (the *online* counterpart of :func:`calibrate`).

    An optional per-sample ``weight`` (the overhead governor's inverse
    sampling probability) turns the fit into weighted least squares: a
    run admitted at 1-in-*k* head sampling stands for *k* unseen runs
    of its class.  The model is linear through the origin, so scaling
    each feature row and its target by ``sqrt(weight)`` implements the
    weighting exactly; unweighted samples (weight 1.0) are unchanged,
    and a feature that is zero stays zero, so the exercised-feature
    count in :func:`fit_weights` is unaffected.
    """
    probes = []
    for index, sample in enumerate(samples):
        weight = float(sample.get("weight", 1.0))
        scale = weight**0.5 if weight > 0.0 else 1.0
        probes.append(
            ProbeResult(
                label=str(sample.get("label", f"sample{index}")),
                events={
                    name: float(sample.get(name, 0.0)) * scale
                    for name in EVENT_NAMES
                },
                target_cost=float(sample["target"]) * scale,
            )
        )
    return fit_weights(probes)
