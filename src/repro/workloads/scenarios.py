"""Parameter-sweep scenarios: reusable experiment drivers.

The benchmarks regenerate the paper's artifacts; this module exposes
the same sweeps as a library API so users can run them on their own
parameter grids (and so examples can print compact tables).

Each sweep returns a list of result dictionaries; nothing is printed —
callers format as they wish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core import (
    cost_controlled_optimizer,
    deductive_optimizer,
    naive_optimizer,
)
from repro.cost import CostParameters, DetailedCostModel
from repro.engine import Engine, ReferenceEvaluator
from repro.querygraph.graph import QueryGraph
from repro.workloads.generator import MusicConfig, generate_music_database
from repro.workloads.queries import fig3_query

__all__ = ["PushComparison", "selection_push_sweep", "compare_push_policies"]


@dataclass
class PushComparison:
    """Measured/estimated costs of the pushed vs unpushed plan for one
    database configuration."""

    config: MusicConfig
    estimated_unpushed: float
    estimated_pushed: float
    measured_unpushed: float
    measured_pushed: float
    answers: int

    @property
    def measured_winner(self) -> str:
        return (
            "push"
            if self.measured_pushed < self.measured_unpushed
            else "no-push"
        )

    @property
    def model_winner(self) -> str:
        return (
            "push"
            if self.estimated_pushed < self.estimated_unpushed
            else "no-push"
        )

    @property
    def model_agrees(self) -> bool:
        return self.measured_winner == self.model_winner


def compare_push_policies(
    config: MusicConfig,
    graph_factory: Callable[[], QueryGraph] = fig3_query,
    buffer_pages: Optional[int] = None,
) -> PushComparison:
    """Build a database from ``config`` and compare both Figure 4
    plans, cold, under model and measurement."""
    db = generate_music_database(config)
    db.build_paper_indexes()
    model = DetailedCostModel(
        db.physical, CostParameters(buffer_pages=buffer_pages)
    )
    graph = graph_factory()
    unpushed = naive_optimizer(db.physical, model).optimize(graph)
    pushed = deductive_optimizer(db.physical, model).optimize(graph)
    engine = Engine(db.physical)
    db.store.buffer.clear()
    run_unpushed = engine.execute(unpushed.plan)
    db.store.buffer.clear()
    run_pushed = engine.execute(pushed.plan)
    if run_unpushed.answer_set() != run_pushed.answer_set():
        raise AssertionError("push transformation changed the answers")
    return PushComparison(
        config=config,
        estimated_unpushed=unpushed.cost,
        estimated_pushed=pushed.cost,
        measured_unpushed=run_unpushed.metrics.measured_cost(),
        measured_pushed=run_pushed.metrics.measured_cost(),
        answers=len(run_unpushed.rows),
    )


def selection_push_sweep(
    fractions: Sequence[float],
    base_config: Optional[MusicConfig] = None,
    graph_factory: Callable[[], QueryGraph] = fig3_query,
) -> List[PushComparison]:
    """The CLAIM-SELPUSH sweep: vary the selective instrument's
    frequency and compare pushed vs unpushed plans per point."""
    if base_config is None:
        base_config = MusicConfig(
            lineages=10, generations=9, works_per_composer=3, buffer_pages=4
        )
    results: List[PushComparison] = []
    for fraction in fractions:
        config = MusicConfig(
            lineages=base_config.lineages,
            generations=base_config.generations,
            works_per_composer=base_config.works_per_composer,
            instruments=base_config.instruments,
            instruments_per_work=base_config.instruments_per_work,
            selective_fraction=fraction,
            records_per_page=base_config.records_per_page,
            buffer_pages=base_config.buffer_pages,
            seed=base_config.seed,
        )
        results.append(
            compare_push_policies(config, graph_factory)
        )
    return results
