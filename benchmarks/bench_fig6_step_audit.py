"""FIG6 — structural audit of the optimization steps.

Figure 6 summarizes the four steps: their granularity, strategy and
the PT node types each generates::

    rewrite      | entire query (graph) | irrevocable       | Fix, Union
    translate    | one arc              | cost-based        | IJ, PIJ
    generatePT   | one predicate node   | cost-based (gen.) | EJ, Sel
    transformPT  | entire query (PT)    | cost-based (tr.)  | none

The audit runs the pipeline over a query corpus and verifies each row:
rewrite introduces only Fix/Union operators at the graph level;
translation's hops realize only IJ/PIJ nodes; generatePT adds only
EJ/Sel (and the output Proj); and transformPT introduces **no new node
types** — it only repositions existing operators.
"""

import pytest

from repro.core import Optimizer, OptimizerConfig, rewrite
from repro.core.generate import SPJGenerator
from repro.core.transform import transform_candidates
from repro.core.translate import Translator
from repro.cost import DetailedCostModel
from repro.plans import (
    EJ,
    IJ,
    PIJ,
    EntityLeaf,
    Fix,
    Materialize,
    Proj,
    RecLeaf,
    Sel,
    TempLeaf,
    UnionOp,
)
from repro.querygraph.graph import FixNode, SPJNode, UnionNode
from repro.workloads import (
    MusicConfig,
    fig2_query,
    fig3_query,
    generate_music_database,
    join_push_query,
)


def corpus():
    return [fig2_query(), fig3_query(), join_push_query()]


@pytest.fixture(scope="module")
def db():
    database = generate_music_database(
        MusicConfig(lineages=6, generations=7, seed=61)
    )
    database.build_paper_indexes()
    return database


def node_types(plan):
    return {type(node).__name__ for node in plan.walk()}


def test_rewrite_row(db, benchmark, report, table):
    """rewrite: granule = whole graph; generates Fix and Union only."""

    def audit():
        introduced = set()
        for graph in corpus():
            before = {type(r.node).__name__ for r in graph.rules}
            rewritten = rewrite(graph)

            def walk_types(node):
                yield type(node).__name__
                if isinstance(node, UnionNode):
                    for part in node.parts:
                        yield from walk_types(part)
                if isinstance(node, FixNode):
                    yield from walk_types(node.body)

            after = set()
            for produced_rule in rewritten.rules:
                after |= set(walk_types(produced_rule.node))
            introduced |= after - before
        return introduced

    introduced = benchmark(audit)
    assert introduced <= {"FixNode", "UnionNode"}, introduced


def test_translate_row(db, benchmark):
    """translate: granule = one arc; hops realize IJ/PIJ only."""
    translator = Translator(
        db.physical,
        {"Influencer": {"master": "Composer", "disciple": "Composer", "gen": None}},
    )

    def audit():
        hop_counts = []
        for graph in corpus():
            for produced_rule in graph.rules:
                node = produced_rule.node
                if not isinstance(node, SPJNode):
                    continue
                translated = translator.translate_node(node)
                for translated_arc in translated.arcs:
                    hop_counts.append(len(translated_arc.hops))
        return hop_counts

    hop_counts = benchmark(audit)
    assert any(count > 0 for count in hop_counts)


def test_generate_row(db, benchmark):
    """generatePT: granule = one predicate node; adds EJ/Sel (+Proj)."""
    translator = Translator(db.physical)
    model = DetailedCostModel(db.physical)
    generator = SPJGenerator(db.physical, model)
    graph = fig2_query()
    node = graph.producers_of("Answer")[0].node
    translated = translator.translate_node(node)
    sources = [
        EntityLeaf(a.entity, a.root_var) for a in translated.arcs
    ]

    def audit():
        generated = generator.generate(translated, sources)
        return node_types(generated.plan)

    types = benchmark(audit)
    allowed = {"Proj", "Sel", "IJ", "PIJ", "EJ", "EntityLeaf"}
    assert types <= allowed, types


def test_transform_row(db, benchmark, report, table):
    """transformPT: granule = whole PT; introduces NO new node types."""
    model = DetailedCostModel(db.physical)

    def audit():
        rows = []
        for graph in corpus():
            base = Optimizer(
                db.physical,
                model,
                OptimizerConfig(push_policy="never"),
            ).optimize(graph)
            before_types = node_types(base.plan)
            for description, candidate in transform_candidates(base.plan):
                new_types = node_types(candidate) - before_types
                rows.append((description[:40], sorted(new_types)))
                assert not new_types, (
                    f"transformPT introduced node types {new_types}"
                )
        return rows

    rows = benchmark(audit)
    report(
        "fig6_step_audit",
        table(
            ["transform candidate", "new node types"],
            [[description, types or "none"] for description, types in rows],
        ),
    )
