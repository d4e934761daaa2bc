"""Tests for the translate step: arcs/paths -> implicit-join hops."""

import pytest

from repro.core.rewrite import rewrite
from repro.core.translate import Translator, produced_shape
from repro.errors import UnknownEntityError
from repro.querygraph.builder import (
    and_,
    arc,
    const,
    eq,
    ge,
    not_,
    out,
    path,
    query,
    rule,
    spj,
    var,
)
from repro.querygraph.predicates import PathRef
from repro.workloads import fig2_query, fig3_query, influencer_rules


@pytest.fixture()
def translator(indexed_db):
    shapes = {
        "Influencer": {
            "master": "Composer",
            "disciple": "Composer",
            "gen": None,
        }
    }
    return Translator(indexed_db.physical, shapes)


class TestArcTranslation:
    def test_root_only_arc_has_no_hops(self, translator):
        node = spj([arc("Composer", x=".")])
        translated = translator.translate_node(node)
        assert translated.arcs[0].root_var == "x"
        assert translated.arcs[0].hops == []
        assert translated.arcs[0].entity == "Composer"

    def test_fig2_tree_label_hops(self, translator):
        graph = fig2_query()
        node = graph.producers_of("Answer")[0].node
        translated = translator.translate_node(node)
        arc0 = translated.arcs[0]
        # works hop + two distinct instruments hops (i1 vs i2 branches).
        attrs = [hop.source.attrs for hop in arc0.hops]
        assert attrs.count(("works",)) == 1
        instrument_hops = [
            hop for hop in arc0.hops if hop.source.attrs == ("instruments",)
        ]
        assert len(instrument_hops) == 2
        # Both instrument hops dereference from the works hop's output.
        works_hop = [h for h in arc0.hops if h.source.attrs == ("works",)][0]
        for hop in instrument_hops:
            assert hop.source.var == works_hop.out_var

    def test_fig2_predicate_rewritten_to_hop_vars(self, translator):
        graph = fig2_query()
        node = graph.producers_of("Answer")[0].node
        translated = translator.translate_node(node)
        # The i1/i2 equalities now reference distinct instrument vars.
        paths = translated.predicate.paths()
        instrument_vars = {
            p.var for p in paths if p.attrs == ("name",) and p.var != "x"
        }
        assert len(instrument_vars) >= 2

    def test_multivalued_flag(self, translator):
        graph = fig2_query()
        node = graph.producers_of("Answer")[0].node
        translated = translator.translate_node(node)
        works_hop = [
            h for h in translated.arcs[0].hops if h.source.attrs == ("works",)
        ][0]
        assert works_hop.multivalued
        instrument_hop = [
            h for h in translated.arcs[0].hops if h.source.attrs == ("instruments",)
        ][0]
        assert instrument_hop.multivalued


class TestPathExpansion:
    def test_deep_predicate_path_expands(self, translator):
        node = spj(
            [arc("Influencer", i=".")],
            where=eq(
                path("i", "master", "works", "instruments", "name"),
                const("harpsichord"),
            ),
            select=out(g=path("i", "gen")),
        )
        translated = translator.translate_node(node)
        hops = translated.arcs[0].hops
        assert [h.source.attrs[-1] for h in hops] == [
            "master",
            "works",
            "instruments",
        ]
        # Residual predicate references the deepest hop's variable.
        residual_paths = translated.predicate.paths()
        assert residual_paths[0].attrs == ("name",)
        assert residual_paths[0].var == hops[-1].out_var

    def test_identity_comparison_needs_no_hop(self, translator):
        node = spj(
            [arc("Influencer", i="."), arc("Composer", x=".")],
            where=eq(path("i", "disciple"), path("x", "master")),
            select=out(d=path("i", "disciple")),
        )
        translated = translator.translate_node(node)
        assert translated.arcs[0].hops == []
        assert translated.arcs[1].hops == []

    def test_shared_prefix_factorized_across_pred_and_output(self, translator):
        node = spj(
            [arc("Composer", x=".")],
            where=eq(path("x", "master", "name"), const("Bach")),
            select=out(year=path("x", "master", "birthyear")),
        )
        translated = translator.translate_node(node)
        # One master hop serves both the predicate and the output.
        assert len(translated.arcs[0].hops) == 1

    def test_negated_predicates_not_expanded(self, translator):
        node = spj(
            [arc("Composer", x=".")],
            where=not_(
                eq(
                    path("x", "works", "instruments", "name"),
                    const("harpsichord"),
                )
            ),
            select=out(n=path("x", "name")),
        )
        translated = translator.translate_node(node)
        assert translated.arcs[0].hops == []  # stays a whole-path Sel

    def test_atomic_final_attribute_kept_on_last_hop(self, translator):
        node = spj(
            [arc("Composer", x=".")],
            where=eq(path("x", "master", "name"), const("Bach")),
        )
        translated = translator.translate_node(node)
        hop = translated.arcs[0].hops[0]
        assert hop.target_entity == "Composer"
        residual = translated.predicate.paths()[0]
        assert residual == PathRef(hop.out_var, ("name",))


class TestHopResolutionErrors:
    """``primary_entity`` raises ``UnknownEntityError`` by design when a
    class has no extent, and only that drops the hop; anything else is
    a bug and must surface instead of silently shortening a path."""

    DEEP = spj(
        [arc("Influencer", i=".")],
        where=eq(
            path("i", "master", "works", "instruments", "name"),
            const("harpsichord"),
        ),
        select=out(g=path("i", "gen")),
    )

    def _patch(self, monkeypatch, translator, target, error):
        """Make the first ``primary_entity`` lookup of ``target`` raise
        ``error``; every other lookup answers normally, so a swallowed
        failure cannot be masked by a later hop raising the same
        error."""
        real = translator.physical.primary_entity
        raised = []

        def primary_entity(conceptual_name):
            if conceptual_name == target and not raised:
                raised.append(conceptual_name)
                raise error
            return real(conceptual_name)

        monkeypatch.setattr(
            translator.physical, "primary_entity", primary_entity
        )

    def test_unknown_entity_drops_the_hop(self, translator, monkeypatch):
        self._patch(
            monkeypatch, translator, "Composer", UnknownEntityError("Composer")
        )
        translated = translator.translate_node(self.DEEP)
        # The unresolvable first hop (``master``) is dropped and the
        # rest of the path is left as a dotted residual.
        assert translated.arcs[0].hops == []

    def test_unexpected_error_propagates_from_path_expansion(
        self, translator, monkeypatch
    ):
        self._patch(
            monkeypatch, translator, "Composer", AttributeError("injected")
        )
        with pytest.raises(AttributeError, match="injected"):
            translator.translate_node(self.DEEP)

    def test_unexpected_error_propagates_from_tree_label_hops(
        self, translator, monkeypatch
    ):
        self._patch(
            monkeypatch, translator, "Composition", AttributeError("injected")
        )
        node = fig2_query().producers_of("Answer")[0].node
        with pytest.raises(AttributeError, match="injected"):
            translator.translate_node(node)


class TestProducedShape:
    def test_influencer_shape(self, indexed_db):
        base, _recursive = influencer_rules()
        shape = produced_shape(
            base.node.output,
            indexed_db.catalog,
            {"x": "Composer"},
            {},
        )
        assert shape == {
            "master": "Composer",
            "disciple": "Composer",
            "gen": None,
        }

    def test_shape_through_view(self, indexed_db):
        from repro.querygraph.graph import OutputSpec

        shape = produced_shape(
            OutputSpec.of(w=path("x", "works")),
            indexed_db.catalog,
            {"x": "Composer"},
            {},
        )
        assert shape == {"w": "Composition"}
