"""End-to-end optimizer tests: the four steps, policies and baselines."""

import pytest

from repro.core import (
    Optimizer,
    OptimizerConfig,
    cost_controlled_optimizer,
    deductive_optimizer,
    exhaustive_optimizer,
    naive_optimizer,
)
from repro.cost import DetailedCostModel
from repro.engine import Engine, ReferenceEvaluator
from repro.errors import OptimizationError
from repro.plans import EJ, Fix, Materialize, Sel, find_all, validate_plan
from repro.plans.canonical import canonical_fingerprint
from repro.querygraph.builder import (
    and_,
    arc,
    const,
    eq,
    ge,
    out,
    path,
    query,
    rule,
    spj,
    var,
)
from repro.workloads import (
    chain_join_query,
    fig2_query,
    fig3_query,
    join_push_query,
)


def check_equivalence(db, graph, result):
    engine = Engine(db.physical)
    reference = ReferenceEvaluator(db.physical)
    assert engine.execute(result.plan).answer_set() == reference.answer_set(graph)


class TestOptimizePipeline:
    def test_fig2(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            fig2_query()
        )
        validate_plan(result.plan, indexed_db.physical)
        assert result.cost > 0
        check_equivalence(indexed_db, fig2_query(), result)

    def test_fig3(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            fig3_query()
        )
        validate_plan(result.plan, indexed_db.physical)
        assert find_all(result.plan, Fix)
        check_equivalence(indexed_db, fig3_query(), result)

    def test_join_push_query(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            join_push_query()
        )
        validate_plan(result.plan, indexed_db.physical)
        check_equivalence(indexed_db, join_push_query(), result)

    def test_candidates_recorded(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            fig3_query()
        )
        # The search's winner, cheapest first, then the unpushed plan
        # it started from.
        assert [d for d, _c in result.candidates] == ["enumerated", "original"]
        costs = [cost for _d, cost in result.candidates]
        assert costs[0] < costs[1]
        assert result.cost == costs[0]
        assert result.chose_push()

    def test_rewrite_trace_populated(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            fig3_query()
        )
        assert any("fixpoint" in step for step in result.rewrite_trace)

    def test_plans_costed_counted(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            fig3_query()
        )
        assert result.plans_costed > 5

    def test_elapsed_recorded(self, indexed_db):
        result = cost_controlled_optimizer(indexed_db.physical).optimize(
            fig2_query()
        )
        assert result.elapsed_seconds > 0


class TestPolicies:
    def test_always_push_pushes(self, indexed_db):
        result = deductive_optimizer(indexed_db.physical).optimize(fig3_query())
        assert result.chose_push()
        check_equivalence(indexed_db, fig3_query(), result)

    def test_never_push_does_not(self, indexed_db):
        result = naive_optimizer(indexed_db.physical).optimize(fig3_query())
        assert not result.chose_push()
        check_equivalence(indexed_db, fig3_query(), result)

    def test_cost_policy_never_worse_than_either_heuristic(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        cost_based = Optimizer(indexed_db.physical, model).optimize(fig3_query())
        always = deductive_optimizer(indexed_db.physical, model).optimize(
            fig3_query()
        )
        never = naive_optimizer(indexed_db.physical, model).optimize(fig3_query())
        assert cost_based.cost <= always.cost + 1e-9
        assert cost_based.cost <= never.cost + 1e-9

    def test_exhaustive_at_least_as_good_as_cost_controlled(self, indexed_db):
        model = DetailedCostModel(indexed_db.physical)
        exhaustive = exhaustive_optimizer(
            indexed_db.physical, model, max_plans=300
        ).optimize(fig3_query())
        controlled = cost_controlled_optimizer(
            indexed_db.physical, model
        ).optimize(fig3_query())
        assert exhaustive.cost <= controlled.cost + 1e-9

    def test_exhaustive_costs_more_plans(self, indexed_db):
        """On a join-order space; fig3's few arcs leave the pruned and
        the exhaustive closure costing about the same plans."""
        model = DetailedCostModel(indexed_db.physical)
        graph = chain_join_query(3, dense=True)
        exhaustive = exhaustive_optimizer(
            indexed_db.physical, model, max_plans=300
        ).optimize(graph)
        controlled = Optimizer(indexed_db.physical, model).optimize(graph)
        assert exhaustive.cost <= controlled.cost + 1e-9
        assert exhaustive.plans_costed > controlled.plans_costed

    def test_unknown_policy_rejected(self):
        with pytest.raises(OptimizationError):
            OptimizerConfig(push_policy="sometimes")


#: The [KZ88] baseline on the CLAIM-STRATEGY queries
#: (``benchmarks/bench_claim_strategy_time.py``, ``max_plans=800``):
#: plans costed, canonical fingerprint and cost of the chosen plan.
#: The plans and costs are the global optima an independent
#: breadth-first closure of the move graph found.  On fig3 the
#: breadth-first closure costed 28 plans because it re-ran from every
#: pushed transformPT seed; push is one of the enumerator's own moves,
#: so it runs once from the unpushed plan.
CLAIM_STRATEGY_EXHAUSTIVE = {
    "join-3 (dense)": (62, "957ac6af9b07bc92", 38.855377777777775),
    "join-4 (dense)": (225, "2dd43ffa3fad8f25", 44.40645925925926),
    "fig3 (recursive)": (20, "9f4bbcfac52e0adc", 493.55320782988997),
}


class TestExhaustiveBaseline:
    @pytest.fixture(scope="class")
    def claim_db(self):
        from benchmarks.bench_claim_strategy_time import build_db

        return build_db()

    @pytest.mark.parametrize("label", sorted(CLAIM_STRATEGY_EXHAUSTIVE))
    def test_claim_strategy_plans_pinned(self, claim_db, label):
        graph = {
            "join-3 (dense)": lambda: chain_join_query(3, dense=True),
            "join-4 (dense)": lambda: chain_join_query(4, dense=True),
            "fig3 (recursive)": fig3_query,
        }[label]()
        model = DetailedCostModel(claim_db.physical)
        result = exhaustive_optimizer(
            claim_db.physical, model, max_plans=800
        ).optimize(graph)
        plans, fingerprint, cost = CLAIM_STRATEGY_EXHAUSTIVE[label]
        assert result.plans_costed == plans
        assert canonical_fingerprint(result.plan) == fingerprint
        assert result.cost == pytest.approx(cost, rel=1e-12)


class TestNonRecursiveViews:
    def test_union_view_materialized(self, indexed_db):
        r1 = rule(
            "Names",
            spj([arc("Composer", x=".")], select=out(n=path("x", "name"))),
        )
        r2 = rule(
            "Names",
            spj([arc("Instrument", y=".")], select=out(n=path("y", "name"))),
        )
        answer = rule(
            "Answer",
            spj(
                [arc("Names", v=".")],
                where=eq(path("v", "n"), const("flute")),
                select=out(n=path("v", "n")),
            ),
        )
        graph = query(r1, r2, answer)
        result = cost_controlled_optimizer(indexed_db.physical).optimize(graph)
        assert find_all(result.plan, Materialize)
        check_equivalence(indexed_db, graph, result)

    def test_single_rule_view(self, indexed_db):
        view = rule(
            "Late",
            spj(
                [arc("Composer", x=".")],
                where=ge(path("x", "birthyear"), const(1700)),
                select=out(n=path("x", "name"), y=path("x", "birthyear")),
            ),
        )
        answer = rule(
            "Answer",
            spj([arc("Late", v=".")], select=out(n=path("v", "n"))),
        )
        graph = query(view, answer)
        result = cost_controlled_optimizer(indexed_db.physical).optimize(graph)
        check_equivalence(indexed_db, graph, result)


class TestLargerDatabase:
    def test_fig3_on_larger_db(self, larger_db):
        result = cost_controlled_optimizer(larger_db.physical).optimize(
            fig3_query()
        )
        check_equivalence(larger_db, fig3_query(), result)

    def test_all_policies_agree_on_answers(self, larger_db):
        graph = join_push_query()
        reference = ReferenceEvaluator(larger_db.physical).answer_set(graph)
        for factory in (
            cost_controlled_optimizer,
            deductive_optimizer,
            naive_optimizer,
        ):
            result = factory(larger_db.physical).optimize(graph)
            engine = Engine(larger_db.physical)
            assert engine.execute(result.plan).answer_set() == reference
