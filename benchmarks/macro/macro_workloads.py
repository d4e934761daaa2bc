"""The five workloads of the macro benchmark.

Each workload fixes a database recipe, a seeded request stream and the
*decision set* of query templates its ``plan_regret`` is taken over.
Everything the server ever receives is generated query text (or a
prepared-statement id plus parameters); ``--seed`` drives
``MusicConfig.seed`` and the parameter order, nothing else.
``plan_regret`` alone is taken on a fixed panel of databases
(``Workload.regret_seeds``), not on the run's: it audits the optimizer,
and which instrument a seeded database happens to give a composer must
not move it.

The reasons each workload exists are recorded in ``why`` (and, longer,
in ``README.md``): every optimisation needs one workload that exercises
its mechanism and one that bypasses it.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# Every module of the harness (and the server child) imports this one
# first, so this is the one place the checkout's ``src/`` is put on the
# path; ``PYTHONPATH=src`` is then optional.
_SRC = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
)
if os.path.isdir(os.path.join(_SRC, "repro")) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import (
    cost_controlled_optimizer,
    deductive_optimizer,
    naive_optimizer,
)
from repro.engine import Engine
from repro.engine.reference import ReferenceEvaluator
from repro.lang.compile import compile_text
from repro.service.protocol import substitute_params
from repro.workloads import MusicConfig, MusicDatabase, generate_music_database

#: The ``Influencer`` view of ``examples/influence.oql`` (embedded so
#: the harness depends on nothing outside its own directory and
#: ``src/``).
VIEW = (
    "view Influencer as "
    "select [master: x.master, disciple: x, gen: 1] from x in Composer "
    "union "
    "select [master: i.master, disciple: x, gen: i.gen + 1] "
    "from i in Influencer, x in Composer where i.disciple = x.master; "
)

CLOSURE = (
    VIEW
    + "select [name: i.disciple.name, gen: i.gen] "
    "from i in Influencer where i.gen >= 3;"
)

FIG3_SELECTIVE = (
    VIEW
    + "select [name: i.disciple.name, gen: i.gen] from i in Influencer "
    'where i.master.works.instruments.name = "{instrument}" '
    "and i.gen >= {gen};"
)

#: The paper's section 4.5 query; in the cold_optimize *decision set*
#: only (its 32 ms optimize against the family's ~60 ms would make the
#: traffic's median bimodal).
JOIN_PUSH = (
    VIEW
    + "select [name: i.disciple.name] from i in Influencer, c in Composer "
    'where i.master = c.master and c.name = "Bach";'
)

PUSHED = (
    VIEW
    + "select [name: i.disciple.name] from i in Influencer "
    "where i.master.name = $who;"
)
POINT = (
    "select [name: c.name, born: c.birthyear] from c in Composer "
    "where c.name = $who;"
)

#: One ``refresh_stats`` op per this many short_mix requests: the plan
#: cache used under statistics churn, beside pure reads.
REFRESH_EVERY = 200


@dataclass(frozen=True)
class Template:
    """One statement of a workload.

    ``general``/``general_key`` name the *unselected* form of a
    ``$who`` statement and the output field ``$who`` selects on: the
    reference evaluator takes ~1.4 s per closure on the 192-composer
    database, so the oracle evaluates the general form once and applies
    the equality selection itself instead of paying that per parameter.
    """

    key: str
    text: str
    prepared: bool = False
    general: Optional[str] = None
    general_key: Optional[str] = None
    #: Whether ``general_key`` is an extra output field of ``general``
    #: that the statement itself does not return.
    drop_key: bool = False


@dataclass(frozen=True)
class Request:
    """One generated request, before it is put on the wire."""

    op: str  # "query" | "execute" | "refresh_stats"
    template: Optional[Template] = None
    params: Optional[Dict[str, object]] = None
    shards: Optional[int] = None

    @property
    def text(self) -> str:
        """The query text after parameter substitution (the oracle key)."""
        return substitute_params(self.template.text, self.params)

    def payload(self, statements: Dict[str, str]) -> dict:
        """The protocol request; ``statements`` maps template keys to
        the ids the server assigned at ``prepare``."""
        if self.op == "refresh_stats":
            return {"op": "refresh_stats"}
        if self.template.prepared:
            payload = {
                "op": "execute",
                "statement": statements[self.template.key],
                "params": self.params,
            }
        else:
            payload = {"op": "query", "text": self.template.text}
            if self.params:
                payload["params"] = self.params
        if self.shards is not None:
            payload["shards"] = self.shards
        return payload


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``MusicConfig`` fields (the seed is added per run).
    music: Dict[str, int]
    #: Simulated device latency per page miss, in seconds.
    io_latency: float = 0.0
    shards: Optional[int] = None
    #: What every response's ``cache`` field must say.
    expect_cache: str = "hit"
    #: Requests of the traced in-process replay.
    replay_count: int = 10
    #: ``MusicConfig`` seeds of the databases ``plan_regret`` is taken
    #: on.  Fixed, not the run's seed: on cold_optimize one seeded
    #: database in six has a fig3 text the optimizer decides wrongly
    #: (regret 1.2-1.75), so a per-seed maximum reads 1.0 or 1.7 by the
    #: draw.  The other decision sets do not depend on the seed at all.
    regret_seeds: Tuple[int, ...] = (0,)
    templates: Tuple[Template, ...] = field(default_factory=tuple)


_CLOSURE_TEMPLATE = Template("closure", CLOSURE)
_BIG = {"lineages": 24, "generations": 8, "works_per_composer": 2}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "warm_recursive",
            "CPU-bound unselective closure, every request a plan-cache hit: "
            "engine (Fix body, nested-loop EJ) is >= 90% of latency",
            music=_BIG,
            replay_count=15,
            templates=(_CLOSURE_TEMPLATE,),
        ),
        Workload(
            "cold_optimize",
            ">= 128 distinct fig3-selective texts so LRU(64) never hits: "
            "lang.compile + the four core phases + cost are >= 80% of latency",
            music={"lineages": 4, "generations": 7},
            expect_cache="miss",
            replay_count=40,
            regret_seeds=tuple(range(8)),
            templates=(Template("fig3", FIG3_SELECTIVE),),
        ),
        Workload(
            "short_mix",
            "prepared 75% pushed-selection / 25% point lookups, 0.1-2.5 ms "
            "execution: per-request service overhead and stats churn dominate",
            music=_BIG,
            replay_count=200,
            templates=(
                Template(
                    "pushed",
                    PUSHED,
                    prepared=True,
                    general=VIEW
                    + "select [who: i.master.name, name: i.disciple.name] "
                    "from i in Influencer;",
                    general_key="who",
                    drop_key=True,
                ),
                Template(
                    "point",
                    POINT,
                    prepared=True,
                    general="select [name: c.name, born: c.birthyear] "
                    "from c in Composer;",
                    general_key="name",
                ),
            ),
        ),
        Workload(
            "sharded_recursive",
            "the warm_recursive closure at shards=2 with no sleep to overlap: "
            "the CPU-bound row that decides threads vs processes for dist",
            music=_BIG,
            shards=2,
            replay_count=10,
            templates=(_CLOSURE_TEMPLATE,),
        ),
        Workload(
            "starved_recursive",
            "closure with a 6-page buffer and 0.2 ms per page miss: working "
            "set larger than the cache, page-miss sleep dominates latency",
            music={
                "lineages": 8,
                "generations": 8,
                "works_per_composer": 2,
                "records_per_page": 8,
                "buffer_pages": 6,
            },
            io_latency=0.0002,
            replay_count=5,
            templates=(_CLOSURE_TEMPLATE,),
        ),
    )
}


def build_database(
    workload: Workload, seed: int, io_latency: Optional[float] = None
) -> MusicDatabase:
    """The workload's database, exactly as the server child builds it
    (``io_latency`` overrides the workload's for oracle use, where page
    misses are counted but need not be slept)."""
    db = generate_music_database(MusicConfig(seed=seed, **workload.music))
    db.build_paper_indexes()
    db.physical.refresh_statistics()
    db.store.buffer.io_latency = (
        workload.io_latency if io_latency is None else io_latency
    )
    return db


def _instrument_names(db: MusicDatabase) -> List[str]:
    return sorted(
        record.values["name"] for record in db.store.extent("Instrument").records
    )


def _generation_two_names(db: MusicDatabase) -> List[str]:
    """The third composer of every lineage (``Bach``, ``composer_0010``,
    ...): identical five-disciple tails, so latency is unimodal."""
    generations = db.config.generations
    return [
        db.store.peek(db.composer_oids[lineage * generations + 2]).values["name"]
        for lineage in range(db.config.lineages)
    ]


def request_stream(
    workload: Workload, db: MusicDatabase, seed: int
) -> Iterator[Request]:
    """The endless, seed-determined request stream of a workload."""
    rng = random.Random(seed)
    if workload.name == "cold_optimize":
        (template,) = workload.templates
        # 12 instruments x 11 thresholds = 132 distinct canonical texts,
        # cycled in one seeded order: a text recurs only after 131
        # others, so the 64-entry LRU has always evicted it.
        texts = [
            Template(
                f"fig3/{instrument}/{gen}",
                template.text.format(instrument=instrument, gen=gen),
            )
            for instrument in _instrument_names(db)
            for gen in range(1, 12)
        ]
        rng.shuffle(texts)
        return (Request("query", text) for text in itertools.cycle(texts))
    if workload.name == "short_mix":
        return _short_mix_stream(workload, db, rng)
    (template,) = workload.templates
    return itertools.repeat(Request("query", template, shards=workload.shards))


def _short_mix_stream(
    workload: Workload, db: MusicDatabase, rng: random.Random
) -> Iterator[Request]:
    pushed, point = workload.templates
    # Each statement walks its own seeded order of the 24 names, so
    # every (statement, name) pair -- 48 plan-cache entries, the
    # parameter is spliced into the canonical text -- recurs.
    names = {}
    for template in (pushed, point):
        order = _generation_two_names(db)
        rng.shuffle(order)
        names[template.key] = itertools.cycle(order)
    # A fixed pushed,pushed,pushed,point cycle is exactly 75/25; a
    # sampled mix would move the median with the binomial draw.
    for index in itertools.count(1):
        template = point if index % 4 == 0 else pushed
        yield Request("execute", template, {"who": next(names[template.key])})
        if index % REFRESH_EVERY == REFRESH_EVERY // 2:
            yield Request("refresh_stats")


def warmup_count(workload: Workload, db: MusicDatabase, extra: int = 3) -> int:
    """Stream requests a set-up sends before measuring: every distinct
    statement once plus ``extra``.  The measured stream continues where
    the warm-up stopped (cold_optimize must not see a text twice)."""
    if workload.name == "short_mix":
        # The 24th point lookup is the stream's 96th request.
        return 4 * db.config.lineages + extra
    return 1 + extra


def decision_set(workload: Workload, db: MusicDatabase) -> List[str]:
    """Query texts whose push/no-push decision ``plan_regret`` audits."""
    if workload.name == "cold_optimize":
        instruments = _instrument_names(db)
        return [
            FIG3_SELECTIVE.format(instrument=instruments[index], gen=gen)
            for index, gen in ((0, 3), (3, 1), (6, 2), (-1, 5))
        ] + [JOIN_PUSH]
    if workload.name == "short_mix":
        names = _generation_two_names(db)
        return [
            substitute_params(template.text, {"who": name})
            for template in workload.templates
            for name in (names[0], names[-1])
        ]
    return [CLOSURE]


def row_set(rows: List[dict]) -> frozenset:
    """A response's rows as a set (set, not bag: the engine returns
    plan-dependent duplicates and set equality is the repo's contract)."""
    return frozenset(tuple(sorted(row.items())) for row in rows)


class Oracle:
    """Ground truth from ``ReferenceEvaluator`` on an identically
    seeded in-process database, plus the exact-count ``plan_regret``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.db = build_database(workload, seed, io_latency=0.0)
        self._answers: Dict[str, frozenset] = {}
        self._general: Dict[str, Dict[object, frozenset]] = {}

    def _reference(self, text: str) -> frozenset:
        graph = compile_text(text, self.db.catalog)
        return ReferenceEvaluator(self.db.physical).answer_set(graph)

    def expected(self, request: Request) -> frozenset:
        template = request.template
        if template.general is None:
            text = request.text
            if text not in self._answers:
                self._answers[text] = self._reference(text)
            return self._answers[text]
        groups = self._general.get(template.key)
        if groups is None:
            grouped: Dict[object, set] = {}
            for row in self._reference(template.general):
                fields = dict(row)
                selected = fields[template.general_key]
                if template.drop_key:
                    del fields[template.general_key]
                grouped.setdefault(selected, set()).add(
                    tuple(sorted(fields.items()))
                )
            groups = {key: frozenset(rows) for key, rows in grouped.items()}
            self._general[template.key] = groups
        (value,) = request.params.values()
        return groups.get(value, frozenset())

    def plan_regret(self) -> Tuple[float, List[dict]]:
        """max over the workload's regret databases and decision set of
        measured_cost(cost-controlled plan) / min(measured_cost(always
        push), measured_cost(never push)), each executed from a cleared
        buffer.  Exact counts on fixed databases: the same for every
        run and seed until the optimizer or the engine changes."""
        worst = 0.0
        rows = []
        for db_seed in self.workload.regret_seeds:
            db = build_database(self.workload, db_seed, io_latency=0.0)
            for text in decision_set(self.workload, db):
                graph = compile_text(text, db.catalog)
                costs = {}
                for name, factory in (
                    ("chosen", cost_controlled_optimizer),
                    ("always_push", deductive_optimizer),
                    ("never_push", naive_optimizer),
                ):
                    result = factory(db.physical).optimize(graph)
                    db.store.buffer.clear()
                    execution = Engine(db.physical).execute(result.plan)
                    costs[name] = execution.metrics.measured_cost()
                    if name == "chosen":
                        costs["chose_push"] = result.chose_push()
                regret = costs["chosen"] / min(
                    costs["always_push"], costs["never_push"]
                )
                worst = max(worst, regret)
                rows.append(
                    {"db_seed": db_seed, "text": text, "regret": regret, **costs}
                )
        return worst, rows
