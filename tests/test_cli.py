"""Tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import _database_config, build_parser, main
from repro.core.baselines import (
    cost_controlled_optimizer,
    deductive_optimizer,
    naive_optimizer,
)
from repro.cost import CostParameters, DetailedCostModel
from repro.engine.batch import default_batch_size
from repro.lang import compile_text
from repro.obs.recorder import database_from_config

QUERY = """
select [name: x.name]
from x in Composer
where x.name = "Bach";
"""

RECURSIVE_QUERY = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name] from i in Influencer where i.gen >= 2;
"""


FIG3_QUERY = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 3;
"""

DB_FLAGS = ["--lineages", "4", "--generations", "6"]


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "query.oql"
    path.write_text(QUERY)
    return str(path)


@pytest.fixture()
def recursive_file(tmp_path):
    path = tmp_path / "recursive.oql"
    path.write_text(RECURSIVE_QUERY)
    return str(path)


@pytest.fixture()
def fig3_file(tmp_path):
    path = tmp_path / "fig3.oql"
    path.write_text(FIG3_QUERY)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self, query_file):
        args = build_parser().parse_args(["run", query_file])
        assert args.db == "music"
        assert args.policy == "cost"

    def test_serve_takes_no_policy(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--policy", "never"])
        assert exit_info.value.code == 2


def estimated_cost(output):
    return re.search(r"^estimated cost : (\S+)$", output, re.M).group(1)


def baseline_estimate(factory, **params):
    """What ``factory`` estimates for FIG3_QUERY on the CLI's database
    at ``DB_FLAGS``, priced under ``params`` (batch size: the engine
    default unless given), as the CLI prints it."""
    args = build_parser().parse_args(["run", "-"] + DB_FLAGS)
    db = database_from_config(_database_config(args))
    params.setdefault("batch_size", default_batch_size())
    model = DetailedCostModel(db.physical, CostParameters(**params))
    result = factory(db.physical, model).optimize(
        compile_text(FIG3_QUERY, db.catalog)
    )
    return f"{result.cost:.1f}"


class TestOneCostModel:
    """The CLI prices every plan with the model of the machine it
    executes on: the baselines at the requested fan-out, every policy
    at the requested batch size."""

    @pytest.mark.parametrize(
        "policy, factory",
        [("always", deductive_optimizer), ("never", naive_optimizer)],
    )
    def test_baselines_are_priced_at_the_requested_shards(
        self, fig3_file, policy, factory
    ):
        code, output = run_cli(
            ["explain", fig3_file, "--policy", policy, "--shards", "4"]
            + DB_FLAGS
        )
        assert code == 0
        sharded = baseline_estimate(factory, shards=4)
        assert sharded != baseline_estimate(factory)
        assert estimated_cost(output) == sharded

    def test_run_is_priced_at_the_requested_batch_size(self, fig3_file):
        code, output = run_cli(["run", fig3_file, "--batch-size", "1"] + DB_FLAGS)
        assert code == 0
        assert "batch size 1," in output
        factory = cost_controlled_optimizer
        batch_1 = baseline_estimate(factory, batch_size=1)
        assert batch_1 != baseline_estimate(factory, batch_size=256)
        assert estimated_cost(output) == batch_1

    @pytest.mark.parametrize("flag", ["--shards", "--batch-size"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_a_knob_out_of_range_is_a_one_line_error(
        self, fig3_file, flag, value, capsys
    ):
        code, output = run_cli(["run", fig3_file, flag, value] + DB_FLAGS)
        assert code != 0 and output == ""
        knob = flag.lstrip("-").replace("-", "_")
        assert capsys.readouterr().err == f"error: {knob} must be >= 1\n"


class TestRun:
    def test_simple_query(self, query_file):
        code, output = run_cli(
            ["run", query_file, "--lineages", "3", "--generations", "4"]
        )
        assert code == 0
        assert "name='Bach'" in output
        assert "=== plan ===" in output
        assert "measured:" in output

    def test_recursive_query_with_policy(self, recursive_file):
        for policy in ("cost", "always", "never"):
            code, output = run_cli(
                [
                    "run",
                    recursive_file,
                    "--lineages",
                    "2",
                    "--generations",
                    "4",
                    "--policy",
                    policy,
                ]
            )
            assert code == 0
            assert "Fix[Influencer]" in output

    def test_row_limit(self, recursive_file):
        code, output = run_cli(
            [
                "run",
                recursive_file,
                "--lineages",
                "3",
                "--generations",
                "5",
                "--limit",
                "2",
            ]
        )
        assert code == 0
        assert "more" in output

    def test_missing_file_errors(self):
        code, _output = run_cli(["run", "/nonexistent/query.oql"])
        assert code == 1

    def test_bad_query_errors(self, tmp_path):
        path = tmp_path / "bad.oql"
        path.write_text("select from nothing")
        code, _output = run_cli(["run", str(path)])
        assert code == 1


class TestExplain:
    def test_explain_breakdown(self, query_file):
        code, output = run_cli(
            ["explain", query_file, "--lineages", "3", "--generations", "4"]
        )
        assert code == 0
        assert "cost breakdown" in output
        assert "total" in output

    def test_explain_simplified_table(self, recursive_file):
        code, output = run_cli(
            [
                "explain",
                recursive_file,
                "--simplified",
                "--lineages",
                "2",
                "--generations",
                "4",
            ]
        )
        assert code == 0
        assert "Section 4.6" in output
        assert "T1" in output

    def test_buffer_pages_reaches_the_cost_model(self, recursive_file):
        # 128 composers at 20 records/page: a 7-page extent, which a
        # 4-page pool cannot hold and a 256-page pool can.
        def estimated_io(buffer_pages):
            code, output = run_cli(
                [
                    "explain",
                    recursive_file,
                    "--lineages",
                    "16",
                    "--generations",
                    "8",
                    "--buffer-pages",
                    str(buffer_pages),
                ]
            )
            assert code == 0
            match = re.search(r"^total \S+ \(io ([\d.]+),", output, re.M)
            return float(match.group(1))

        assert estimated_io(4) > estimated_io(256)


class TestDemoAndParts:
    def test_demo(self):
        code, output = run_cli(
            ["demo", "--lineages", "3", "--generations", "5"]
        )
        assert code == 0
        assert "Figure 3" in output
        assert "rows ===" in output

    def test_parts_database(self, tmp_path):
        path = tmp_path / "parts.oql"
        path.write_text(
            'select [p: x.pname] from x in Part where x.category = "cat_0";'
        )
        code, output = run_cli(
            ["run", str(path), "--db", "parts", "--lineages", "2"]
        )
        assert code == 0
        assert "rows ===" in output
