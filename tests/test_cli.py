"""Tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import build_parser, main

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
