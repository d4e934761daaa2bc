"""The example scripts keep running against the current API."""

import os
import runpy

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def test_strategy_comparison_main(capsys):
    script = runpy.run_path(os.path.join(EXAMPLES, "strategy_comparison.py"))
    script["main"]()
    out = capsys.readouterr().out
    tables = out.split("=== ")[1:]
    assert len(tables) == 2
    for table in tables:
        rows = [
            line.split()
            for line in table.splitlines()
            if line.strip().startswith(("memoized", "exhaustive"))
        ]
        assert len(rows) == 2
        # The pruned search reaches the closure's optimum on these queries.
        assert len({row[2] for row in rows}) == 1, table
