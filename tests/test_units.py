"""One objective: the optimizer prices plans in the unit costs the
engine's measured cost judges them by, and both read :mod:`repro.units`."""

import ast
import inspect

from repro import units
from repro.cost import CostParameters, SimplifiedParameters
from repro.engine.metrics import RuntimeMetrics, network_cost
from repro.physical.buffer import BufferStats


def test_units_is_a_leaf_module():
    tree = ast.parse(inspect.getsource(units))
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_model_defaults_are_the_units():
    params = CostParameters()
    assert params.page_read == params.index_page == units.PAGE_READ
    assert params.eval_per_tuple == units.PREDICATE_EVAL
    assert params.network_per_tuple == units.NETWORK_TUPLE
    assert params.network_per_round == units.NETWORK_FRAME
    simplified = SimplifiedParameters()
    assert (simplified.pr, simplified.ev) == (
        units.PAGE_READ,
        units.PREDICATE_EVAL,
    )


def test_measured_cost_prices_in_the_units():
    metrics = RuntimeMetrics(
        predicate_evals=10,
        method_eval_weight=2.5,
        index_page_reads=1.5,
        buffer=BufferStats(physical_reads=4),
    )
    assert metrics.measured_cost() == (
        5.5 * units.PAGE_READ + 12.5 * units.PREDICATE_EVAL
    )
    metrics.shards_used, metrics.exchange_tuples, metrics.exchange_frames = (
        2,
        100,
        4,
    )
    assert network_cost(100, 4) == (
        100 * units.NETWORK_TUPLE + 4 * units.NETWORK_FRAME
    )
    assert metrics.measured_cost() == (
        5.5 * units.PAGE_READ
        + 12.5 * units.PREDICATE_EVAL
        + network_cost(100, 4)
    )
