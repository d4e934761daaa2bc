"""One optimize→execute pipeline: outside the packages that define the
optimizer, the cost model and the engine (and the workload generators
that drive them), only ``service/server.py`` builds an ``Optimizer``,
``Engine``, ``DetailedCostModel`` or ``ShardCluster``.  Every other
entry point — the CLI's ``run``/``explain``/``trace``/``demo`` and
``repro replay`` — plans and executes through
``QueryService.plan`` → ``execute``, so none wires its own model."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

CONSTRUCTORS = {"Optimizer", "Engine", "DetailedCostModel", "ShardCluster"}

#: Top-level packages that define (or exercise) what is constructed.
ALLOWED_PACKAGES = {"core", "cost", "engine", "workloads"}

#: The one module that wires them for everyone else.
PIPELINE = "service/server.py"


def _constructor_calls(path: pathlib.Path):
    """``(name, line)`` of every call to one of :data:`CONSTRUCTORS`,
    bare or as an attribute (``dist.ShardCluster(...)``); names in
    docstrings and comments are not calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if name in CONSTRUCTORS:
            yield name, node.lineno


def test_only_the_service_wires_the_pipeline():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.split("/")[0] in ALLOWED_PACKAGES or relative == PIPELINE:
            continue
        offenders.extend(
            f"{relative}:{line} calls {name}("
            for name, line in _constructor_calls(path)
        )
    assert not offenders, offenders


def test_the_scan_sees_the_service_wiring():
    # Guards the guard: the scan must find the service's own calls.
    found = {name for name, _ in _constructor_calls(SRC / PIPELINE)}
    assert found == CONSTRUCTORS
