"""One optimize→execute pipeline: outside the packages that define the
optimizer, the cost model and the engine (and the workload generators
that drive them), only ``service/server.py`` builds an ``Optimizer``,
``Engine``, ``DetailedCostModel`` or ``ShardCluster``.  Every other
entry point — the CLI's ``run``/``explain``/``trace``/``demo`` and
``repro replay`` — plans and executes through
``QueryService.plan`` → ``execute``, so none wires its own model.

One transformPT search: ``core/enumerate.py`` defines the only
``SearchStrategy`` subclass under ``src/``, and no module reads a
``strategy`` request or config field (``OptimizerConfig.strategy``,
which injects a search instance, is read by the optimizer alone)."""

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


#: The module that defines the one transformPT search.
SEARCH = "core/enumerate.py"

#: The one module that reads ``OptimizerConfig.strategy``.
STRATEGY_READER = "core/optimizer.py"


def _base_name(base: ast.expr):
    if isinstance(base, ast.Name):
        return base.id
    return getattr(base, "attr", None)


def _search_classes(sources):
    """``(path, class name)`` of every class under ``sources`` (a
    ``{path: source text}`` map) that derives from ``SearchStrategy``,
    directly or through another such class, by bare or dotted name."""
    classes = {
        (path, node)
        for path, text in sources.items()
        for node in ast.walk(ast.parse(text, path))
        if isinstance(node, ast.ClassDef)
    }
    derived = {"SearchStrategy"}
    found = set()
    while True:
        more = {
            (path, node.name)
            for path, node in classes
            if any(_base_name(base) in derived for base in node.bases)
        }
        if more <= found:
            return found
        found |= more
        derived |= {name for _path, name in more}


def _strategy_reads(text: str, path: str = "<src>"):
    """Lines that read a ``strategy`` field: ``x.get("strategy")``,
    ``x["strategy"]`` or an attribute ``x.strategy``."""
    for node in ast.walk(ast.parse(text, path)):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and args
                and isinstance(args[0], ast.Constant)
                and args[0].value == "strategy"
            ):
                yield node.lineno
        elif isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and key.value == "strategy":
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "strategy":
            yield node.lineno


def _sources():
    return {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }


def test_one_transform_pt_search():
    found = _search_classes(_sources())
    assert found == {(SEARCH, "MemoizedEnumeration")}, sorted(found)


def test_no_module_reads_a_strategy_field():
    offenders = [
        f"{path}:{line}"
        for path, text in _sources().items()
        if path != STRATEGY_READER
        for line in _strategy_reads(text, path)
    ]
    assert not offenders, offenders


def test_the_search_scans_see_what_they_guard():
    # Guards the guards: a second search, direct or derived, and every
    # form of reading the field are found.
    snippet = (
        "from repro.core import enumerate\n"
        "class Walk(enumerate.SearchStrategy): pass\n"
        "class Faster(Walk): pass\n"
        "def plan(request, config):\n"
        "    a = request.get('strategy')\n"
        "    b = request['strategy']\n"
        "    return config.strategy\n"
    )
    assert _search_classes({"x.py": snippet}) == {
        ("x.py", "Walk"),
        ("x.py", "Faster"),
    }
    assert list(_strategy_reads(snippet)) == [5, 6, 7]
    reader = (SRC / STRATEGY_READER).read_text(encoding="utf-8")
    assert list(_strategy_reads(reader))
