"""Every name a holoseis module exports in __all__ exists in that module, no
module reads the process environment, and every layer the benchmark traces
still exists."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import holoseis

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(holoseis.__path__, prefix="holoseis.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_environment_reads(name):
    # a run is re-derivable from (config, seed): no environment variable may
    # change what a module computes or where it reads and writes
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names)
        )
    ]
    assert not reads, f"{name} reads the environment at lines {reads}"


def _layertrace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def _traced_target(module_name, attr):
    """The function layertrace wraps: a "Class.method" through the class __dict__."""
    module = importlib.import_module(f"holoseis.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name)).get(method)
    return getattr(module, attr, None)


def test_benchmark_tracer_names_resolve():
    # perfbench/layertrace.py wraps each traced function at its module: a
    # renamed function or a method turned into a property would break the
    # benchmark's layer table
    for module_name, attr in _layertrace().TRACED:
        target = _traced_target(module_name, attr)
        assert callable(target), f"{module_name}.{attr} is not a callable the tracer can wrap"


def test_benchmark_counters_read_parameters():
    # a counter reads the bound arguments of the call it counts, args["name"]:
    # a renamed or dropped parameter would fail only traced benchmark runs
    for name, counter in _layertrace().COUNTERS.items():
        params = inspect.signature(_traced_target(*name.split(".", 1))).parameters
        keys = {
            node.slice.value
            for node in ast.walk(ast.parse(inspect.getsource(counter)))
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        assert keys <= set(params), f"{name}: counter reads {sorted(keys - set(params))}"


# exported for tests as a deliberate oracle: the free-space Green's function at
# a point pair, which the package itself never evaluates
ORACLES = {"green_uniform"}


def _loaded_names(tree, own=frozenset()):
    """Names and attributes read in tree, outside the definitions named in own."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in own:
                continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_public_names_are_used_by_the_package():
    # a public name that only tests call is an alias or dead API: drop it or
    # list it as a deliberate oracle
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(name))) for name in MODULES}
    unused = set()
    for name in MODULES:
        for attr in getattr(importlib.import_module(name), "__all__", []):
            if not any(
                attr in _loaded_names(tree, {attr} if other == name else frozenset())
                for other, tree in trees.items()
            ):
                unused.add(attr)
    assert unused <= ORACLES, f"public names no module uses: {sorted(unused - ORACLES)}"
    assert ORACLES <= unused, f"oracles now used by the package: {sorted(ORACLES - unused)}"
