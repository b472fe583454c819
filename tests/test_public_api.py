"""Every name a holoseis module exports in __all__ exists in that module, and
no module reads the process environment."""

import ast
import importlib
import inspect
import pkgutil

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
