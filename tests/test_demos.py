"""Every holoseis attribute a demo script references exists.

The demos are narrative scripts that take minutes to run, so they are not
executed here; instead each one is compiled and its syntax tree walked for
``<holoseis module>.<attr>`` references and ``from holoseis... import``
names, which must all resolve against the installed package.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _is_holoseis(name: str) -> bool:
    return name == "holoseis" or name.startswith("holoseis.")


def _import_target(module: str, name: str):
    """The object that ``from module import name`` binds, or None if missing."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _missing_references(source: str, filename: str) -> list:
    compile(source, filename, "exec")
    tree = ast.parse(source, filename)
    missing = []
    modules = {}  # local name -> holoseis module object
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_holoseis(alias.name):
                    imported = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = imported
                    else:  # ``import holoseis.x`` binds the top-level package
                        modules["holoseis"] = importlib.import_module("holoseis")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if not _is_holoseis(node.module):
                continue
            for alias in node.names:
                target = _import_target(node.module, alias.name)
                if target is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(target, types.ModuleType):
                    modules[alias.asname or alias.name] = target

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if isinstance(owner, types.ModuleType):
                if not hasattr(owner, expr.attr):
                    missing.append(f"{owner.__name__}.{expr.attr} (line {expr.lineno})")
                    return None
                return getattr(owner, expr.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    return sorted(set(missing))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_references_resolve(path):
    missing = _missing_references(path.read_text(), str(path))
    assert not missing, f"{path.name} references missing holoseis names: {missing}"


def test_missing_reference_is_reported():
    src = "from holoseis import greens\ngreens.no_such_function(1)\n"
    assert _missing_references(src, "<probe>") == ["holoseis.greens.no_such_function (line 2)"]
