"""Every name a holoseis module exports in __all__ exists in that module."""

import importlib
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
