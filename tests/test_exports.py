"""The modules export only what the package defines.

Every name in a module's `__all__` must exist, so `from module import *`
works and a deleted name cannot stay behind as a stale export; and no
public name of a module's `__all__` or of the package namespace may be an
object another library defines (a re-exported `fractions.Fraction`, say).
"""

from __future__ import annotations

import importlib

import pytest

import degenscope

MODULES = ("degenscope.cqs", "degenscope.density")


def foreign(names, namespace) -> list[str]:
    """The names whose objects are defined outside the package."""
    return [
        name
        for name in names
        if not getattr(namespace[name], "__module__", "degenscope").startswith("degenscope")
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_star_import_resolves_every_export(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert foreign(module.__all__, namespace) == []


def test_package_namespace_holds_only_package_objects():
    public = [name for name in vars(degenscope) if not name.startswith("_")]
    modules = [name for name in public if type(getattr(degenscope, name)) is type(degenscope)]
    assert foreign(sorted(set(public) - set(modules)), vars(degenscope)) == []
