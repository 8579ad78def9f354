"""The modules export only what the package defines, and import only what
they use.

Every name in a module's `__all__` must exist, so `from module import *`
works and a deleted name cannot stay behind as a stale export; and no
public name of a module's `__all__` or of the package namespace may be an
object another library defines (a re-exported `fractions.Fraction`, say).
Every name a module other than the package's `__init__`, a test file or a
tool under tools/ imports must be used in it, so an import cannot outlive
the code that needed it.  The probe that checks, in a fresh process,
which modules `import degenscope.cli` and each command load
(`tests/import_budget.py`) reports a module it finds; its table runs in
`tests/test_portability.py`, and the tests below put single rules of it
under their own names.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest
from import_budget import BUDGET, over_budget

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


# Imported names a module binds without using them, each with its reason.
UNUSED_IMPORTS_ALLOWED = {
    # bench/test_bench.py requires the binding: the benchmark's trace patches
    # every module binding of a traced function, `cli.normalize` among them.
    ("cli", "normalize"),
}


def unused_imports(source: str) -> set[str]:
    """The names the module's import statements bind and nothing reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_unused_imports_are_found():
    source = "import os, json.decoder\nfrom math import gcd, lcm as l\nprint(gcd, json)\n"
    assert unused_imports(source) == {"os", "l"}


# The package's __init__ imports names only to export them.
MODULE_FILES = sorted(set(Path(degenscope.__file__).parent.glob("*.py")) - {Path(degenscope.__file__)})
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
TOOL_FILES = sorted((Path(__file__).parent.parent / "tools").glob("*.py"))


@pytest.mark.parametrize("path", MODULE_FILES + TEST_FILES + TOOL_FILES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = {(path.stem, name) for name in unused_imports(path.read_text())}
    assert unused <= UNUSED_IMPORTS_ALLOWED


def test_the_import_budget_check_sees_a_loaded_module():
    # The probe reports what it finds: `cqs` loads the germ module.
    found = over_budget(sys.executable, ("cqs", "1", "1", "1"), ("degenscope.cqs", "json"))
    assert found == "cqs 1 1 1 loaded ['degenscope.cqs']"


def test_cli_import_loads_no_csv_module():
    # A CSV row is a comma join; the `csv` module would only add start-up time.
    assert over_budget(sys.executable, (), ("csv", "_csv")) == ""


def test_cli_reads_argv_without_argparse():
    # The grammar table reads the command line; argparse, with the gettext
    # and locale modules it loads, is built only for help and usage errors.
    assert over_budget(sys.executable, ("cqs", "1", "1", "1"), ("argparse", "gettext", "locale")) == ""


@pytest.mark.parametrize("name", ["cqs", "wps", "density", "markov", "scan"])
def test_each_command_stays_within_its_import_budget(name):
    assert over_budget(sys.executable, *BUDGET[name]) == ""


@pytest.mark.parametrize(
    "argv, loads_pool",
    [
        ([], False),  # the import alone
        (["cqs", "1", "1", "1"], False),
        (["wps", "4", "25", "841"], False),
        (["markov", "degenerations", "--n", "3", "--bound", "20"], False),
        (["density", "10"], False),
        (["scan", "5"], True),
    ],
)
def test_only_a_scan_loads_the_pool(argv, loads_pool):
    # The fork pool and the atomic writer are compiled only for `scan`.
    pool = ("degenscope.pool",)
    banned, needed = ((), pool) if loads_pool else (pool, ())
    assert over_budget(sys.executable, tuple(argv), banned, needed) == ""
