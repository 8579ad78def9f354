"""The modules export only what the package defines, and import only what
they use.

Every name in a module's `__all__` must exist, so `from module import *`
works and a deleted name cannot stay behind as a stale export; and no
public name of a module's `__all__` or of the package namespace may be an
object another library defines (a re-exported `fractions.Fraction`, say).
Every name a module other than the package's `__init__`, a test file or a
tool under tools/ imports must be used in it, so an import cannot outlive
the code that needed it; and `import degenscope.cli` loads no module the
CLI does not use.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_csv_module():
    # A CSV row is a comma join; the `csv` module would only add start-up time.
    code = "import sys, degenscope.cli\nprint(sorted({'csv', '_csv'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_cli_reads_argv_without_argparse():
    # The grammar table reads the command line; argparse, with the gettext
    # and locale modules it loads, is built only for help and usage errors.
    code = (
        "import sys\nfrom degenscope import cli\n"
        "assert cli.main(['cqs', '1', '1', '1']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stderr == "[]\n"


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
    code = (
        f"import sys\nfrom degenscope import cli\nargv = {argv!r}\n"
        "assert not argv or cli.main(argv) == 0\n"
        "print('degenscope.pool' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stderr == f"{loads_pool}\n"


def test_help_still_prints_the_usage():
    proc = subprocess.run([sys.executable, "-m", "degenscope", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: degenscope [-h]")
