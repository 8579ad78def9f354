"""The modules a CLI command may not load, checked in a fresh process.

`tests/test_exports.py` runs the check on this interpreter and
`tools/portability.py` under each interpreter it is given, so this file
uses only the standard library.

The process runs under `python -S -B`, with this checkout's `src` put on
`sys.path` by the probe itself.  Without `-S`, a site `.pth` file may
import `typing` or `contextlib` before the program starts and hide a
regression.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# What no command but `scan` needs: the `json` package (the CLI takes its C
# encoder straight from `_json`), json's decoder, `typing` and `contextlib`.
NOT_LOADED = ("json", "json.decoder", "typing", "contextlib")

# (argv, the modules its run may not load).  A scan's fork pool and atomic
# writer are context managers, so `scan` may load `contextlib`.
BUDGET = (
    (("cqs", "1", "1", "1"), NOT_LOADED),
    (("wps", "4", "25", "841"), NOT_LOADED),
    (("density", "10"), NOT_LOADED),
    (("markov", "degenerations", "--n", "3", "--bound", "20"), NOT_LOADED),
    (("scan", "5"), ("json", "json.decoder", "typing")),
)

# Runs `cli.main(argv)`, then writes on stderr the sorted list of the
# banned modules that are loaded, and exits with main's code.
PROBE = (
    "import sys\n"
    "sys.path.insert(0, {src!r})\n"
    "from degenscope import cli\n"
    "code = cli.main({argv!r})\n"
    "print(sorted(set({banned!r}) & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def over_budget(python: str, argv: tuple[str, ...], banned: tuple[str, ...], cwd: str | None = None) -> str:
    """What a fresh `python -S -B` that runs `argv` loaded of `banned`, or
    how it failed; "" when it loaded none of them."""
    code = PROBE.format(src=str(SRC), argv=list(argv), banned=banned)
    proc = subprocess.run(
        [python, "-S", "-B", "-c", code], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = proc.stderr.splitlines()
    if proc.returncode != 0 or not lines:
        return f"{' '.join(argv)}: exit {proc.returncode}: {lines[-1] if lines else ''}"
    return "" if lines[-1] == "[]" else f"{' '.join(argv)} loaded {lines[-1]}"
