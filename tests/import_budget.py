"""The modules a CLI command may load, checked in a fresh process.

`tools/portability.py` runs every row of `BUDGET` under each interpreter
it is given, `tests/test_portability.py` runs that tool on the current
one, and `tests/test_exports.py` checks that the probe sees a loaded
module, so this file uses only the standard library.

The process runs under `python -S -B`, with this checkout's `src` put on
`sys.path` by the probe itself.  Without `-S`, a site `.pth` file may
import `typing` or `contextlib` before the program starts and hide a
regression.  The probe gives the process two usable CPUs and counts the
workers it forks.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# What the CLI never loads: `csv` (a CSV row is a comma join), argparse with
# the gettext and locale modules it loads (argparse is built only for help
# and usage errors), `dataclasses`, the `json` package and `typing` (the CLI
# takes its C encoder straight from `_json`, and its value types are
# `collections.namedtuple`s), and `multiprocessing` and `pickle` (the fork
# pool runs on `os.fork`, pipes and `marshal`).
NEVER = (
    "csv", "_csv", "argparse", "gettext", "locale", "dataclasses",
    "json", "json.decoder", "typing", "multiprocessing", "pickle",
)  # fmt: skip
# What only a scan loads: its fork pool and atomic writer, which are
# context managers; and what only its forked fan-out loads.
SCAN = ("degenscope.pool", "contextlib")
FORKED = ("select", "signal")

# name: (argv, the modules its run may not load, the modules it must load,
# the workers it forks).  An empty argv is `import degenscope.cli` alone.
BUDGET = {
    "import": ((), NEVER + SCAN + FORKED, (), 0),
    "cqs": (("cqs", "1", "1", "1"), NEVER + SCAN + FORKED, (), 0),
    "wps": (("wps", "4", "25", "841"), NEVER + SCAN + FORKED, (), 0),
    "density": (("density", "10"), NEVER + SCAN + FORKED, (), 0),
    "markov": (("markov", "degenerations", "--n", "3", "--bound", "20"), NEVER + SCAN + FORKED, (), 0),
    "scan": (("scan", "5"), NEVER + FORKED, SCAN, 0),
    "scan_jobs2": (("--jobs", "2", "--quiet", "scan", "6"), NEVER, SCAN + FORKED, 2),
}

# Runs `cli.main(argv)`, then writes on stderr the sorted lists of the
# banned modules that are loaded and of the needed ones that are not, and
# the number of forks, and exits with main's code.
PROBE = (
    "import os, sys\n"
    "sys.path.insert(0, {src!r})\n"
    "os.sched_getaffinity = lambda pid: {{0, 1}}\n"
    "forks, fork = [], os.fork\n"
    "os.fork = lambda: forks.append(1) or fork()\n"
    "from degenscope import cli\n"
    "code = cli.main({argv!r}) if {argv!r} else 0\n"
    "print(sorted(set({banned!r}) & set(sys.modules)), file=sys.stderr)\n"
    "print(sorted(set({needed!r}) - set(sys.modules)), file=sys.stderr)\n"
    "print(len(forks), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def over_budget(
    python: str,
    argv: tuple[str, ...],
    banned: tuple[str, ...],
    needed: tuple[str, ...] = (),
    forks: int = 0,
    cwd: str | None = None,
) -> str:
    """What a fresh `python -S -B` that runs `argv` loaded of `banned`, did
    not load of `needed`, and whether it forked other than `forks` workers,
    or how it failed; "" when none of these happened."""
    code = PROBE.format(src=str(SRC), argv=list(argv), banned=banned, needed=needed)
    proc = subprocess.run(
        [python, "-S", "-B", "-c", code], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    label = " ".join(argv) or "import degenscope.cli"
    lines = proc.stderr.splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        return f"{label}: exit {proc.returncode}: {lines[-1] if lines else ''}"
    loaded, missing, forked = lines[-3:]
    problems = []
    if loaded != "[]":
        problems.append(f"loaded {loaded}")
    if missing != "[]":
        problems.append(f"did not load {missing}")
    if forked != str(forks):
        problems.append(f"forked {forked} workers, not {forks}")
    return f"{label} {', '.join(problems)}" if problems else ""
