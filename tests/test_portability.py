"""`tools/portability.py` on this interpreter: every byte-pinned command
passes when run as `python -m degenscope` in a fresh process, the argv
reader agrees with argparse, and each row of the process rules in
`tests/exit_cases.py` and `tests/import_budget.py` passes or is skipped
for its reason.  The tool runs once; each row is reported as its own test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import exit_cases
import pytest
from golden_cases import CASES
from import_budget import BUDGET

TOOL = Path(__file__).resolve().parent.parent / "tools" / "portability.py"
ROW_NAMES = [*exit_cases.ROWS, *(f"import_budget_{name}" for name in BUDGET)]


@pytest.fixture(scope="module")
def tool():
    proc = subprocess.run(
        [sys.executable, str(TOOL), sys.executable], capture_output=True, text=True, timeout=600
    )
    # Each case line is "<status> <python> (<version>) <name>[: <message>]".
    lines = {line.partition(": ")[0].rsplit(" ", 1)[-1]: line for line in proc.stdout.splitlines()[:-1]}
    return proc, lines


def test_every_pinned_command_passes_on_this_interpreter(tool):
    proc, lines = tool
    out = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # One line per golden case, per scan_box digest case, for the argv
    # reader's oracle and per row of the two tables, then the tally.
    cases = len(CASES) + 4 + 1 + len(ROW_NAMES)
    assert len(out) == len(lines) + 1 == cases + 1
    skipped = [line for line in out[:-1] if line.startswith("skip ")]
    assert all(line.startswith("pass ") for line in out[:-1] if line not in skipped), proc.stdout
    assert out[-1] == f"{cases - len(skipped)} of {cases} passed, {len(skipped)} skipped"


@pytest.mark.parametrize("name", ROW_NAMES)
def test_row(tool, name):
    line = tool[1][name]
    if line.startswith("skip "):
        pytest.skip(line.partition(": ")[2])
    assert line.startswith("pass "), line


def test_an_exit_row_sees_a_hard_exit_it_does_not_expect(tmp_path):
    # Unhooked, `cli.run` skips the atexit hook that a row expecting the
    # normal exit looks for.
    found = exit_cases.ends(exit_cases.RUN, True, sys.executable, str(tmp_path))
    assert found.startswith("the atexit hook did not run (exit 0: ")
