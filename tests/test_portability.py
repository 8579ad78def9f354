"""`tools/portability.py` on this interpreter: every byte-pinned command
passes when run as `python -m degenscope` in a fresh process, and so does
every process-exit case, the argv reader agrees with argparse, and each
command stays within its import budget."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from golden_cases import CASES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "portability.py"


def test_every_pinned_command_passes_on_this_interpreter():
    proc = subprocess.run(
        [sys.executable, str(TOOL), sys.executable], capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # One line per golden case, per scan_box digest case, per process-exit
    # case (the /dev/full one only where the system has the device), for
    # the argv reader's oracle and for the import budget, then the tally.
    cases = len(CASES) + 4 + (6 if os.path.exists("/dev/full") else 5) + 2
    assert len(lines) == cases + 1
    assert all(line.startswith("pass ") for line in lines[:-1]), proc.stdout
    assert lines[-1] == f"{cases} of {cases} passed"
