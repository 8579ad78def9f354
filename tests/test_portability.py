"""`tools/portability.py` on this interpreter: every byte-pinned command
passes when run as `python -m degenscope` in a fresh process."""

from __future__ import annotations

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
    # One line per golden case and per scan_box digest case, then the tally.
    assert len(lines) == len(CASES) + 4 + 1
    assert all(line.startswith("pass ") for line in lines[:-1]), proc.stdout
    assert lines[-1] == f"{len(CASES) + 4} of {len(CASES) + 4} passed"
