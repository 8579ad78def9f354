"""Run the CLI's byte-pinned commands and process rules under each given
Python interpreter.

    python3 tools/portability.py /path/to/python3.10 /path/to/python3.13 ...

For every interpreter, each `tests/test_golden.py` case and the four
scan_box cases of `bench/digests.json` (`scan 60`, JSON and CSV, at
`--jobs 1` and 2) run as `<python> -m degenscope` in a fresh temporary
directory, with this checkout's `src` on the path and no bytecode written.
A case passes when it exits 0 and its stdout and `--out` file match the
fixture or digest byte for byte.  Then `tests/argv_cases.py` checks the
CLI's argv reader against argparse on its fixed corpus: argparse's
handling of repeated and intermixed options has changed between Python
versions, and the reader must agree with the argparse of each interpreter
or leave the argv to it.  Then come the two tables of the CLI's process
rules, one case per row: `tests/exit_cases.py`, how a run ends (a full
disk or a closed pipe exits 4 with one `error:` line, a dead stderr keeps
the exit code, the hard exit, the normal exit kept under a profiler or
tracer, usage errors, `--help`, the `-m degenscope.cli` launcher), and
`tests/import_budget.py`, the modules each command may load and must
load, in a fresh `python -S` process.

One `pass`, `FAIL` or `skip` line is printed per interpreter and case; a
row that cannot apply there is skipped with its reason (a machine without
/dev/full, or `sys.monitoring` before Python 3.12).  The last line counts
them; the exit status is 1 if any case failed, else 0.

Only the standard library is used, here and under the interpreters run,
so an interpreter needs no test dependencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

sys.path.insert(0, str(ROOT / "tests"))
from exit_cases import ROWS as EXIT_ROWS, Skip, last_line, spawn  # noqa: E402
from golden_cases import BENCH_IDS, BENCH_SCAN_OUT, BENCH_SCANS, CASES, OUT  # noqa: E402
from import_budget import BUDGET, over_budget  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned(argv: tuple[str, ...], out: str, want_stdout: str, want_out: str | None, python: str, tmp: str) -> str:
    """What `python -m degenscope argv` prints or writes to `out` that
    differs from the pinned sha256 digests (no `out` file is asked for
    when `want_out` is None)."""
    out_path = Path(tmp) / out
    out_path.parent.mkdir(parents=True, exist_ok=True)
    proc = spawn(python, ["-m", "degenscope", *argv], tmp, capture_output=True)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {last_line(proc.stderr)}"
    problems = []
    if sha256(proc.stdout) != want_stdout:
        problems.append("stdout differs")
    if want_out is not None and not out_path.exists():
        problems.append(f"{out} missing")
    elif want_out is not None and sha256(out_path.read_bytes()) != want_out:
        problems.append(f"{out} differs")
    return ", ".join(problems)


def argv_reader(python: str, tmp: str) -> str:
    proc = spawn(python, [str(ROOT / "tests" / "argv_cases.py")], tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        lines = proc.stdout.splitlines() or [f"exit {proc.returncode}: {last_line(proc.stderr.encode())}"]
        return "; ".join(lines[:3])
    return ""


def import_budget(row: tuple, python: str, tmp: str) -> str:
    return over_budget(python, *row, cwd=tmp)


def rows() -> dict:
    """Every case by name, each a function `(python, tmp) -> problem`: the
    golden cases and scan_box digests, the argv reader, then the rows of
    `tests/exit_cases.py` and `tests/import_budget.py`."""
    found = {}
    for name, argv in CASES:
        want_out = sha256((GOLDEN / f"{name}.outfile").read_bytes()) if OUT in argv else None
        found[name] = partial(pinned, argv, OUT, sha256((GOLDEN / f"{name}.stdout").read_bytes()), want_out)
    digests = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    for name, argv in zip(BENCH_IDS[:4], BENCH_SCANS[:4]):
        want = digests[" ".join(argv)]
        found[name] = partial(pinned, argv, BENCH_SCAN_OUT, want["stdout"], want["out"])
    return {
        **found,
        "argv_reader": argv_reader,
        **EXIT_ROWS,
        **{f"import_budget_{name}": partial(import_budget, row) for name, row in BUDGET.items()},
    }


def check(python: str, row) -> tuple[str, str]:
    """("pass", ""), ("FAIL", what `row` found wrong) or ("skip", why), run
    in a fresh directory."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            problem = row(python, tmp)
    except Skip as exc:
        return "skip", str(exc)
    except (OSError, subprocess.TimeoutExpired) as exc:
        problem = f"could not run: {exc}"
    return ("FAIL", problem) if problem else ("pass", "")


def version(python: str) -> str:
    try:
        proc = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "?"
    return proc.stdout.strip() or "?"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter paths")
    args = parser.parse_args(argv)
    counts = {"pass": 0, "FAIL": 0, "skip": 0}
    all_rows = rows()
    for python in args.pythons:
        label = f"{python} ({version(python)})"
        for name, row in all_rows.items():
            status, message = check(python, row)
            counts[status] += 1
            print(f"{status} {label} {name}" + (f": {message}" if message else ""), flush=True)
    total = sum(counts.values())
    print(f"{counts['pass']} of {total} passed, {counts['skip']} skipped", flush=True)
    return 1 if counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
