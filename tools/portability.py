"""Run the CLI's byte-pinned commands under each given Python interpreter.

    python3 tools/portability.py /path/to/python3.10 /path/to/python3.13 ...

For every interpreter, each `tests/test_golden.py` case and the four
scan_box cases of `bench/digests.json` (`scan 60`, JSON and CSV, at
`--jobs 1` and 2) run as `<python> -m degenscope` in a fresh temporary
directory, with this checkout's `src` on the path and no bytecode written.
A case passes when it exits 0 and its stdout and `--out` file match the
fixture or digest byte for byte.  Then come the process-exit cases of
`tests/test_cli.py::TestProcessExit`: a write to /dev/full (where the
system has one) and to a closed pipe each exit 4 with one `error:` line,
`-m cProfile` prints its stats, `-m trace` keeps the normal exit, so it
writes its cover files, `cli.run` ends with a hard exit that skips an
`atexit` hook and still prints the pinned `cqs 1 0 0` bytes, and under
`sys.settrace` it keeps the normal exit, so the hook runs.  Last,
`tests/argv_cases.py` checks the CLI's argv reader against argparse on
its fixed corpus: argparse's handling of repeated and intermixed options
has changed between Python versions, and the reader must agree with the
argparse of each interpreter or leave the argv to it.  One `pass`
or `FAIL` line is printed per interpreter and case; the exit status is 1
if any case failed, else 0.

Only the standard library is used, here and under the interpreters run,
so an interpreter needs no test dependencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASE_TIMEOUT_S = 300

sys.path.insert(0, str(ROOT / "tests"))
from golden_cases import BENCH_IDS, BENCH_SCAN_OUT, BENCH_SCANS, CASES, OUT  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases() -> list[tuple[str, tuple[str, ...], str, str | None, str | None]]:
    """(name, argv, out path, stdout sha256, out sha256 or None) per case."""
    found = []
    for name, argv in CASES:
        outfile = GOLDEN / f"{name}.outfile"
        want_out = sha256(outfile.read_bytes()) if OUT in argv else None
        found.append((name, argv, OUT, sha256((GOLDEN / f"{name}.stdout").read_bytes()), want_out))
    digests = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    for name, argv in zip(BENCH_IDS[:4], BENCH_SCANS[:4]):
        want = digests[" ".join(argv)]
        found.append((name, argv, BENCH_SCAN_OUT, want["stdout"], want["out"]))
    return found


def spawn(python: str, args: list[str], cwd: str, **kwargs) -> subprocess.CompletedProcess:
    """`python args` in `cwd`, with this checkout's `src` on the path, no
    bytecode written and Python's default buffered stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([python, *args], cwd=cwd, env=env, timeout=CASE_TIMEOUT_S, **kwargs)


def run_case(python: str, argv: tuple[str, ...], out: str) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr and `--out` bytes (None when not asked for)
    of `python -m degenscope argv` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / out
        out_path.parent.mkdir(parents=True, exist_ok=True)
        proc = spawn(python, ["-m", "degenscope", *argv], tmp, capture_output=True)
        out_bytes = out_path.read_bytes() if out in argv and out_path.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, out_bytes


def last_line(stderr: bytes) -> str:
    """The last line of `stderr`, so that a FAIL report stays one line."""
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def check(python: str, argv: tuple[str, ...], out: str, want_stdout: str, want_out: str | None) -> str:
    """What differs from the pinned bytes, or "" when nothing does."""
    try:
        code, stdout, stderr, out_bytes = run_case(python, argv, out)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"could not run: {exc}"
    if code != 0:
        return f"exit {code}: {last_line(stderr)}"
    problems = []
    if sha256(stdout) != want_stdout:
        problems.append("stdout differs")
    if want_out is not None and (out_bytes is None or sha256(out_bytes) != want_out):
        problems.append(f"{out} differs" if out_bytes is not None else f"{out} missing")
    return ", ".join(problems)


def io_failure(proc: subprocess.CompletedProcess) -> str:
    """What differs from exit 4 with exactly one `error:` line on stderr."""
    errors = [line for line in proc.stderr.splitlines() if line.startswith(b"error:")]
    if proc.returncode != 4 or len(errors) != 1:
        return f"exit {proc.returncode} with {len(errors)} error lines: {last_line(proc.stderr)}"
    return ""


def full_device(python: str, tmp: str) -> str:
    # The scan's first failed write happens inside `main`, which reports it.
    with open("/dev/full", "wb") as full:
        argv = ["-m", "degenscope", "scan", "12"]
        return io_failure(spawn(python, argv, tmp, stdout=full, stderr=subprocess.PIPE))


def closed_pipe(python: str, tmp: str) -> str:
    # `cqs` output waits in the buffer, so the final flush is what fails.
    r, w = os.pipe()
    os.close(r)
    try:
        argv = ["-m", "degenscope", "cqs", "1", "1", "1"]
        return io_failure(spawn(python, argv, tmp, stdout=w, stderr=subprocess.PIPE))
    finally:
        os.close(w)


def cprofile_stats(python: str, tmp: str) -> str:
    argv = ["-m", "cProfile", "-m", "degenscope", "cqs", "1", "1", "1"]
    proc = spawn(python, argv, tmp, capture_output=True)
    if proc.returncode != 0 or b"function calls" not in proc.stdout:
        return f"exit {proc.returncode}, no stats on stdout"
    return ""


def trace_cover_files(python: str, tmp: str) -> str:
    argv = ["-m", "trace", "--count", "-C", tmp, "--module", "degenscope", "cqs", "1", "1", "1"]
    proc = spawn(python, argv, tmp, capture_output=True)
    if proc.returncode != 0 or not (Path(tmp) / "degenscope.cli.cover").is_file():
        return f"exit {proc.returncode}, no degenscope.cli.cover written"
    return ""


# An `atexit` hook that reports itself on stderr, then `cli.run` on the
# smooth germ, whose stdout is pinned in tests/golden/cqs_smooth.stdout.
ATEXIT_PROBE = (
    "import atexit, sys\n"
    "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
    "{hook}\n"
    "from degenscope import cli\n"
    "cli.run(['cqs', '1', '0', '0'])\n"
)


def hard_exit(python: str, tmp: str) -> str:
    proc = spawn(python, ["-c", ATEXIT_PROBE.format(hook="")], tmp, capture_output=True)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {last_line(proc.stderr)}"
    problems = []
    if proc.stdout != (GOLDEN / "cqs_smooth.stdout").read_bytes():
        problems.append("stdout differs")
    if b"atexit ran" in proc.stderr:
        problems.append("the atexit hook ran")
    return ", ".join(problems)


def settrace_exit(python: str, tmp: str) -> str:
    code = ATEXIT_PROBE.format(hook="sys.settrace(lambda *a: None)")
    proc = spawn(python, ["-c", code], tmp, capture_output=True)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {last_line(proc.stderr)}"
    return "" if b"atexit ran" in proc.stderr else "the atexit hook did not run"


EXIT_CASES = ([full_device] if os.path.exists("/dev/full") else []) + [
    closed_pipe,
    cprofile_stats,
    trace_cover_files,
    hard_exit,
    settrace_exit,
]


def argv_reader(python: str, tmp: str) -> str:
    proc = spawn(python, [str(ROOT / "tests" / "argv_cases.py")], tmp, capture_output=True, text=True)
    if proc.returncode != 0:
        lines = proc.stdout.splitlines() or [f"exit {proc.returncode}: {last_line(proc.stderr.encode())}"]
        return "; ".join(lines[:3])
    return ""


OTHER_CASES = EXIT_CASES + [argv_reader]


def check_exit(python: str, case) -> str:
    """What `case` found wrong in a fresh directory, or "" when nothing."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return case(python, tmp)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"could not run: {exc}"


def results(python: str, pinned: list):
    """(name, problem) of every case under `python`, each once it has run."""
    for name, *case in pinned:
        yield name, check(python, *case)
    for case in OTHER_CASES:
        yield case.__name__, check_exit(python, case)


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
    failed = 0
    all_cases = cases()
    for python in args.pythons:
        label = f"{python} ({version(python)})"
        for name, problem in results(python, all_cases):
            failed += bool(problem)
            print(f"FAIL {label} {name}: {problem}" if problem else f"pass {label} {name}", flush=True)
    total = len(args.pythons) * (len(all_cases) + len(OTHER_CASES))
    print(f"{total - failed} of {total} passed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
