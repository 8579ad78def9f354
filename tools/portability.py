"""Run the CLI's byte-pinned commands under each given Python interpreter.

    python3 tools/portability.py /path/to/python3.10 /path/to/python3.13 ...

For every interpreter, each `tests/test_golden.py` case and the four
scan_box cases of `bench/digests.json` (`scan 60`, JSON and CSV, at
`--jobs 1` and 2) run as `<python> -m degenscope` in a fresh temporary
directory, with this checkout's `src` on the path and no bytecode written.
A case passes when it exits 0 and its stdout and `--out` file match the
fixture or digest byte for byte.  One `pass` or `FAIL` line is printed per
interpreter and case; the exit status is 1 if any case failed, else 0.

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


def run_case(python: str, argv: tuple[str, ...], out: str) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr and `--out` bytes (None when not asked for)
    of `python -m degenscope argv` in a fresh directory."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / out
        out_path.parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [python, "-m", "degenscope", *argv],
            cwd=tmp,
            env=env,
            capture_output=True,
            timeout=CASE_TIMEOUT_S,
        )
        out_bytes = out_path.read_bytes() if out in argv and out_path.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, out_bytes


def check(python: str, argv: tuple[str, ...], out: str, want_stdout: str, want_out: str | None) -> str:
    """What differs from the pinned bytes, or "" when nothing does."""
    try:
        code, stdout, stderr, out_bytes = run_case(python, argv, out)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"could not run: {exc}"
    if code != 0:
        return f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}"
    problems = []
    if sha256(stdout) != want_stdout:
        problems.append("stdout differs")
    if want_out is not None and (out_bytes is None or sha256(out_bytes) != want_out):
        problems.append(f"{out} differs" if out_bytes is not None else f"{out} missing")
    return ", ".join(problems)


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
        for name, case_argv, out, want_stdout, want_out in all_cases:
            problem = check(python, case_argv, out, want_stdout, want_out)
            failed += bool(problem)
            print(f"FAIL {label} {name}: {problem}" if problem else f"pass {label} {name}", flush=True)
    total = len(args.pythons) * len(all_cases)
    print(f"{total - failed} of {total} passed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
