"""How a CLI process ends and how it is launched, one row per behaviour,
importable without pytest.

Each row of `ROWS` is a function `(python, tmp) -> problem`: it starts the
CLI under the interpreter `python` in the empty directory `tmp` through
`spawn`, and returns what differs from the behaviour it pins, or "" when
nothing does.  A row that cannot apply to the interpreter or the machine
raises `Skip` with the reason: a machine without /dev/full, or an
interpreter without `sys.monitoring` (before Python 3.12).
`tools/portability.py` runs every row under each interpreter it is
given, and `tests/test_portability.py` runs that tool on the current one.

`cli.run` ends each CLI process: it flushes stdout, then leaves through a
hard exit that skips interpreter teardown, except under a profiler or
tracer, whose report needs the normal exit.  A write or flush that fails
(a full disk, a closed pipe) exits 4 with exactly one `error:` line; a
stderr that cannot take that line, or a `warning:` line, changes no exit
code and no output.
"""

from __future__ import annotations

import json
import os
import subprocess
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASE_TIMEOUT_S = 300
SMOOTH_STDOUT = ROOT / "tests" / "golden" / "cqs_smooth.stdout"


class Skip(Exception):
    """The row cannot apply here; the message says why."""


def spawn(python: str, args: list[str], cwd: str, **kwargs) -> subprocess.CompletedProcess:
    """`python args` in `cwd`, with this checkout's `src` on the path, no
    bytecode written and Python's default buffered stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([python, *args], cwd=cwd, env=env, timeout=CASE_TIMEOUT_S, **kwargs)


def last_line(stderr: bytes) -> str:
    """The last line of `stderr` (None when it was not captured), so that
    a report stays one line."""
    lines = (stderr or b"").decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def report(proc: subprocess.CompletedProcess, *checks: tuple[bool, str]) -> str:
    """The failed checks, each a (holds, what it says when it fails) pair,
    with the exit code and last stderr line of `proc`; "" when all hold."""
    failed = [what for holds, what in checks if not holds]
    return f"{', '.join(failed)} (exit {proc.returncode}: {last_line(proc.stderr)})" if failed else ""


def exits(proc: subprocess.CompletedProcess, code: int) -> tuple[bool, str]:
    return proc.returncode == code, f"not exit {code}"


def io_failure(proc: subprocess.CompletedProcess, *checks: tuple[bool, str]) -> str:
    """Exit 4 with exactly one `error:` line and no "Exception ignored"
    report of a failed flush at teardown, and `checks`."""
    errors = [line for line in proc.stderr.splitlines() if line.startswith(b"error:")]
    return report(
        proc,
        exits(proc, 4),
        (len(errors) == 1, f"{len(errors)} error: lines"),
        (b"Exception ignored" not in proc.stderr, "Exception ignored on stderr"),
        *checks,
    )


def full_device(args: list[str], python: str, tmp: str) -> str:
    if not os.path.exists("/dev/full"):
        raise Skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        proc = spawn(python, args, tmp, stdout=full, stderr=subprocess.PIPE)
    return io_failure(proc, (b"No space left on device" in proc.stderr, "no ENOSPC message"))


def spawn_on_dead_pipe(python: str, args: list[str], tmp: str, streams: tuple[str, ...], **kwargs):
    """`spawn` with each of `streams` ("stdout", "stderr") on one pipe
    whose reader has gone."""
    r, w = os.pipe()
    os.close(r)
    try:
        return spawn(python, args, tmp, **dict.fromkeys(streams, w), **kwargs)
    finally:
        os.close(w)


def closed_pipe(args: list[str], python: str, tmp: str) -> str:
    return io_failure(spawn_on_dead_pipe(python, args, tmp, ("stdout",), stderr=subprocess.PIPE))


def closed_stderr(args: list[str], code: int, streams: tuple[str, ...], python: str, tmp: str) -> str:
    """`args` still exits `code` when its `error:` line cannot be written:
    `streams`, stderr among them, share a pipe whose reader has gone, and
    any other stream is /dev/null."""
    others = dict.fromkeys({"stdout", "stderr"}.difference(streams), subprocess.DEVNULL)
    proc = spawn_on_dead_pipe(python, args, tmp, streams, **others)
    return report(proc, exits(proc, code))


# The argv whose output fails: `cqs` and `--csv density` output waits in
# the buffer, so the final flush fails; the scan writes about 35 KB, so its
# first failed write happens inside `main`, which reports it; `--help` ends
# in argparse's SystemExit.
IO_ARGVS = {
    "cqs": ("cqs", "1", "1", "1"),
    "csv_density": ("--csv", "density", "10"),
    "scan": ("scan", "12"),
    "help": ("--help",),
}

# Python sizes stdout's buffer by the file's block size.  Above the text
# layer's 8 KiB chunks (a regular file on some file systems), a chunk that
# fails inside `main` leaves bytes buffered, and the final flush fails with
# them again; the failure is still reported once.
BIG_BUFFER_SCAN = (
    "import io, sys\n"
    "sys.stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(1, 'w'), 1 << 14))\n"
    "from degenscope import cli\n"
    "cli.run(['scan', '12'])\n"
)

# An `atexit` hook that reports itself on stderr, and the argv of the
# smooth germ, whose stdout is pinned in tests/golden/cqs_smooth.stdout.
ATEXIT = (
    "import atexit, sys\n"
    "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
    "sys.argv = ['degenscope', 'cqs', '1', '0', '0']\n"
)
RUN = "from degenscope import cli\ncli.run(sys.argv[1:])\n"
RUNPY = "import runpy\nrunpy.run_module('degenscope', run_name='__main__')\n"
MONITORING = "sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, 'probe')\n"


def ends(code: str, atexit_runs: bool, python: str, tmp: str) -> str:
    """`code` after ATEXIT prints the smooth germ and exits 0; the atexit
    hook runs only after the normal exit that a hooked run keeps."""
    proc = spawn(python, ["-c", ATEXIT + code], tmp, capture_output=True)
    ran = b"atexit ran" in proc.stderr
    return report(
        proc,
        exits(proc, 0),
        (proc.stdout == SMOOTH_STDOUT.read_bytes(), "stdout differs from cqs_smooth"),
        (ran == atexit_runs, "the atexit hook ran" if ran else "the atexit hook did not run"),
    )


def monitoring(python: str, tmp: str) -> str:
    if spawn(python, ["-c", "import sys; sys.exit(hasattr(sys, 'monitoring'))"], tmp).returncode != 1:
        raise Skip("sys.monitoring (PEP 669) is Python 3.12+")
    return ends(MONITORING + RUN, True, python, tmp)


def closed_streams(streams: str, argv: list[str], code: int, python: str, tmp: str) -> str:
    # Python sets sys.stdout (sys.stderr) to None when it starts with
    # descriptor 1 (2) closed.
    source = f"import sys\n{streams} = None\nfrom degenscope import cli\ncli.run({argv!r})\n"
    proc = spawn(python, ["-c", source], tmp, capture_output=True)
    return report(proc, exits(proc, code), (proc.stdout == proc.stderr == b"", "output written"))


# `--csv density 7` with a failed bound check forced: a CSV table has no
# envelope, so its one warning goes to stderr.
FORCED_WARNING = (
    "from degenscope import cli\n"
    "cli._bound_check_warnings = lambda censuses: ['forced warning']\n"
    "cli.run(['--csv', 'density', '7'])\n"
)


def lost_warning(dead_pipe: bool, python: str, tmp: str) -> str:
    """A warning that stderr cannot take (a pipe whose reader has gone, or
    `sys.stderr` None) is lost: the run exits 0 with the CSV table alone on
    stdout."""
    table = spawn(python, ["-m", "degenscope", "--csv", "density", "7"], tmp, capture_output=True).stdout
    if dead_pipe:
        proc = spawn_on_dead_pipe(python, ["-c", FORCED_WARNING], tmp, ("stderr",), stdout=subprocess.PIPE)
    else:
        proc = spawn(python, ["-c", "import sys\nsys.stderr = None\n" + FORCED_WARNING], tmp, capture_output=True)
    return report(proc, exits(proc, 0), (proc.stdout == table, "stdout is not the CSV table alone"))


def usage_error(python: str, tmp: str) -> str:
    proc = spawn(python, ["-c", "from degenscope import cli\ncli.run(['wps'])\n"], tmp, capture_output=True)
    return report(proc, exits(proc, 2), (proc.stderr.startswith(b"usage:"), "no usage on stderr"))


def cprofile(python: str, tmp: str) -> str:
    proc = spawn(python, ["-m", "cProfile", "-m", "degenscope", "cqs", "1", "1", "1"], tmp, capture_output=True)
    envelope, _, stats = proc.stdout.partition(b"\n}\n")
    try:
        command = json.loads(envelope + b"}")["command"]
    except ValueError:
        command = None
    return report(
        proc,
        exits(proc, 0),
        (command == "cqs", "no cqs envelope on stdout"),
        (b"function calls" in stats, "no stats after the envelope"),
    )


def trace(python: str, tmp: str) -> str:
    args = ["-m", "trace", "--count", "-C", tmp, "--module", "degenscope", "cqs", "1", "1", "1"]
    proc = spawn(python, args, tmp, capture_output=True)
    written = (Path(tmp) / "degenscope.cli.cover").is_file()
    return report(proc, exits(proc, 0), (written, "no degenscope.cli.cover written"))


def help_usage(python: str, tmp: str) -> str:
    proc = spawn(python, ["-m", "degenscope", "--help"], tmp, capture_output=True)
    return report(proc, exits(proc, 0), (proc.stdout.startswith(b"usage: degenscope [-h]"), "no usage on stdout"))


def bad_input(python: str, tmp: str) -> str:
    proc = spawn(python, ["-m", "degenscope", "wps", "-1", "2", "3"], tmp, capture_output=True)
    return report(proc, exits(proc, 2))


def cli_module(python: str, tmp: str) -> str:
    """`-m degenscope.cli` prints the bytes `-m degenscope` prints."""
    package, module = (
        spawn(python, ["-m", name, "cqs", "4", "1", "1"], tmp, capture_output=True)
        for name in ("degenscope", "degenscope.cli")
    )
    try:
        result = json.loads(package.stdout)["result"]
    except ValueError:
        result = {}
    return report(
        module if package.returncode == 0 else package,
        exits(package, 0),
        (module.returncode == 0, "degenscope.cli: not exit 0"),
        (package.stdout == module.stdout, "the two launchers print different bytes"),
        (result.get("chain") == [4] and result.get("wahl") is True, "not the Wahl germ [4]"),
    )


ROWS = {
    **{f"full_device_{name}": partial(full_device, ["-m", "degenscope", *argv]) for name, argv in IO_ARGVS.items()},
    "full_device_inside_main": partial(full_device, ["-c", BIG_BUFFER_SCAN]),
    **{f"closed_pipe_{name}": partial(closed_pipe, ["-m", "degenscope", *argv]) for name, argv in IO_ARGVS.items()},
    "closed_pipe_stdout_and_stderr": partial(
        closed_stderr, ["-m", "degenscope", "cqs", "1", "1", "1"], 4, ("stdout", "stderr")
    ),
    "closed_pipe_stderr_bad_input": partial(closed_stderr, ["-m", "degenscope", "cqs", "0", "1", "1"], 2, ("stderr",)),
    "hard_exit_cli_run": partial(ends, RUN, False),
    "hard_exit_runpy": partial(ends, RUNPY, False),
    "closed_stdout": partial(closed_streams, "sys.stdout", ["cqs", "1", "1", "1"], 0),
    "closed_stdout_and_stderr": partial(closed_streams, "sys.stdout = sys.stderr", ["cqs", "1", "1", "1"], 0),
    "closed_stderr_bad_input": partial(closed_streams, "sys.stderr", ["cqs", "0", "1", "1"], 2),
    "closed_stdout_scan": partial(closed_streams, "sys.stdout", ["scan", "5"], 0),
    "closed_pipe_stderr_csv_warning": partial(lost_warning, True),
    "closed_stderr_csv_warning": partial(lost_warning, False),
    "usage_error": usage_error,
    "setprofile": partial(ends, "sys.setprofile(lambda *a: None)\n" + RUN, True),
    "settrace": partial(ends, "sys.settrace(lambda *a: None)\n" + RUN, True),
    "monitoring": monitoring,
    "cprofile": cprofile,
    "trace": trace,
    "help": help_usage,
    "bad_input": bad_input,
    "cli_module": cli_module,
}
