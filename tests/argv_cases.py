"""Command lines on which `cli.main`'s argv reader is checked against
argparse, importable without pytest.

    PYTHONPATH=src python tests/argv_cases.py

`cli._read_argv` may decline any argv (it returns None and `main` builds
argparse), but what it reads must be exactly what
`cli.build_parser().parse_args` reads, and it must decline every argv
that argparse rejects.  The script checks the fixed corpus below, prints
one line per disagreement and exits 1 if there is any, else 0;
`tests/test_argv.py` runs the same check in process and `tools/portability.py`
runs the script under each interpreter, since argparse's handling of
repeated and intermixed options has changed between Python versions.
Only the standard library is used.
"""

from __future__ import annotations

import contextlib
import io
import sys

from golden_cases import BENCH_SCANS, CASES

FLAGS = ("--json", "--csv", "--quiet", "--explain", "--jobs 2")
TOOLONG = "1" + "0" * 4300  # 4,301 digits: past `int`'s default limit of 4,300
LONGEST = "1" + "0" * 4299

# The argv the reader must read itself, not leave to argparse: each
# byte-pinned command and the benchmark's command shapes.  The full list of
# benchmark commands, seeds and all, is checked in tests/test_argv.py.
MUST_READ = (
    *(argv for _, argv in CASES),
    *BENCH_SCANS,
    ("--jobs", "1", "density", "400", "500"),
    ("--jobs", "2", "density", "400", "500"),
)

# Each line is one argv, split at spaces; "<empty>" stands for "".
_CORPUS_LINES = (
    # each global flag before the command, after it, after a markov subcommand
    *(f"{flag} cqs 1 1 1" for flag in FLAGS),
    *(f"cqs 1 1 1 {flag}" for flag in FLAGS),
    *(f"cqs {flag} 1 1 1" for flag in FLAGS),
    *(f"markov gen --n 3 --bound 5 {flag}" for flag in FLAGS),
    *(f"markov gen {flag} --n 3 --bound 5" for flag in FLAGS),
    *(f"markov {flag} gen --n 3 --bound 5" for flag in FLAGS),
    *(f"{flag} markov degenerations --n 3 --bound 5" for flag in FLAGS),
    *(f"{flag} density 10 20" for flag in FLAGS),
    *(f"density 10 20 {flag}" for flag in FLAGS),
    *(f"scan 5 {flag} --out f" for flag in FLAGS),
    # positionals split by an option, and stray positionals
    "density 10 --jobs 2 20",
    "cqs 1 --bound 2 1 1",
    "cqs 1 1 --quiet 1",
    "cqs 1 1 1 1",
    "scan 5 6",
    "scan 5 --out f 6",
    "markov gen 3 --n 3 --bound 5",
    "markov gen --n 3 --bound 5 7",
    # options repeated at one level or at both
    "--jobs 2 --jobs 3 scan 5",
    "--jobs 2 scan 5 --jobs 3",
    "scan 5 --jobs 2 --jobs 3",
    "--quiet --quiet scan 3",
    "--quiet scan 3 --quiet",
    "--explain wps 1 5 8 --explain",
    "cqs 1 1 1 --bound 2 --bound 3",
    "scan 5 --out f --out g",
    "markov gen --n 3 --n 4 --bound 5",
    "markov classic --bound 5 --bound 6",
    # --opt=value and abbreviations
    "--jobs=2 scan 5",
    "scan 5 --out=f",
    "cqs 1 1 1 --bound=3",
    "markov gen --n=3 --bound 5",
    "--jo 2 scan 5",
    "--qu scan 3",
    "--exp wps 1 5 8",
    "cqs 1 1 1 --bo 3",
    "scan 5 --o f",
    "markov gen --n 3 --b 5",
    "markov candidates --n 3 --x 4 --y 19",
    "markov candidates --n 3 --x 4",
    # values and positionals that start with "-"
    "--jobs -1 scan 5",
    "scan 5 --jobs -1",
    "cqs -5 1 1",
    "cqs 1 1 -1",
    "cqs 1 1 1 --bound -2",
    "density -3",
    "density 3 -4",
    "scan -5",
    "scan 5 --out -f",
    "scan 5 --out -",
    "markov gen --n -3 --bound 5",
    # "--" and help
    "-- cqs 1 1 1",
    "cqs -- 1 1 1",
    "cqs 1 1 1 --",
    "-h",
    "--help",
    "cqs -h",
    "cqs 1 1 1 --help",
    "markov -h",
    "markov gen -h",
    "-x cqs 1 1 1",
    "---jobs 2 scan 5",
    # integers `int` reads in forms a digit string does not show
    "cqs +5 1 1",
    "cqs 1_0 1 3",
    "cqs _1 1 1",
    "cqs 1__0 1 1",
    "cqs ١٢ 1 5",
    "cqs ７ 1 2",
    "cqs ² 1 1",
    "cqs 0x10 1 1",
    "cqs 1.0 1 1",
    "cqs 007 1 2",
    f"cqs {TOOLONG} 1 1",
    f"cqs {LONGEST} 1 1",
    f"--jobs {TOOLONG} scan 5",
    "--jobs +2 scan 5",
    # empty and missing tokens, unknown names
    "",
    "<empty>",
    "cqs <empty> 1 1",
    "scan 5 --out <empty>",
    "--jobs <empty> scan 5",
    "frobnicate",
    "CQS 1 1 1",
    "markov",
    "markov frobnicate",
    "markov classic",
    "markov gen --n 3",
    "cqs",
    "cqs 1 1",
    "cqs 1 1 1 --bound",
    "--jobs",
    "--jobs scan 5",
    "--quiet",
    "density",
    "scan",
    "scan 5 --out",
    "wps 1 2",
    "wps 1 2 x",
)
CORPUS = MUST_READ + tuple(
    tuple("" if token == "<empty>" else token for token in line.split(" ")) if line else ()
    for line in _CORPUS_LINES
)


def argparse_reads(cli, argv) -> dict | int:
    """`vars()` of what `cli.build_parser().parse_args(argv)` returns, or
    the exit code with which argparse rejects the argv (or prints help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(list(argv)))
        except SystemExit as exc:
            return exc.code


def typed(values: dict) -> dict:
    """`values` with each value paired with its type, so True and 1 differ."""
    return {key: (type(value).__name__, value) for key, value in values.items()}


def disagreement(cli, argv, must_read: bool = False) -> str:
    """How the reader's result for `argv` differs from argparse's, or ""."""
    read = cli._read_argv(list(argv))
    if read is None:
        return "declined" if must_read else ""
    parsed = argparse_reads(cli, argv)
    if not isinstance(parsed, dict):
        return f"argparse exits {parsed}, the reader reads {vars(read)}"
    if typed(vars(read)) != typed(parsed):
        return f"the reader reads {vars(read)}, argparse {parsed}"
    return ""


def disagreements(cli) -> list[str]:
    """One line per corpus argv on which the reader and argparse disagree."""
    must = set(MUST_READ)
    return [
        f"{' '.join(argv)[:80]!r}: {problem}"
        for argv in CORPUS
        if (problem := disagreement(cli, argv, argv in must))
    ]


if __name__ == "__main__":
    from degenscope import cli

    found = disagreements(cli)
    for line in found:
        print(line)
    print(f"{len(CORPUS) - len(found)} of {len(CORPUS)} argv agree")
    sys.exit(1 if found else 0)
