"""`cli.main` reads a command line from the grammar table without argparse,
and argparse, built from the same table, is unchanged.

The reader may decline any argv, which `main` then hands to argparse, but
what it reads must equal what argparse reads, and it must decline every
argv argparse rejects: checked on the fixed corpus of tests/argv_cases.py,
on every command the benchmark issues, and on token sequences drawn from
the grammar's vocabulary.  The parser `build_parser` returns is pinned by
two fixtures under tests/parser/, recorded from the hand-written parser
the table replaced: each parser's actions, and the `--help` text of each
parser on Python 3.11 (argparse lays help out differently across versions).

    PYTHONPATH=src python tests/test_argv.py

records the fixtures that are missing; existing ones are never rewritten.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest
from argv_cases import argparse_reads, disagreement, disagreements
from hypothesis import given, settings
from hypothesis import strategies as st

from degenscope import cli

ROOT = Path(__file__).resolve().parent.parent
PARSER = Path(__file__).resolve().parent / "parser"
ACTIONS = PARSER / "actions.jsonl"
HELP_WIDTH = "80"


def parsers(parser) -> list:
    """`parser` and each parser under it, top down in declaration order."""
    found = [parser]
    for action in parser._actions:
        if isinstance(action.choices, dict):  # a subcommand group
            for sub in action.choices.values():
                found += parsers(sub)
    return found


def describe(parser) -> list[dict]:
    """One record per parser (its prog, description and `set_defaults`
    values), each followed by one record per action, in declaration order;
    a subcommand group's record lists its choices."""
    records = []
    for p in parsers(parser):
        records.append({"prog": p.prog, "description": p.description, "defaults": p._defaults})
        for a in p._actions:
            record = {
                "action": type(a).__name__,
                "option_strings": a.option_strings,
                "dest": a.dest,
                "type": getattr(a.type, "__name__", None),
                "nargs": a.nargs,
                "default": a.default,
                "required": a.required,
                "metavar": a.metavar,
                "help": a.help,
            }
            if isinstance(a.choices, dict):
                record["choices"] = [[c.dest, c.help] for c in a._choices_actions]
            records.append(record)
    return json.loads(json.dumps(records))


def help_texts(parser) -> dict[str, str]:
    """Each parser's `--help` text, keyed by its fixture file name, at a
    fixed width of 80 columns."""
    width = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = HELP_WIDTH
    try:
        return {f"{p.prog.replace(' ', '_')}.txt": p.format_help() for p in parsers(parser)}
    finally:
        if width is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = width


def test_reader_agrees_with_argparse_on_the_corpus():
    assert disagreements(cli) == []


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_reader_reads_every_benchmark_command():
    run = load_bench_run()
    argvs = {tuple(run.SETUP_ARGV)}
    for workload in run.WORKLOADS.values():
        for seed in (1, 7, 31, 2025):
            for jobs in (None, 1, 2):
                argvs.update(tuple(cmd.argv) for cmd in workload.build(seed, jobs))
    assert [(argv, p) for argv in sorted(argvs) if (p := disagreement(cli, argv, must_read=True))] == []


def test_reader_returns_what_main_dispatches():
    args = cli._read_argv(["--quiet", "markov", "gen", "--n", "3", "--bound", "5"])
    assert vars(args) == {
        "json": False,
        "csv": False,
        "quiet": True,
        "jobs": 1,
        "explain": False,
        "command": "markov",
        "subcommand": "gen",
        "n": 3,
        "bound": 5,
    }
    assert vars(cli._read_argv(["cqs", "1", "2", "3"]))["bound"] is None


@pytest.mark.parametrize(
    "line",
    [
        "-h scan 5",
        "scan 5 --help",
        "-- scan 5",
        "--jobs=2 scan 5",
        "--jo 2 scan 5",
        "--jobs 2 --jobs 3 scan 5",
        "--jobs 2 scan 5 --jobs 3",
        "--quiet scan 5 --quiet",
        "markov --quiet gen --n 3 --bound 5",
        "scan 5 --out -f",
        "density 10 --jobs 2 20",
        "scan 5 extra",
        "scan x",
    ],
)
def test_reader_leaves_other_forms_to_argparse(line):
    # Argparse reads some of these the same way on some Python versions;
    # the reader declines each on all of them.
    assert cli._read_argv(line.split()) is None


# Option values the reader reads, values it leaves to argparse or argparse
# rejects, and spellings the reader leaves to argparse.
GOOD = ["0", "1", "2", "3", "5", "7", "12", "f"]
ODD = ["-1", "+3", "1_0", "x", "", "-", "--", "-h", "--help", "--jobs=2", "--jo", "--bo", "--n=3", "---csv"]
OPTIONS = sorted({arg.name for arg in cli.GLOBAL_FLAGS} | {"--bound", "--n", "--x", "--y", "--out"})
NAMES = ["cqs", "wps", "markov", "density", "scan", "classic", "gen", "degenerations", "candidates"]
VOCABULARY = GOOD + ODD + OPTIONS + NAMES


@st.composite
def grammar_argv(draw):
    """A command line of the grammar: a command (and markov subcommand),
    its positionals in one block, its required options and some others,
    in a drawn order, some before the command; then up to three tokens of
    the vocabulary inserted, deleted or doubled."""
    value = st.integers(0, 9).flatmap(lambda k: st.sampled_from(ODD if k == 0 else GOOD))
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    path, body = [name], cli.COMMANDS[name][1]
    if isinstance(body, dict):
        sub = draw(st.sampled_from(sorted(body)))
        path, body = [name, sub], body[sub][1]
    positionals = [arg for arg in body if arg.name[0] != "-"]
    count = sum(draw(st.integers(1, 3)) if arg.nargs == "+" else 1 for arg in positionals)
    chunks = [[draw(value) for _ in range(count)]] if count else []
    for arg in body:
        if arg.name[0] == "-" and (arg.required or draw(st.integers(0, 3)) == 0):
            chunks.append([arg.name] if arg.type is None else [arg.name, draw(value)])
    chunks = draw(st.permutations(chunks))
    split = draw(st.integers(0, len(chunks))) if draw(st.booleans()) else 0
    argv = [t for c in chunks[:split] for t in c] + path + [t for c in chunks[split:] for t in c]
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "double"]))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(VOCABULARY)))
        elif i < len(argv):
            argv[i:i + 1] = [] if edit == "delete" else [argv[i], argv[i]]
    return argv


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(grammar_argv())
def test_reader_agrees_with_argparse_on_drawn_tokens(argv):
    assert disagreement(cli, argv) == ""


def test_drawn_tokens_reach_the_reader():
    # A sanity check on the strategy's reach: some drawn argv are read.
    read = 0

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(grammar_argv())
    def count(argv):
        nonlocal read
        read += cli._read_argv(argv) is not None

    count()
    assert read >= 50


def test_every_parser_keeps_its_actions():
    lines = ACTIONS.read_text(encoding="utf-8").splitlines()
    assert describe(cli.build_parser()) == [json.loads(line) for line in lines]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help texts are pinned on Python 3.11")
def test_every_help_text_is_unchanged():
    texts = help_texts(cli.build_parser())
    assert sorted(texts) == sorted(p.name for p in PARSER.glob("*.txt"))
    for name, text in texts.items():
        assert text == (PARSER / name).read_text(encoding="utf-8"), name


def test_help_exits_0_and_usage_errors_exit_2():
    assert argparse_reads(cli, ["--help"]) == 0
    assert argparse_reads(cli, ["markov", "--csv", "gen", "--n", "3", "--bound", "5"]) == 2


def _record_missing() -> None:
    PARSER.mkdir(exist_ok=True)
    parser = cli.build_parser()
    if not ACTIONS.exists():
        ACTIONS.write_text("".join(json.dumps(r) + "\n" for r in describe(parser)), encoding="utf-8")
        print(f"recorded {ACTIONS.name}")
    if sys.version_info[:2] != (3, 11):
        print("help texts are recorded on Python 3.11 only")
        return
    for name, text in help_texts(parser).items():
        if not (PARSER / name).exists():
            (PARSER / name).write_text(text, encoding="utf-8")
            print(f"recorded {name}")


if __name__ == "__main__":
    _record_missing()
