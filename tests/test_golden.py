"""Byte-for-byte output contract for the CLI.

Each case runs one command through `cli.main` in a fresh working
directory and compares its stdout, and the `--out` file when the command
writes one, with the fixtures under tests/golden/.  The cases cover every
README example at small sizes; a refactor that changes a single output
byte fails here.

To add a case, append it to CASES and run

    PYTHONPATH=src python tests/test_golden.py

which records the fixtures of new cases only; existing fixtures are never
rewritten.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

OUT = "records.out"

# (name, argv); a case whose argv names OUT also checks that file.
CASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cqs_12_1_7", ("cqs", "12", "1", "7")),
    ("cqs_841_1_637_bound_12", ("cqs", "841", "1", "637", "--bound", "12")),
    ("cqs_9_1_2", ("cqs", "9", "1", "2")),
    ("cqs_17_3_11", ("cqs", "17", "3", "11")),
    ("cqs_smooth", ("cqs", "1", "0", "0")),
    ("wps_4_25_841", ("wps", "4", "25", "841")),
    ("wps_explain_1_5_8", ("--explain", "wps", "1", "5", "8")),
    ("wps_2_4_5", ("wps", "2", "4", "5")),
    ("markov_classic_1000", ("markov", "classic", "--bound", "1000")),
    ("markov_gen_3_100", ("markov", "gen", "--n", "3", "--bound", "100")),
    ("markov_degenerations_4_50", ("markov", "degenerations", "--n", "4", "--bound", "50")),
    ("markov_candidates_3_4_19", ("markov", "candidates", "--n", "3", "--x", "4", "--y", "19")),
    ("density_50_100_200", ("density", "50", "100", "200")),
    ("density_csv_50_100_200", ("--csv", "density", "50", "100", "200")),
    ("density_jobs2_50_100_200", ("--jobs", "2", "density", "50", "100", "200")),
    ("scan_12", ("scan", "12")),
    ("scan_12_out_jobs1", ("--jobs", "1", "scan", "12", "--out", OUT)),
    ("scan_12_out_jobs2", ("--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_csv_out_jobs1", ("--csv", "--jobs", "1", "scan", "12", "--out", OUT)),
    ("scan_12_csv_out_jobs2", ("--csv", "--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_explain_out_jobs2", ("--explain", "--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_quiet_out", ("--quiet", "scan", "12", "--out", OUT)),
)


def run_case(argv: tuple[str, ...], workdir: Path) -> tuple[bytes, bytes | None]:
    """Run one command in `workdir`; its exit status must be 0.

    Returns its stdout and the bytes of its `--out` file, or None.
    """
    from degenscope import cli

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    assert code == 0
    out_file = workdir / OUT
    return buf.getvalue().encode("utf-8"), out_file.read_bytes() if OUT in argv else None


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, tmp_path):
    stdout, out_bytes = run_case(argv, tmp_path)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if out_bytes is not None:
        assert out_bytes == (GOLDEN / f"{name}.outfile").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ([OUT] if OUT in argv else [])


def _record_missing() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        if (GOLDEN / f"{name}.stdout").exists():
            continue
        with tempfile.TemporaryDirectory() as tmp:
            stdout, out_bytes = run_case(argv, Path(tmp))
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        if out_bytes is not None:
            (GOLDEN / f"{name}.outfile").write_bytes(out_bytes)
        print(f"recorded {name}")


if __name__ == "__main__":
    _record_missing()
