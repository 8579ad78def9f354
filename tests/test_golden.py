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
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"

OUT = "records.out"

# (name, argv); a case whose argv names OUT also checks that file.
CASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cqs_12_1_7", ("cqs", "12", "1", "7")),
    ("cqs_841_1_637_bound_12", ("cqs", "841", "1", "637", "--bound", "12")),
    ("cqs_9_1_2", ("cqs", "9", "1", "2")),
    ("cqs_17_3_11", ("cqs", "17", "3", "11")),
    ("cqs_smooth", ("cqs", "1", "0", "0")),
    # Long chains: an A_1999 chain at depth 2, and one inside `points` at depth 4.
    ("cqs_2000_1_1999", ("cqs", "2000", "1", "1999")),
    ("wps_1_1000_1001", ("wps", "1", "1000", "1001")),
    ("wps_4_25_841", ("wps", "4", "25", "841")),
    ("wps_explain_1_5_8", ("--explain", "wps", "1", "5", "8")),
    ("wps_2_4_5", ("wps", "2", "4", "5")),
    ("wps_2_4_6", ("wps", "2", "4", "6")),
    ("wps_1_5_7", ("wps", "1", "5", "7")),
    ("wps_1_4_5", ("wps", "1", "4", "5")),
    ("markov_classic_1000", ("markov", "classic", "--bound", "1000")),
    ("markov_gen_3_100", ("markov", "gen", "--n", "3", "--bound", "100")),
    ("markov_degenerations_4_50", ("markov", "degenerations", "--n", "4", "--bound", "50")),
    ("markov_candidates_3_4_19", ("markov", "candidates", "--n", "3", "--x", "4", "--y", "19")),
    ("density_50_100_200", ("density", "50", "100", "200")),
    ("density_csv_50_100_200", ("--csv", "density", "50", "100", "200")),
    ("density_jobs2_50_100_200", ("--jobs", "2", "density", "50", "100", "200")),
    ("density_1000_2000", ("density", "1000", "2000")),
    ("scan_12", ("scan", "12")),
    ("scan_12_jobs2", ("--jobs", "2", "scan", "12")),
    ("scan_12_csv", ("--csv", "scan", "12")),
    ("scan_12_csv_jobs2", ("--csv", "--jobs", "2", "scan", "12")),
    ("scan_12_quiet", ("--quiet", "scan", "12")),
    ("scan_12_out_jobs1", ("--jobs", "1", "scan", "12", "--out", OUT)),
    ("scan_12_out_jobs2", ("--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_csv_out_jobs1", ("--csv", "--jobs", "1", "scan", "12", "--out", OUT)),
    ("scan_12_csv_out_jobs2", ("--csv", "--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_explain_out_jobs2", ("--explain", "--jobs", "2", "scan", "12", "--out", OUT)),
    ("scan_12_quiet_out", ("--quiet", "scan", "12", "--out", OUT)),
)


def run_case(argv: tuple[str, ...], workdir: Path, out: str = OUT) -> tuple[bytes, bytes | None]:
    """Run one command in `workdir`; its exit status must be 0.

    Returns its stdout and the bytes of its `--out` file `out`, or None
    when the argv does not name it.
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
    out_file = workdir / out
    return buf.getvalue().encode("utf-8"), out_file.read_bytes() if out in argv else None


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, tmp_path):
    stdout, out_bytes = run_case(argv, tmp_path)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if out_bytes is not None:
        assert out_bytes == (GOLDEN / f"{name}.outfile").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ([OUT] if OUT in argv else [])


# The benchmark's scan_box command and its CSV twin, in the argv spelling
# bench/digests.json keys them by; the digests are read here, never written.
BENCH_SCAN_OUT = ".bench_out/tmp/scan.out"
BENCH_SCANS = (
    ("--jobs", "1", "scan", "60", "--out", BENCH_SCAN_OUT),
    ("--jobs", "1", "--csv", "scan", "60", "--out", BENCH_SCAN_OUT),
)


@pytest.mark.parametrize("argv", BENCH_SCANS, ids=["scan_box", "scan_box_csv"])
def test_scan_bytes_match_benchmark_digests(argv, tmp_path):
    want = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))[" ".join(argv)]
    (tmp_path / BENCH_SCAN_OUT).parent.mkdir(parents=True)
    stdout, out_bytes = run_case(argv, tmp_path, BENCH_SCAN_OUT)
    assert hashlib.sha256(stdout).hexdigest() == want["stdout"]
    assert hashlib.sha256(out_bytes).hexdigest() == want["out"]


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
