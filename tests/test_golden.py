"""Byte-for-byte output contract for the CLI.

Each case runs one command through `cli.main` in a fresh working
directory and compares its stdout, and the `--out` file when the command
writes one, with the fixtures under tests/golden/.  The cases cover every
README example at small sizes; a refactor that changes a single output
byte fails here.

To add a case, append it to CASES in tests/golden_cases.py and run

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
import re
import tempfile
from pathlib import Path

import pytest
from golden_cases import BENCH_IDS, BENCH_SCAN_OUT, BENCH_SCANS, CASES, OUT

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


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


@pytest.mark.parametrize("argv", BENCH_SCANS, ids=BENCH_IDS)
def test_scan_bytes_match_benchmark_digests(argv, tmp_path):
    want = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))[" ".join(argv)]
    (tmp_path / BENCH_SCAN_OUT).parent.mkdir(parents=True)
    stdout, out_bytes = run_case(argv, tmp_path, BENCH_SCAN_OUT)
    assert hashlib.sha256(stdout).hexdigest() == want["stdout"]
    assert (out_bytes is None) == ("out" not in want)
    if out_bytes is not None:
        assert hashlib.sha256(out_bytes).hexdigest() == want["out"]


# The two seeded germs of large_germs, keyed by label because the seed picks
# their units.  The units are checked and blanked as bench/run.py's
# `echo_canon` does, so each digest covers every choice of w1.
BENCH_GERMS = (
    ("cqs wahl 1/9000000(1,4340999)", 9_000_000, 4_340_999, (1, 7, 4_340_999)),
    ("cqs du_val 1/500000(1,499999)", 500_000, 499_999, (1, 7, 499_999)),
)
ECHOED_UNIT = re.compile(rb'"(w1|w2)": (\d+)')


def blank_units(stdout: bytes, w1: int, w2: int) -> bytes:
    """`stdout` with the four echoed units zeroed; they must read w1 and w2."""
    head = stdout[:1024]
    want = [(b"w1", str(w1).encode()), (b"w2", str(w2).encode())] * 2
    assert sorted(ECHOED_UNIT.findall(head)) == sorted(want)
    return ECHOED_UNIT.sub(lambda mt: b'"' + mt.group(1) + b'": 0', head, count=4) + stdout[1024:]


@pytest.mark.parametrize("key,m,q,units", BENCH_GERMS, ids=["wahl", "du_val"])
def test_cqs_bytes_match_benchmark_digests(key, m, q, units, tmp_path):
    want = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))[key]["stdout"]
    for w1 in units:
        w2 = w1 * q % m
        stdout, _ = run_case(("cqs", str(m), str(w1), str(w2)), tmp_path)
        assert hashlib.sha256(blank_units(stdout, w1, w2)).hexdigest() == want, w1


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
