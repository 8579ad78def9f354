"""Each scan line is written from its plane's verdict with one format string.

The oracle is the dict each record was built as before (`tests/oracles.py`:
`scan_record` inside its `scan-record` envelope), encoded by `json.dumps`
for a JSON line and by a fresh `csv.writer` for a CSV row.  Every plane of
`scan 60` is checked, and so is a seeded sample of planes with weights up
to 10^9, which reaches family B and the longest decimals.
"""

from __future__ import annotations

import random
from math import gcd

import pytest
from oracles import scan_csv_line, scan_json_line, scan_planes, scan_record

from degenscope import cli, wps
from degenscope.wps import WpsTriple

BOX = 60
SAMPLE_SEED = 20_211
SAMPLE_SIZE = 5_000
MAX_WEIGHT = 10**9


def first_difference(lines: list[str], planes: list[WpsTriple], oracle) -> tuple | None:
    """The first (plane, line, oracle line) that differ, or None."""
    assert len(lines) == len(planes)
    return next(((p, got, want) for p, got in zip(planes, lines) if got != (want := oracle(p))), None)


@pytest.fixture(scope="module")
def box_planes() -> list[WpsTriple]:
    return list(scan_planes(BOX))


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_box_json_lines_equal_the_oracle(explain, box_planes):
    lines: list[str] = []
    assert cli.run_scan(BOX, lines.append, explain=explain) == len(box_planes)
    assert first_difference(lines, box_planes, lambda p: scan_json_line(p, explain)) is None


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_box_csv_rows_equal_the_oracle(explain, box_planes):
    lines: list[str] = []
    assert cli.run_scan(BOX, lines.append, explain=explain, csv_format=True) == len(box_planes)
    assert lines[0] == ",".join(cli.RECORD_CSV_HEADER)
    assert first_difference(lines[1:], box_planes, scan_csv_line) is None


def _log_uniform(rng: random.Random, top: int) -> int:
    return rng.randint(1, min(top, 10 ** rng.randint(0, 9)))


def sample_planes(seed: int, size: int) -> list[WpsTriple]:
    """`size` well-formed sorted planes with weights up to 10^9, in turn:
    three log-uniform weights; a family A member d | b + c; and a family B
    instance.  A new germ's chain is expanded whole once, so d stays below
    10^5 and n below 2,000, which keeps every chain under 4*10^6 entries."""
    rng = random.Random(seed)
    planes: list[WpsTriple] = []
    while len(planes) < size:
        kind = len(planes) % 3
        if kind == 0:
            weights = tuple(_log_uniform(rng, MAX_WEIGHT) for _ in range(3))
        elif kind == 1:
            d, b = _log_uniform(rng, 10**5), _log_uniform(rng, MAX_WEIGHT)
            weights = (d, b, d * rng.randint(b // d + 1, (MAX_WEIGHT + b) // d) - b)
        else:
            family = rng.choice(wps.B_FAMILIES)
            n = rng.randint(2, 2_000)
            bound = wps.family_b_row(family, n)[2]
            weights = wps.family_b_instance(family, n, rng.randrange(bound), rng.randrange(bound))
        a, b, c = sorted(weights)
        if c <= MAX_WEIGHT and gcd(a, b) == gcd(a, c) == gcd(b, c) == 1:
            planes.append(WpsTriple(a, b, c))
    return planes


@pytest.fixture(scope="module")
def sample() -> list[WpsTriple]:
    return sample_planes(SAMPLE_SEED, SAMPLE_SIZE)


def test_sample_reaches_every_reason_and_outcome(sample):
    kinds, outcomes = set(), set()
    for p in sample:
        record = scan_record(p, False)
        kinds.update(reason["kind"] for reason in record["reasons"])
        outcomes.add(record["verdict"])
    assert kinds == {"in_family_a", "in_family_b", "mld_at_least_one_sixth"}
    assert outcomes == {o.value for o in wps.Outcome}
    assert max(max(p) for p in sample) > MAX_WEIGHT // 10


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_sample_lines_equal_the_oracle(explain, sample):
    json_lines = [cli._scan_line(p, explain, False) for p in sample]
    assert first_difference(json_lines, sample, lambda p: scan_json_line(p, explain)) is None
    csv_lines = [cli._scan_line(p, explain, True) for p in sample]
    assert first_difference(csv_lines, sample, scan_csv_line) is None
