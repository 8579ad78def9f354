"""Independent reference implementations the tests check the library against."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd

from degenscope import cli, wps
from degenscope.wps import WpsTriple


def mld_scan(m: int, w1: int, w2: int) -> Fraction:
    """Theta(m) reference: min over 0 < t < m of {t*w1/m} + {t*w2/m}.

    The library reads the mld off the resolution chain instead; this scan
    is the independent oracle for that walk.
    """
    # additive residue stepping keeps the inner loop multiplication-free.
    r1 = r2 = 0
    best = 2 * m
    for _ in range(m - 1):
        r1 += w1
        if r1 >= m:
            r1 -= m
        r2 += w2
        if r2 >= m:
            r2 -= m
        s = r1 + r2
        if s < best:
            best = s
            if best == 2:
                break
    return Fraction(best, m)


def scan_planes(N: int):
    """The well-formed sorted triples a <= b <= c <= N, in scan order."""
    for a in range(1, N + 1):
        for b in range(a, N + 1):
            for c in range(b, N + 1):
                if gcd(a, b) == 1 and gcd(a, c) == 1 and gcd(b, c) == 1:
                    yield WpsTriple(a, b, c)


def scan_record(p: WpsTriple, explain: bool) -> dict:
    """The scan record of the well-formed plane `p` as a dict, the way the
    scan built it before it wrote each line from its verdict.  Its mld
    fields are the lowest point's germ record's; a `mld_at_least_one_sixth`
    reason carries the same fields."""
    verdict = wps.degeneration_verdict(p)
    mld = cli._mld_fields(wps.lowest_germ(verdict.points))
    return {
        "triple": list(p),
        "verdict": verdict.outcome.value,
        "reasons": [cli.reason_payload(kind, verdict, mld, explain) for kind in verdict.reasons],
        **mld,
        **cli.frac_fields("k2", wps.k2(p)),
    }


def scan_envelope(record: dict) -> dict:
    """The envelope dict a scan record is printed in."""
    return cli.make_envelope("scan-record", {"triple": record["triple"]}, record, [])


def scan_json_line(p: WpsTriple, explain: bool) -> str:
    """The compact JSON line of the scan record of `p`."""
    envelope = scan_envelope(scan_record(p, explain))
    return json.dumps(envelope, ensure_ascii=False, separators=(",", ":"))


def scan_csv_line(p: WpsTriple) -> str:
    """The CSV row of the scan record of `p`, without its line terminator."""
    record = scan_record(p, False)
    kinds = ";".join(reason["kind"] for reason in record["reasons"])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([*p, record["verdict"], kinds, record["mld"], record["k2"]])
    return buf.getvalue()
