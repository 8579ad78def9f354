"""Independent reference implementations the tests check the library
against, and `scan_blocks` / `scan_lines`, the scan's output as the tests
read it, its block contract checked."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd, isqrt

from degenscope import cli, cqs, density, wps
from degenscope.cqs import BasketTag, NormalizedCqs
from degenscope.density import BoundCheck, DensityCensus
from degenscope.wps import B_FAMILIES, GermRecord, WpsTriple


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


def scan_blocks(N: int, **kwargs) -> list[str]:
    """The strings `cli.run_scan(N, write, **kwargs)` hands `write`, one per
    call, after checking its block contract: the CSV header line (CSV
    only), then one block per task a = 1..N, each empty or ending in a
    newline, and a returned record count equal to the blocks' lines."""
    blocks: list[str] = []
    count = cli.run_scan(N, blocks.append, **kwargs)
    header = 1 if kwargs.get("csv_format") else 0
    assert len(blocks) == header + N
    assert all(block == "" or block.endswith("\n") for block in blocks)
    assert count == sum(block.count("\n") for block in blocks[header:])
    return blocks


def scan_lines(N: int, **kwargs) -> list[str]:
    """The lines of `scan_blocks(N, **kwargs)`, without their terminators."""
    return [line for block in scan_blocks(N, **kwargs) for line in block.split("\n")[:-1]]


def single_role_count(N: int) -> int:
    """Step-by-step reference for the one-role term of family A, one pair
    sum s at a time (O(N log N)); the library sums arithmetic series."""
    # ordered (a,b,c) with a | b+c: for each multiple s of a in [2, 2N] the
    # pairs (b,c) in [1,N]^2 with b+c = s number min(s-1, 2N+1-s)
    return sum(
        min(s - 1, 2 * N + 1 - s)
        for a in range(1, N + 1)
        for s in range(max(a, 2), 2 * N + 1, a)
    )


def pair_role_count(N: int) -> int:
    """Reference for the two-role term of family A: every g, x and y in
    turn; the library sums each distinct N // g once."""
    # ordered (a,b,c) with a | b+c and b | a+c.  With g = gcd(a,b),
    # a = g*x and b = g*y, these hold exactly when c = g*(x*y*t - x - y)
    # for some t >= 1, which gives floor((M+x+y)/xy) - floor((x+y)/xy)
    # values of c <= N, where M = N // g.  That count is 0 once
    # (x-1)(y-1) > M+1, so for x >= 2 the loop over y stops there.
    total = 0
    for g in range(1, N + 1):
        M = N // g
        for x in range(1, M + 1):
            for y in range(1, M + 1):
                if (x - 1) * (y - 1) > M + 1:
                    break
                if gcd(x, y) == 1:
                    xy = x * y
                    total += (M + x + y) // xy - (x + y) // xy
    return total


def union_census(N: int) -> DensityCensus:
    """Reference census: family A from the two step-by-step sums above,
    each B family as the set of its `sorted` instances, and count_S over
    the union of the three sets, so it rests on no disjointness argument
    (the library adds the families' counts instead)."""
    single, pair = single_role_count(N), pair_role_count(N)
    count_a = 3 * single - 3 * pair + N + 3 * (N // 2) + 6 * (N // 3)

    members = {
        fam: {tuple(sorted(t)) for t in density.family_b_param_instances(fam, N)} for fam in B_FAMILIES
    }
    b_union = set().union(*members.values())
    count_s = count_a + 6 * sum(1 for t in b_union if not density.family_a_contains(t))

    count_b1 = 6 * len(members["B1"])
    residue_rhs = sum(a * (-(-N // a) + 1) ** 2 for a in range(1, N + 1))
    checks = (
        BoundCheck(
            name="A_single_role_residue_sum",
            holds=single <= residue_rhs,
            lhs=str(single),
            rhs=str(residue_rhs),
        ),
        BoundCheck(
            name="B1_ordered_below_6N^(3/2)",
            holds=count_b1 * count_b1 < 36 * N**3,
            lhs=str(count_b1),
            rhs=f"6*{N}^(3/2) ~ {6 * isqrt(N**3)}",
        ),
    )
    return DensityCensus(
        N=N,
        count_A=count_a,
        count_B1=count_b1,
        count_B2=6 * len(members["B2"]),
        count_B3=6 * len(members["B3"]),
        count_S=count_s,
        ratio=Fraction(count_s, N**3),
        bound_checks=checks,
        count_A_single_role=single,
        count_B1_unordered=len(members["B1"]),
        count_B2_unordered=len(members["B2"]),
        count_B3_unordered=len(members["B3"]),
    )


# The library's earlier kernel bodies, verbatim but for the module prefix
# on the names they read: a record found by a loop over any number of
# points, a threshold decided through the `mld_normalized` wrapper, and
# basket patterns tried all nine at both chain ends.


def lowest_germ(points: tuple[GermRecord, ...]) -> GermRecord:
    """The record of the fixed point of least mld, the first one on a tie.

    Each mld is u/m with u = `mld_u`, so the minimum is found by
    cross-multiplying integers, not by comparing Fractions."""
    best = None
    for rec in points:
        m = rec.normalized.m
        if best is None or rec.mld_u * best_m < best.mld_u * m:
            best, best_m = rec, m
    if best is None:
        raise ValueError("no fixed points to take the least mld of")
    return best


def mld_less_than(s: NormalizedCqs, threshold: Fraction) -> bool:
    """Exact decision mld(s) < threshold, by cross-multiplying the
    (positive) denominators rather than through `Fraction.__lt__`."""
    n, d = cqs.mld_normalized(s).as_integer_ratio()
    tn, td = threshold.as_integer_ratio()
    return n * td < tn * d


# Each pattern with its prefix read backwards, for a match at the far end
# of the chain, and the number of 2's in the prefix.
_BASKET_ENDS = tuple(
    (family, pattern, prefix, prefix[::-1], prefix.count(2))
    for family, pattern, prefix in cqs._BASKET_PREFIXES
)


def basket_membership(chain: tuple[int, ...]) -> frozenset[BasketTag]:
    """All basket patterns matched by a germ's Hirzebruch-Jung chain
    (`hj_expand(m, q)`), up to reversal.

    The chain is never copied: a pattern matches when its prefix sits at
    either end and the other len(chain) - len(prefix) entries are all 2's,
    which one `chain.count(2)`, taken once some prefix fits, decides.
    """
    if not chain:
        raise ValueError("basket membership needs a singular germ (non-empty chain)")
    n = len(chain)
    twos = None
    tags = set()
    for family, pattern, prefix, backwards, prefix_twos in _BASKET_ENDS:
        p = len(prefix)
        if n < p or (chain[:p] != prefix and chain[n - p :] != backwards):
            continue
        if twos is None:
            twos = chain.count(2)
        if twos - prefix_twos == n - p:
            tags.add(BasketTag(family, pattern, n - p))
    if n == 3 and chain[0] == 2 and chain[2] == 2:
        tags.add(BasketTag("D", "[2,n,2]", chain[1]))
    return frozenset(tags)
