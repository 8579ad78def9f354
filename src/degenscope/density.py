"""Exact counts of the exceptional triple set S inside the box [1,N]^3.

S is the union of family A (some weight divides the sum of the other
two: the plane carries a Du Val or smooth torus-fixed point) and the
parametric families B1, B2, B3.  "Up to permutation" is realized by
counting ordered triples whose sorted form lies in a family.  Family A
is counted in O(N^2) through residue-class closed forms plus
inclusion-exclusion over the three role choices; the B families are
enumerated outright (they only hold O(N^{3/2}) triples), and the union
count tests their members against the A condition directly instead of
materializing A.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt
from multiprocessing import get_context

from .wps import B_FAMILIES, family_b_instance, family_b_lk_bound

__all__ = [
    "BoundCheck",
    "DensityCensus",
    "family_a_contains",
    "count_family_A",
    "count_family_B",
    "family_b_param_instances",
    "family_b_ordered",
    "census",
]


@dataclass(frozen=True)
class BoundCheck:
    name: str
    holds: bool
    lhs: str
    rhs: str


@dataclass(frozen=True)
class DensityCensus:
    N: int
    count_A: int
    count_B1: int
    count_B2: int
    count_B3: int
    count_S: int
    ratio: Fraction  # count_S / N^3
    bound_checks: tuple[BoundCheck, ...]
    count_A_single_role: int
    count_B1_unordered: int
    count_B2_unordered: int
    count_B3_unordered: int


def family_a_contains(triple: tuple[int, int, int]) -> bool:
    """Whether some coordinate divides the sum of the other two."""
    a, b, c = triple
    return (b + c) % a == 0 or (a + c) % b == 0 or (a + b) % c == 0


def _residue_count(N: int, a: int, r: int) -> int:
    # x in [1,N] with x == r (mod a), 0 <= r < a
    if r == 0:
        return N // a
    if r > N:
        return 0
    return (N - r) // a + 1


def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    # solution class of x == r1 (mod m1), x == r2 (mod m2); the inputs here
    # are always compatible: g = gcd(m1,m2) divides r2 - r1.
    g = gcd(m1, m2)
    l2 = m2 // g
    lcm = (m1 // g) * m2
    t = ((r2 - r1) // g * pow((m1 // g) % l2, -1, l2)) % l2 if l2 > 1 else 0
    return ((r1 + m1 * t) % lcm, lcm)


def _divisor_table(limit: int) -> list[list[int]]:
    divs: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            divs[multiple].append(d)
    return divs


def _family_a_slice(args: tuple[int, int, int]) -> tuple[int, int, int]:
    """Partial inclusion-exclusion sums over a in [lo, hi).

    Returns (single, pair, triple): ordered counts with the divisibility
    condition imposed at the first role, the first two roles, and all
    three roles respectively.
    """
    N, lo, hi = args
    divs = _divisor_table(2 * N)
    single = pair = triple = 0
    for a in range(lo, hi):
        counts = [_residue_count(N, a, r) for r in range(a)]
        single += sum(counts[r] * counts[(a - r) % a] for r in range(a))
        for b in range(1, N + 1):
            c0, lcm = _crt((-b) % a, a, (-a) % b, b)
            pair += _residue_count(N, lcm, c0)
            for d in divs[a + b]:
                if d <= N and d % lcm == c0:
                    triple += 1
    return (single, pair, triple)


def _family_a_counts(N: int, jobs: int = 1) -> tuple[int, int, int]:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    jobs = min(jobs, N, os.cpu_count() or 1)
    if jobs <= 1 or N < 16:
        return _family_a_slice((N, 1, N + 1))
    cuts = [1 + (N * i) // jobs for i in range(jobs + 1)]
    cuts[-1] = N + 1
    args = [(N, cuts[i], cuts[i + 1]) for i in range(jobs)]
    with get_context("fork").Pool(processes=jobs) as pool:
        parts = pool.map(_family_a_slice, args)
    return tuple(sum(p[i] for p in parts) for i in range(3))  # type: ignore[return-value]


def count_family_A(N: int, jobs: int = 1) -> int:
    """Ordered triples in [1,N]^3 where some permutation puts them in family A.

    Union over the three role choices by inclusion-exclusion; each term is
    evaluated with residue-class closed forms (O(N^2) overall).
    """
    single, pair, triple = _family_a_counts(N, jobs)
    return 3 * single - 3 * pair + triple


def family_b_param_instances(family: str, N: int) -> list[tuple[int, int, int]]:
    """Parameter instances (a,b,c) of the family with all entries <= N,
    iterating n, l, k over their admissible ranges."""
    out = []
    n = 2
    while True:
        base = family_b_instance(family, n, 0, 0)
        e = base[2]
        if e > N:
            break
        bound = family_b_lk_bound(family, n)
        l = 0
        while l < bound and 1 + l * e <= N:
            k = 0
            while k < bound and base[1] + k * e <= N:
                out.append(family_b_instance(family, n, l, k))
                k += 1
            l += 1
        n += 1
    return out


def family_b_ordered(family: str, N: int) -> set[tuple[int, int, int]]:
    """All ordered triples in [1,N]^3 whose sorted form lies in the family."""
    members: set[tuple[int, int, int]] = set()
    for inst in family_b_param_instances(family, N):
        for perm in permutations(inst):
            members.add(perm)
    return members


def count_family_B(family: str, N: int) -> int:
    """Ordered count of the family inside [1,N]^3, coincidences deduplicated."""
    return len(family_b_ordered(family, N))


def _single_role_residue_bound(N: int) -> int:
    # sum over a <= N of a * (ceil(N/a) + 1)^2
    return sum(a * (-(-N // a) + 1) ** 2 for a in range(1, N + 1))


def census(N: int, jobs: int = 1) -> DensityCensus:
    """Counts for A, B1-B3 and their union, the exact ratio over N^3, and
    the bound checks; the union is exact for any N since only the small B
    families are materialized."""
    single, pair, triple = _family_a_counts(N, jobs)
    count_a = 3 * single - 3 * pair + triple

    ordered = {fam: family_b_ordered(fam, N) for fam in B_FAMILIES}
    b_union: set[tuple[int, int, int]] = set()
    for members in ordered.values():
        b_union |= members
    outside_a = sum(1 for t in b_union if not family_a_contains(t))
    count_s = count_a + outside_a

    count_b1 = len(ordered["B1"])
    residue_rhs = _single_role_residue_bound(N)
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
    unordered = {
        fam: len({tuple(sorted(t)) for t in family_b_param_instances(fam, N)})
        for fam in B_FAMILIES
    }
    return DensityCensus(
        N=N,
        count_A=count_a,
        count_B1=count_b1,
        count_B2=len(ordered["B2"]),
        count_B3=len(ordered["B3"]),
        count_S=count_s,
        ratio=Fraction(count_s, N**3),
        bound_checks=checks,
        count_A_single_role=single,
        count_B1_unordered=unordered["B1"],
        count_B2_unordered=unordered["B2"],
        count_B3_unordered=unordered["B3"],
    )
