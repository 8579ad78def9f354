"""Exact counts of the exceptional triple set S inside the box [1,N]^3.

S is the union of family A (some weight divides the sum of the other
two: the plane carries a Du Val or smooth torus-fixed point) and the
parametric families B1, B2, B3.  "Up to permutation" is realized by
counting ordered triples whose sorted form lies in a family.  Family A
is counted in O(N log^2 N) by inclusion-exclusion over the three role
choices, each term a closed-form sum.  The B families are enumerated
outright (they only hold O(N^{3/2}) triples) as sets of sorted members;
every member has three distinct entries, so it stands for exactly six
ordered triples.  The union count tests the sorted B members against
the symmetric A condition directly instead of materializing A.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

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


class BoundCheck(NamedTuple):
    name: str
    holds: bool
    lhs: str
    rhs: str


class DensityCensus(NamedTuple):
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


def _single_role_count(N: int) -> int:
    # ordered (a,b,c) with a | b+c: for each multiple s of a in [2, 2N] the
    # pairs (b,c) in [1,N]^2 with b+c = s number min(s-1, 2N+1-s)
    return sum(
        min(s - 1, 2 * N + 1 - s)
        for a in range(1, N + 1)
        for s in range(max(a, 2), 2 * N + 1, a)
    )


def _pair_role_count(N: int) -> int:
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


def _family_a_counts(N: int) -> tuple[int, int, int]:
    """(single, pair, triple): ordered counts with the divisibility
    condition imposed at one, two and all three roles.

    All three roles: sorted x <= y <= z with z | x+y forces x+y = z or
    x = y = z, and then y | x+z forces y = 2x or y = x, so the triple is a
    multiple of (1,1,1), (1,1,2) or (1,2,3), with 1, 3 and 6 orderings.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return (_single_role_count(N), _pair_role_count(N), N + 3 * (N // 2) + 6 * (N // 3))


def _roles_union(single: int, pair: int, triple: int) -> int:
    # inclusion-exclusion over the three (symmetric) role conditions
    return 3 * single - 3 * pair + triple


def count_family_A(N: int) -> int:
    """Ordered triples in [1,N]^3 where some permutation puts them in family A.

    Union over the three role choices by inclusion-exclusion; the one-role
    term is a sum over pair sums (O(N log N)), the two-role term a sum over
    gcd-reduced pairs (O(N log^2 N)), the three-role term a closed form.
    """
    return _roles_union(*_family_a_counts(N))


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
    """The family's members in [1,N]^3, each as its sorted triple.

    An instance (1 + l*e, base + k*e, e) has entries congruent to 1, base
    and 0 mod e, and 1 < base < e at every n >= 2, so its three entries
    are distinct and it stands for exactly six ordered triples.
    """
    return {tuple(sorted(t)) for t in family_b_param_instances(family, N)}


def count_family_B(family: str, N: int) -> int:
    """Ordered count of the family inside [1,N]^3, coincidences deduplicated."""
    return 6 * len(family_b_ordered(family, N))


def _single_role_residue_bound(N: int) -> int:
    # sum over a <= N of a * (ceil(N/a) + 1)^2
    return sum(a * (-(-N // a) + 1) ** 2 for a in range(1, N + 1))


def census(N: int) -> DensityCensus:
    """Counts for A, B1-B3 and their union, the exact ratio over N^3, and
    the bound checks; the union is exact for any N since only the small B
    families are materialized."""
    single, pair, triple = _family_a_counts(N)
    count_a = _roles_union(single, pair, triple)

    members = {fam: family_b_ordered(fam, N) for fam in B_FAMILIES}
    b_union = set().union(*members.values())
    count_s = count_a + 6 * sum(1 for t in b_union if not family_a_contains(t))

    count_b1 = 6 * len(members["B1"])
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
