"""Exact counts of the exceptional triple set S inside the box [1,N]^3.

S is the union of family A (some weight divides the sum of the other
two: the plane carries a Du Val or smooth torus-fixed point) and the
parametric families B1, B2, B3.  "Up to permutation" is realized by
counting ordered triples whose sorted form lies in a family.  Family A
is counted by inclusion-exclusion over the three role choices: the
one-role term as arithmetic series over O(sqrt N) blocks, the two-role
term once per distinct N // g in O(N log^2 N), the three-role term in
closed form.  The B families are enumerated outright (they only hold
O(N^{3/2}) triples) as sets of sorted members, one family at a time, so
at most one family's members are held at once; every member has three
distinct entries, so it stands for exactly six ordered triples.  The B
members outside A are found by testing them against the symmetric A
condition directly instead of materializing A, and no member outside A
lies in two families, so the families' counts add up without a union.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .wps import B_FAMILIES, family_b_row

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


BoundCheck = namedtuple("BoundCheck", "name holds lhs rhs")
BoundCheck.__doc__ = """One bound checked at a census size: its name (str), whether it holds
(bool), and its two sides as texts (lhs, rhs: str)."""

DensityCensus = namedtuple(
    "DensityCensus",
    "N count_A count_B1 count_B2 count_B3 count_S ratio bound_checks"
    " count_A_single_role count_B1_unordered count_B2_unordered count_B3_unordered",
)
DensityCensus.__doc__ = """The exceptional-set census at one N (int): the int counts of the
ordered triples in family A, in each B family and in their union S;
ratio, the Fraction count_S / N^3; bound_checks, a tuple of BoundCheck;
count_A_single_role, the int count of ordered triples with a | b + c;
and count_B*_unordered, the int count of each B family's sorted members."""


def family_a_contains(triple: tuple[int, int, int]) -> bool:
    """Whether some coordinate divides the sum of the other two."""
    a, b, c = triple
    return (b + c) % a == 0 or (a + c) % b == 0 or (a + b) % c == 0


def _single_role_count(N: int) -> int:
    # ordered (a,b,c) with a | b+c: for each multiple s = a*j <= 2N the pairs
    # (b,c) in [1,N]^2 with b+c = s number s-1 up to s = N+1 (j <= P) and
    # 2N+1-s above it (P < j <= Q), with P = (N+1)//a and Q = 2N//a; j = 1
    # at a = 1 adds s-1 = 0.  The two arithmetic series in j give
    # a*(P(P+1) - Q(Q+1)/2) + (Q-P)(2N+1) - P, and the a sharing (P, Q)
    # form one block, so there are O(sqrt N) blocks.
    total = 0
    a = 1
    while a <= N:
        P, Q = (N + 1) // a, 2 * N // a
        hi = min((N + 1) // P, 2 * N // Q)
        width = hi - a + 1
        total += (a + hi) * width // 2 * (P * (P + 1) - Q * (Q + 1) // 2)
        total += width * ((Q - P) * (2 * N + 1) - P)
        a = hi + 1
    return total


def _divisor_sum(n: int) -> int:
    # sum of n // y over 1 <= y <= n, by the hyperbola method
    r = isqrt(n)
    return 2 * sum(n // y for y in range(1, r + 1)) - r * r


def _pair_role_count(N: int) -> int:
    # ordered (a,b,c) with a | b+c and b | a+c.  With g = gcd(a,b),
    # a = g*x and b = g*y (x, y <= M = N // g), these hold exactly when
    # c = g*(x*y*t - x - y) for some t >= 1, which gives
    # floor((M+x+y)/xy) - floor((x+y)/xy) values of c <= N, a count that is
    # 0 once (x-1)(y-1) > M+1.  The g-term depends on M alone, so each
    # distinct M is summed once and weighted by how many g give it.
    total = 0
    g = 1
    while g <= N:
        M = N // g
        hi = N // M
        total += (hi - g + 1) * _pair_role_term(M)
        g = hi + 1
    return total


def _pair_role_term(M: int) -> int:
    # The sum over coprime x, y <= M.  Row x = 1 adds (M+1)//y at y >= 2
    # and M at y = 1, so D(M+1) - 2 with D the divisor sum; column y = 1
    # at x >= 2 adds D(M+1) - 1 - (M+1).  At x, y >= 2, x != y since
    # gcd(x,x) = x, the term is symmetric and xy > x+y, so it is
    # floor((M+x+y)/xy) over x < y, doubled.
    total = 2 * _divisor_sum(M + 1) - M - 4
    for x in range(2, M + 1):
        top = min(M, (M + 1) // (x - 1) + 1)
        if top <= x:
            break
        total += 2 * sum((M + x + y) // (x * y) for y in range(x + 1, top + 1) if gcd(x, y) == 1)
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
    term is a sum of arithmetic series over O(sqrt N) blocks of equal
    quotients, the two-role term a sum over gcd-reduced pairs (x, y), once
    per distinct M = N // g: the x = 1 row and y = 1 column are divisor
    sums in O(sqrt M) and the rest is summed over x < y and doubled, so
    O(N log^2 N) in all.  The three-role term is a closed form.
    """
    return _roles_union(*_family_a_counts(N))


def family_b_param_instances(family: str, N: int) -> list[tuple[int, int, int]]:
    """Parameter instances (1 + l*e, base + k*e, e) of the family with all
    entries <= N, in (n, l, k) order: each n's row gives e, base and the
    l/k bound, and l and k step over their admissible ranges."""
    out = []
    n = 2
    while True:
        e, base, bound = family_b_row(family, n)
        if e > N:
            break
        bs = range(base, min(base + bound * e, N + 1), e)
        for a in range(1, min(1 + bound * e, N + 1), e):
            out.extend([(a, b, e) for b in bs])
        n += 1
    return out


def family_b_ordered(family: str, N: int) -> set[tuple[int, int, int]]:
    """The family's members in [1,N]^3, each as its sorted triple.

    An instance (a, b, e) = (1 + l*e, base + k*e, e) has entries congruent
    to 1, base and 0 mod e, and 1 < base < e at every n >= 2, so its three
    entries are distinct and it stands for exactly six ordered triples.
    The same congruences sort it: b < e exactly when k = 0, and a = 1
    exactly when l = 0, else a > e.  No two instances share a sorted
    triple: given e, the residues fix l and k.  In B1, e is the one even
    entry.  B2 and B3 are both (1 + l*e, (e+3)/2 + k*e, e) with
    gcd(e, 6) = 1; were another entry e' such an e, e = 1 or 2e = 3 mod e',
    and the cases give e even, 3 | e, or e' dividing 8 or 9.
    """
    return {
        ((1, b, e) if b < e else (1, e, b)) if a == 1
        else (b, e, a) if b < e
        else (e, a, b) if a < b else (e, b, a)
        for a, b, e in family_b_param_instances(family, N)
    }


def count_family_B(family: str, N: int) -> int:
    """Ordered count of the family inside [1,N]^3, coincidences deduplicated."""
    return 6 * len(family_b_ordered(family, N))


def _single_role_residue_bound(N: int) -> int:
    # sum over a <= N of a * (ceil(N/a) + 1)^2
    return sum(a * (-(-N // a) + 1) ** 2 for a in range(1, N + 1))


def census(N: int) -> DensityCensus:
    """Counts for A, B1-B3 and their union, the exact ratio over N^3, and
    the bound checks.

    Family A costs O(N log^2 N) time and O(1) memory (`count_family_A`).
    The B families are enumerated one at a time: each family's sorted
    members are counted, those outside A are counted, and the set is
    dropped before the next family, so the peak holds one family's
    instances, O(N^{3/2}).  The union needs no set of its own: only B1 and
    B2 share members, (1,7,12) and (1,8,13), both in A, so the members
    outside A of the three families are disjoint.  B1's e is its one even
    entry and a B2/B3 e is odd, so each e is an entry of the other, and
    within the bounds only these fit.
    """
    single, pair, triple = _family_a_counts(N)
    count_a = _roles_union(single, pair, triple)

    unordered = []
    outside_a = 0
    for fam in B_FAMILIES:
        members = family_b_ordered(fam, N)
        unordered.append(len(members))
        outside_a += sum(1 for t in members if not family_a_contains(t))
        del members
    count_s = count_a + 6 * outside_a
    b1, b2, b3 = unordered

    count_b1 = 6 * b1
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
        count_B2=6 * b2,
        count_B3=6 * b3,
        count_S=count_s,
        ratio=Fraction(count_s, N**3),
        bound_checks=checks,
        count_A_single_role=single,
        count_B1_unordered=b1,
        count_B2_unordered=b2,
        count_B3_unordered=b3,
    )
