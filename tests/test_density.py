import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from degenscope import density, wps
from degenscope.density import (
    census,
    count_family_A,
    count_family_B,
    family_a_contains,
    family_b_param_instances,
)
from degenscope.wps import B_FAMILIES, WpsTriple
from oracles import pair_role_count, single_role_count, union_census


def _ordered_b_members(fam, N):
    """Reference: every ordered triple in [1,N]^3 whose sorted form lies in
    the family, built from every permutation of every parameter instance."""
    members = set()
    for inst in family_b_param_instances(fam, N):
        members.update(permutations(inst))
    return members


def brute_family_a(N):
    return sum(
        1
        for a in range(1, N + 1)
        for b in range(1, N + 1)
        for c in range(1, N + 1)
        if family_a_contains((a, b, c))
    )


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


def _family_a_slice(args: tuple[int, int]) -> tuple[int, int]:
    """(single, pair) for one value a of the first role: ordered counts
    with the divisibility condition imposed at the first role and at the
    first two roles."""
    N, a = args
    counts = [_residue_count(N, a, r) for r in range(a)]
    single = sum(counts[r] * counts[(a - r) % a] for r in range(a))
    pair = 0
    for b in range(1, N + 1):
        c0, lcm = _crt((-b) % a, a, (-a) % b, b)
        pair += _residue_count(N, lcm, c0)
    return (single, pair)


def residue_family_a_counts(N):
    """(single, pair) from the O(N^2) residue-class counter, one slice per a."""
    slices = [_family_a_slice((N, a)) for a in range(1, N + 1)]
    return (sum(s for s, _ in slices), sum(p for _, p in slices))


class TestFamilyA:
    @pytest.mark.parametrize("N,expected", [(1, 1), (2, 8)])
    def test_pinned_small(self, N, expected):
        assert count_family_A(N) == expected

    def test_matches_cubic_brute_force(self):
        for N in range(1, 26):
            assert count_family_A(N) == brute_family_a(N)

    def test_pinned_at_200(self):
        # frozen from the O(N^3) oracle run
        assert count_family_A(200) == 673190

    @pytest.mark.parametrize("N", [*range(1, 61), 137, 500, 1000])
    def test_single_and_pair_terms_match_residue_counter(self, N):
        assert density._family_a_counts(N)[:2] == residue_family_a_counts(N)

    def test_closed_forms_match_stepwise_sums_to_300(self):
        for N in range(1, 301):
            assert density._single_role_count(N) == single_role_count(N), N
            assert density._pair_role_count(N) == pair_role_count(N), N

    @pytest.mark.parametrize("N", [2000, 10**4])
    def test_closed_forms_match_stepwise_sums(self, N):
        assert density._single_role_count(N) == single_role_count(N)
        assert density._pair_role_count(N) == pair_role_count(N)

    def test_triple_role_closed_form_matches_cubic_count(self):
        # direct count of ordered triples meeting all three divisibilities,
        # tallied by largest entry so one pass over [1,40]^3 serves every N
        by_max = [0] * 41
        for a in range(1, 41):
            for b in range(1, 41):
                for c in range(1, 41):
                    if (b + c) % a == 0 and (a + c) % b == 0 and (a + b) % c == 0:
                        by_max[max(a, b, c)] += 1
        for N in range(1, 41):
            assert density._family_a_counts(N)[2] == sum(by_max[: N + 1])


class TestFamilyB:
    def test_pinned_counts(self):
        assert count_family_B("B1", 10) == 18
        assert count_family_B("B1", 3) == 0
        assert count_family_B("B2", 14) == 36

    def test_b2_14_against_direct_iteration(self):
        # independent nested-loop enumeration of the B2 parameterization
        members = set()
        n = 2
        while 6 * n - 5 <= 14:
            e = 6 * n - 5
            bound = -(-4 * e // 9)
            for l in range(bound):
                for k in range(bound):
                    t = (1 + l * e, 3 * n - 1 + k * e, e)
                    if max(t) <= 14:
                        members.update(permutations(t))
            n += 1
        assert len(members) == count_family_B("B2", 14)

    @pytest.mark.parametrize("N", [3, 14, 60, 500, 2000])
    @pytest.mark.parametrize("family", B_FAMILIES)
    def test_instances_against_direct_iteration(self, family, N):
        # the (1 + l*e, base + k*e, e) of every n, l, k in that order, from
        # the family's _B_TABLE row: e = s*n - o, base = h*n - t and l, k
        # below ceil(num*e/den); the entries grow with l and k
        s, o, h, t, num, den = wps._B_TABLE[family]
        expected = []
        n = 2
        while s * n - o <= N:
            e, base = s * n - o, h * n - t
            bound = -(-num * e // den)
            for l in range(bound):
                if 1 + l * e > N:
                    break
                for k in range(bound):
                    if base + k * e > N:
                        break
                    expected.append((1 + l * e, base + k * e, e))
            n += 1
        assert family_b_param_instances(family, N) == expected

    def test_instances_respect_box_and_family(self):
        for fam in ("B1", "B2", "B3"):
            for inst in family_b_param_instances(fam, 60):
                assert max(inst) <= 60
                w = wps.family_B_member(WpsTriple(*inst))
                assert w is not None

    def test_ordered_set_closed_under_permutation(self):
        members = _ordered_b_members("B1", 40)
        for t in members:
            assert set(permutations(t)) <= members

    def test_instances_have_three_distinct_entries(self):
        # the census counts six ordered triples per sorted member
        for fam in B_FAMILIES:
            instances = family_b_param_instances(fam, 2000)
            assert instances
            assert all(len(set(t)) == 3 for t in instances)

    def test_rows_have_the_shape_the_coincidence_argument_uses(self):
        # B1: e = 0 mod 4 and an odd base; B2 and B3: base = (e+3)/2, e prime to 6.
        for n in range(2, 500):
            e, base, _ = wps.family_b_row("B1", n)
            assert e % 4 == 0 and base % 2 == 1
            for fam in ("B2", "B3"):
                e, base, _ = wps.family_b_row(fam, n)
                assert 2 * base == e + 3 and gcd(e, 6) == 1

    def test_coincidences_up_to_10_4(self):
        # The facts of the `family_b_ordered` and `census` docstrings: no
        # family has two instances with one sorted triple, and the only
        # cross-family members are two of B1 and B2, both in family A.
        instances = {fam: family_b_param_instances(fam, 10**4) for fam in B_FAMILIES}
        assert sum(map(len, instances.values())) == 470_633
        members = {fam: {tuple(sorted(t)) for t in found} for fam, found in instances.items()}
        assert [len(members[fam]) for fam in B_FAMILIES] == [len(instances[fam]) for fam in B_FAMILIES]
        assert members["B1"] & members["B2"] == {(1, 7, 12), (1, 8, 13)}
        assert not members["B1"] & members["B3"] and not members["B2"] & members["B3"]
        assert all(family_a_contains(t) for t in members["B1"] & members["B2"])

    @pytest.mark.parametrize("family", B_FAMILIES)
    def test_members_sorted_without_sort(self, family):
        # family_b_ordered orders each instance by comparisons
        expected = {tuple(sorted(t)) for t in family_b_param_instances(family, 2000)}
        assert density.family_b_ordered(family, 2000) == expected

    def test_sorted_members_match_ordered_reference(self):
        for fam in B_FAMILIES:
            members = density.family_b_ordered(fam, 60)
            assert all(list(t) == sorted(t) for t in members)
            assert members == {tuple(sorted(t)) for t in _ordered_b_members(fam, 60)}


class TestCensus:
    def test_small_census(self):
        c = census(10)
        assert c.count_B1 == 18
        assert c.count_S <= c.count_A + c.count_B1 + c.count_B2 + c.count_B3
        assert c.count_S >= c.count_A
        assert all(
            0 <= count <= 1000
            for count in (c.count_A, c.count_B1, c.count_B2, c.count_B3, c.count_S)
        )
        assert c.ratio == Fraction(c.count_S, 1000)
        assert all(b.holds for b in c.bound_checks)

    def test_census_n1(self):
        c = census(1)
        assert c.count_S == 1 and c.ratio == 1

    def test_union_matches_brute_force(self):
        N = 20
        c = census(N)
        members = set()
        for fam in ("B1", "B2", "B3"):
            members |= _ordered_b_members(fam, N)
        brute_s = brute_family_a(N) + sum(
            1 for t in members if not family_a_contains(t)
        )
        assert c.count_S == brute_s

    @pytest.mark.parametrize("N", [*range(1, 61), 137, 500])
    def test_fields_match_ordered_reference(self, N):
        c = census(N)
        ordered = {fam: _ordered_b_members(fam, N) for fam in B_FAMILIES}
        assert (c.count_B1, c.count_B2, c.count_B3) == tuple(
            len(ordered[fam]) for fam in B_FAMILIES
        )
        assert (c.count_B1_unordered, c.count_B2_unordered, c.count_B3_unordered) == tuple(
            len({tuple(sorted(t)) for t in ordered[fam]}) for fam in B_FAMILIES
        )
        b_union = set().union(*ordered.values())
        assert c.count_S == count_family_A(N) + sum(
            1 for t in b_union if not family_a_contains(t)
        )

    def test_every_field_matches_union_oracle_to_300(self):
        for N in range(1, 301):
            assert census(N) == union_census(N), N

    @pytest.mark.parametrize("N", [2000, 10**4])
    def test_every_field_matches_union_oracle(self, N):
        assert census(N) == union_census(N)

    def test_family_sums_equal_the_union_at_every_n_to_2000(self):
        # The census adds each family's members outside A, the union oracle
        # counts the union's.  Tallied by largest entry, the two agree at
        # every N <= 2000 exactly when the tallies are equal.
        top = 2000
        members = {fam: density.family_b_ordered(fam, top) for fam in B_FAMILIES}

        def outside_a_by_max(found):
            return Counter(t[2] for t in found if not family_a_contains(t))

        per_family = sum((outside_a_by_max(members[fam]) for fam in B_FAMILIES), Counter())
        assert per_family == outside_a_by_max(set().union(*members.values()))

    def test_monotone_coverage(self):
        prev = None
        for N in range(1, 41):
            c = census(N)
            if prev is not None:
                assert c.count_A >= prev.count_A
                assert c.count_B1 >= prev.count_B1
                assert c.count_B2 >= prev.count_B2
                assert c.count_B3 >= prev.count_B3
                assert c.count_S >= prev.count_S
            prev = c


class TestResidueBound:
    @staticmethod
    def single_role_by_pair_sums(N):
        # independent formula: #{(b,c) in [1,N]^2 : a | b+c} summed over a,
        # the number of pairs with b+c = s being N - |s - (N+1)|
        total = 0
        for a in range(1, N + 1):
            for s in range(a, 2 * N + 1, a):
                if s >= 2:
                    total += N - abs(s - (N + 1))
        return total

    def test_matches_census_field(self):
        for N in (7, 30, 137):
            assert self.single_role_by_pair_sums(N) == census(N).count_A_single_role

    def test_bound_holds_for_all_N_up_to_500(self):
        for N in range(1, 501):
            lhs = self.single_role_by_pair_sums(N)
            rhs = sum(a * (-(-N // a) + 1) ** 2 for a in range(1, N + 1))
            assert lhs <= rhs


class TestMembershipCoherence:
    def test_wps_predicates_agree_with_enumerated_sets(self):
        N = 60
        b_sets = {fam: _ordered_b_members(fam, N) for fam in ("B1", "B2", "B3")}
        b_union = set().union(*b_sets.values())
        rng = random.Random(20240817)
        for _ in range(1000):
            t = (rng.randint(1, N), rng.randint(1, N), rng.randint(1, N))
            plane = WpsTriple(*t)
            assert (wps.family_A_member(plane) is not None) == family_a_contains(t)
            assert (wps.family_B_member(plane) is not None) == (t in b_union)
