from fractions import Fraction
from math import gcd, isqrt

import pytest

from degenscope import cqs, markov, wps
from degenscope.markov import (
    GenSolution,
    MarkovTriple,
    NotASolution,
    classic_markov_enumerate,
    gen_descend,
    gen_solutions,
    partial_smoothing_candidates,
    toric_degenerations_of_p11n,
)


class TestClassicEnumeration:
    @pytest.mark.parametrize(
        "bound,expected",
        [
            (30, [(1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13), (2, 5, 29)]),
            (1, [(1, 1, 1)]),
            (2, [(1, 1, 1), (1, 1, 2)]),
        ],
    )
    def test_examples(self, bound, expected):
        assert [tuple(t) for t in classic_markov_enumerate(bound)] == expected

    def test_equation_reverified_independently(self):
        for t in classic_markov_enumerate(2000):
            a, b, c = t
            assert a * a + b * b + c * c == 3 * a * b * c
            assert a <= b <= c

    def test_invalid_triple_rejected(self):
        with pytest.raises(NotASolution):
            MarkovTriple(1, 2, 3)


class TestGenSolutions:
    @pytest.mark.parametrize(
        "n,bound,expected",
        [
            (3, 100, [(1, 1), (1, 4), (4, 19), (19, 91)]),
            (1, 15, [(1, 1), (1, 2), (2, 5), (5, 13)]),
            (7, 1, [(1, 1)]),
        ],
    )
    def test_examples(self, n, bound, expected):
        assert [(s.x, s.y) for s in gen_solutions(n, bound)] == expected

    def test_equation_and_gcd_reverified(self):
        for n in range(1, 51):
            for s in gen_solutions(n, 10**6):
                assert n + s.x**2 + s.y**2 == (n + 2) * s.x * s.y
                assert gcd(gcd(n, s.x), s.y) == 1
                assert gcd(s.x, s.y) == 1 and gcd(s.x, n) == 1 and gcd(s.y, n) == 1

    def test_matches_classic_markov_at_n_one(self):
        classic_first_one = [
            (t.b, t.c) for t in classic_markov_enumerate(1500) if t.a == 1
        ]
        gen = [(s.x, s.y) for s in gen_solutions(1, 1500)]
        assert sorted(classic_first_one) == sorted(gen)

    def test_invalid_solution_rejected(self):
        with pytest.raises(NotASolution):
            GenSolution(3, 2, 7)


class TestGenDescend:
    def test_examples(self):
        assert gen_descend(3, 4, 19) == [(4, 19), (1, 4), (1, 1)]
        assert gen_descend(9, 1, 1) == [(1, 1)]

    def test_not_a_solution(self):
        with pytest.raises(NotASolution):
            gen_descend(3, 2, 7)

    def test_retraces_generation_chain(self):
        # gen_descend relies on the equation to keep each step a sorted
        # positive solution; walk down from every solution below 10^30.
        for n in range(1, 51):
            chain = gen_solutions(n, 10**30)
            for i, top in enumerate(chain):
                path = gen_descend(n, top.x, top.y)
                assert path == [(s.x, s.y) for s in reversed(chain[: i + 1])]
                for x, y in path:
                    assert 1 <= x <= y and n + x * x + y * y == (n + 2) * x * y


class TestToricDegenerations:
    @pytest.mark.parametrize(
        "n,bound,expected",
        [
            (4, 50, [(1, 1, 4), (1, 25, 4), (25, 841, 4)]),
            (3, 20, [(1, 1, 3), (1, 16, 3), (16, 361, 3)]),
            (3, 1, [(1, 1, 3)]),
        ],
    )
    def test_examples(self, n, bound, expected):
        assert [tuple(p) for p in toric_degenerations_of_p11n(n, bound)] == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            toric_degenerations_of_p11n(2, 10)

    def test_emitted_planes_well_formed(self):
        # toric_degenerations_of_p11n relies on the equation for this.
        for n in range(3, 51):
            for p in toric_degenerations_of_p11n(n, 10**30):
                assert p.well_formed


def _p11n_planes_by_equation(n, max_weight):
    """Converse oracle for `toric_degenerations_of_p11n`: every well-formed
    P(a, b, n), a <= b <= max_weight, with K^2 = (n+2)^2/n, that is
    (a + b + n)^2 = (n+2)^2 ab, whose n-point is 1/n(1,1) and whose other
    two points are smooth or Wahl, as the library classifies them.

    For each a the equation is the quadratic
    b^2 - s b + (a+n)^2 = 0 with s = (n+2)^2 a - 2(a+n),
    so its integer roots are (s +- r)/2 with r^2 = s^2 - 4(a+n)^2."""
    planes = []
    for a in range(1, max_weight + 1):
        s = (n + 2) ** 2 * a - 2 * (a + n)
        disc = s * s - 4 * (a + n) ** 2
        r = isqrt(max(disc, 0))
        if r * r != disc or (s + r) % 2:
            continue
        for b in sorted({(s - r) // 2, (s + r) // 2}):
            assert (a + b + n) ** 2 == (n + 2) ** 2 * a * b
            plane = wps.WpsTriple(a, b, n)
            if not a <= b <= max_weight or not plane.well_formed:
                continue
            pa, pb, pn = wps.singular_points(plane)
            if tuple(pn.normalized) == (n, 1) and all(
                pt.smooth or (pt.t_data is not None and pt.t_data.is_wahl) for pt in (pa, pb)
            ):
                planes.append((a, b, n))
    return planes


class TestToricDegenerationsConverse:
    def test_the_mutation_walk_misses_no_plane(self):
        # Raw entries x, y <= 141 are the squared weights <= 141^2 = 19881,
        # the squares among weights <= 2*10^4.
        found = []
        for n in range(3, 51):
            planes = _p11n_planes_by_equation(n, 2 * 10**4)
            assert [tuple(p) for p in toric_degenerations_of_p11n(n, 141)] == planes, n
            found += planes
        assert len(found) == 105


class TestPartialSmoothingCandidates:
    def test_single_wahl_point(self):
        cands = partial_smoothing_candidates(3, 1, 4)
        assert [c.kind for c in cands] == ["Toric", "Toric"]
        assert [c.is_general_fiber for c in cands] == [False, True]
        toric, general = cands
        assert tuple(toric.toric_model) == (1, 16, 3)
        assert [(s.m, s.q) for s in toric.basket] == [(3, 1), (16, 3)]
        assert tuple(general.toric_model) == (1, 1, 3)
        assert [(s.m, s.q) for s in general.basket] == [(3, 1)]

    def test_two_wahl_points(self):
        cands = partial_smoothing_candidates(3, 4, 19)
        kinds = [(c.kind, c.is_general_fiber) for c in cands]
        assert kinds == [
            ("Toric", False),
            ("NonToricGm", False),
            ("NonToricGm", False),
            ("Toric", True),
        ]
        assert all(c.k2 == Fraction(25, 3) and c.rho == 1 for c in cands)
        small, large = cands[1], cands[2]
        assert [s.m for s in small.basket] == [3, 16]
        assert [s.m for s in large.basket] == [3, 361]
        assert small.note == markov.NONTORIC_WEIGHT_NOTE

    def test_trivial_solution(self):
        cands = partial_smoothing_candidates(7, 1, 1)
        assert len(cands) == 1
        only = cands[0]
        assert only.is_general_fiber and tuple(only.toric_model) == (1, 1, 7)
        assert [(s.m, s.q) for s in only.basket] == [(7, 1)]

    def test_rejects_non_solution(self):
        with pytest.raises(NotASolution):
            partial_smoothing_candidates(3, 2, 7)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            partial_smoothing_candidates(2, 1, 3)

    def test_every_kept_wahl_point_leaves_two_non_gorenstein_points(self):
        # A non-toric candidate is emitted for each Wahl point when there
        # are two, and none is ever dropped for its Gorenstein indices.
        solutions = 0
        for n in range(3, 51):
            for sol in gen_solutions(n, 10**6):
                solutions += 1
                cands = partial_smoothing_candidates(n, sol.x, sol.y)
                non_toric = [c for c in cands if c.kind == "NonToricGm"]
                assert len(non_toric) == (2 if sol.x > 1 and sol.y > 1 else 0), (n, sol)
                for c in non_toric:
                    assert sum(1 for s in c.basket if cqs.gorenstein_index(s) > 1) == 2, (n, sol)
        assert solutions == 241

    def test_invariants_across_solutions(self):
        for n in range(3, 21):
            for sol in gen_solutions(n, 2000):
                cands = partial_smoothing_candidates(n, sol.x, sol.y)
                assert all(c.k2 == Fraction((n + 2) ** 2, n) for c in cands)
                assert all(c.rho == 1 for c in cands)
                assert sum(1 for c in cands if c.is_general_fiber) == 1
                for c in cands:
                    assert (c.basket[0].m, c.basket[0].q) == (n, 1)
                    if c.kind == "NonToricGm":
                        assert len(c.basket) == 2


class TestMarkovSquareVerdicts:
    def test_no_nontrivial_degenerations_for_entries_to_1e30(self):
        # Criterion 07 of the acceptance suite, from entries <= 1000 to
        # entries <= 10^30: planes with weights of up to 60 digits.
        triples = [t for t in classic_markov_enumerate(10**30) if t.a >= 2]
        assert len(triples) == 820 and max(len(str(t.c**2)) for t in triples) == 60
        for a, b, c in triples:
            v = wps.degeneration_verdict(wps.WpsTriple(a * a, b * b, c * c))
            assert v.outcome is wps.Outcome.NO_NONTRIVIAL_DEGENERATIONS and v.reasons == (), (a, b, c)
