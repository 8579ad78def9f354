import random
import re
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from degenscope import cli, cqs, markov, wps
from degenscope.cqs import CqsGerm, NormalizedCqs, same_singularity, wahl
from degenscope.wps import (
    Outcome,
    WpsTriple,
    analyze,
    degeneration_verdict,
    family_A_member,
    family_B_member,
    k2,
    germ_record,
    noether_check,
    singular_points,
    wps_mld,
    wps_mld_below,
)
from oracles import scan_lines
from test_density import _ordered_b_members


class TestWpsTriple:
    def test_well_formed(self):
        assert WpsTriple(4, 25, 841).well_formed
        assert not WpsTriple(2, 4, 5).well_formed
        assert WpsTriple(1, 1, 1).well_formed

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WpsTriple(0, 1, 2)


class TestSingularPoints:
    def test_p114(self):
        pts = singular_points(WpsTriple(1, 1, 4))
        assert [pt.smooth for pt in pts] == [True, True, False]
        assert (pts[2].normalized.m, pts[2].normalized.q) == (4, 1)
        assert cqs.hj_expand(*pts[2].normalized) == (4,)
        assert pts[2].t_data is not None and pts[2].t_data.is_wahl

    def test_p1163(self):
        pts = singular_points(WpsTriple(1, 16, 3))
        assert pts[0].smooth
        assert (pts[1].normalized.m, pts[1].normalized.q) == (16, 3)
        t = pts[1].t_data
        assert t is not None and (t.d, t.n, t.a) == (1, 4, 1)
        assert (pts[2].normalized.m, pts[2].normalized.q) == (3, 1)

    def test_p111_all_smooth(self):
        assert all(pt.smooth for pt in singular_points(WpsTriple(1, 1, 1)))

    def test_rejects_not_well_formed(self):
        with pytest.raises(ValueError):
            singular_points(WpsTriple(2, 4, 5))

    def test_smooth_point_fields(self):
        pt = singular_points(WpsTriple(1, 2, 3))[0]
        assert cqs.hj_expand(*pt.normalized) == () and pt.baskets == frozenset()
        assert pt.mld == Fraction(2) and pt.gorenstein_index == 1 and pt.rigid


class TestTrustedFixedPoints:
    """`singular_points` normalizes the germs of a plane it has checked
    well-formed without checking their units again, and returns their
    cached records; `germ_record` takes a germ validated by `CqsGerm`."""

    def test_not_well_formed_still_raises(self):
        message = "P(2, 4, 5) is not well-formed (weights not pairwise coprime)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            singular_points(WpsTriple(2, 4, 5))

    def test_germs_are_still_validated(self):
        with pytest.raises(ValueError, match=re.escape("1/4(2,1): weight 2 is not a unit mod 4")):
            germ_record(CqsGerm(4, 2, 1))

    def test_fixed_points_are_the_records_of_their_germs(self):
        planes = 0
        for a, b, c in product(range(1, 31), repeat=3):
            p = WpsTriple(a, b, c)
            if not p.well_formed:
                continue
            planes += 1
            for pt, args in zip(singular_points(p), ((a, b, c), (b, a, c), (c, a, b))):
                assert pt is germ_record(CqsGerm(*args)), args
                assert pt.normalized.m == args[0] and pt.smooth == (args[0] == 1), args
            for pt in degeneration_verdict(p).points:
                assert pt is wps._point_core(*pt.normalized), (a, b, c)
        assert planes == 7798  # ordered pairwise-coprime triples in [1,30]^3


class TestK2:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ((1, 16, 3), Fraction(25, 3)),
            ((1, 1, 1), Fraction(9)),
            ((4, 25, 841), Fraction(9)),
        ],
    )
    def test_examples(self, weights, expected):
        assert k2(WpsTriple(*weights)) == expected

    def test_markov_squares_have_degree_nine(self):
        for t in markov.classic_markov_enumerate(200):
            a, b, c = t
            assert k2(WpsTriple(a * a, b * b, c * c)) == 9


class TestNoether:
    @pytest.mark.parametrize(
        "weights,lhs",
        [((1, 2, 3), 12), ((1, 4, 25), 12)],
    )
    def test_holds(self, weights, lhs):
        p = WpsTriple(*weights)
        res = noether_check(p, singular_points(p))
        assert res is not None
        assert res == (Fraction(lhs), True)

    def test_absent_for_non_t_point(self):
        # 1/7(1,5) has chain [2,2,3], not of the dn^2 shape
        p = WpsTriple(1, 5, 7)
        assert noether_check(p, singular_points(p)) is None

    def test_smooth_plane(self):
        p = WpsTriple(1, 1, 1)
        assert noether_check(p, singular_points(p)) == (Fraction(12), True)


class TestWpsMld:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ((4, 25, 841), Fraction(1, 29)),
            ((1, 1, 1), Fraction(2)),
            ((1, 5, 8), Fraction(1, 2)),
        ],
    )
    def test_examples(self, weights, expected):
        assert wps_mld(singular_points(WpsTriple(*weights))) == expected

    def test_below_matches_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            t = WpsTriple(rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40))
            if not t.well_formed:
                continue
            pts = singular_points(t)
            v = wps_mld(pts)
            for thr in (Fraction(1, 6), Fraction(1, 2), Fraction(1)):
                assert wps_mld_below(pts, thr) == (v < thr)


class TestFamilyA:
    def test_examples(self):
        w = family_A_member(WpsTriple(2, 3, 5))
        assert w is not None and w.permutation == (2, 3, 5)

        w = family_A_member(WpsTriple(1, 37, 1000))
        assert w is not None and w.permutation[0] == 1

        assert family_A_member(WpsTriple(4, 25, 841)) is None

    def test_witness_is_valid(self):
        rng = random.Random(11)
        for _ in range(500):
            t = WpsTriple(rng.randint(1, 60), rng.randint(1, 60), rng.randint(1, 60))
            w = family_A_member(t)
            if w is None:
                continue
            ap, bp, cp = w.permutation
            assert (bp + cp) % ap == 0
            assert tuple(t[i] for i in w.indices) == w.permutation

    def test_exhaustive_against_six_permutations(self):
        # The six-permutation walk in lexicographic index order is the
        # reference: the same witness, permutation and indices, or None on
        # every ordered triple of [1,40]^3.
        order = tuple(permutations((0, 1, 2)))

        def reference(t):
            for idx in order:
                ap, bp, cp = (t[i] for i in idx)
                if (bp + cp) % ap == 0:
                    return (ap, bp, cp), idx
            return None

        hits = 0
        for t in product(range(1, 41), repeat=3):
            w = family_A_member(WpsTriple(*t))
            assert (None if w is None else tuple(w)) == reference(t), t
            hits += w is not None
        assert 0 < hits < 40**3


class TestFamilyB:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ((1, 5, 8), ("B1", 3, 0, 0)),
            ((9, 5, 8), ("B1", 3, 1, 0)),
            ((1, 3, 4), ("B1", 2, 0, 0)),
            ((1, 5, 7), ("B2", 2, 0, 0)),
            ((1, 4, 5), ("B3", 2, 0, 0)),
        ],
    )
    def test_members(self, weights, expected):
        w = family_B_member(WpsTriple(*weights))
        assert w is not None
        assert (w.family, w.n, w.l, w.k) == expected

    @pytest.mark.parametrize("weights", [(4, 25, 841), (1, 1, 1), (2, 5, 11)])
    def test_non_members(self, weights):
        assert family_B_member(WpsTriple(*weights)) is None

    def test_witness_round_trip(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(3000):
            t = WpsTriple(rng.randint(1, 80), rng.randint(1, 80), rng.randint(1, 80))
            w = family_B_member(t)
            if w is None:
                continue
            hits += 1
            assert w.instantiate() == w.permutation
            assert tuple(t[i] for i in w.indices) == w.permutation
        assert hits > 0

    def test_exhaustive_against_enumeration(self):
        # The solver against the forward enumeration of every family: a
        # triple in [1,40]^3 matches exactly when some permutation of it is
        # a parameter instance, and every witness rebuilds its permutation.
        N = 40
        members = set().union(*(_ordered_b_members(fam, N) for fam in wps.B_FAMILIES))
        hits = 0
        for t in product(range(1, N + 1), repeat=3):
            w = family_B_member(WpsTriple(*t))
            assert (w is not None) == (t in members), t
            if w is not None:
                hits += 1
                assert w.instantiate() == w.permutation
                assert tuple(t[i] for i in w.indices) == w.permutation
        assert hits == len(members)

    def test_bounds_respected(self):
        # (1,13,8) would need k=1 in family B1 at n=3, within bounds;
        # (17,13,8) needs l=2 >= n-1, so it must not match B1 via that slot
        assert family_B_member(WpsTriple(1, 13, 8)) is not None
        w = family_B_member(WpsTriple(17, 13, 8))
        assert w is None or w.family != "B1" or w.permutation[2] != 8


class TestBRole:
    def test_each_weight_has_at_most_one_b_role(self):
        # The families' e = s*n - o are 0 mod 4 (B1), 1 mod 6 (B2) and
        # 5 mod 6 (B3), so no weight is the e of two families.
        rows = list(enumerate(wps._B_TABLE.items()))
        roles = 0
        for e in range(1, 10**5 + 1):
            fits = [
                (f, family, (e + o) // s)
                for f, (family, (s, o, *_)) in rows
                if (e + o) % s == 0 and (e + o) // s >= 2
            ]
            assert len(fits) <= 1, (e, fits)
            role = wps._b_role(e)
            if not fits:
                assert role is None, e
                continue
            roles += 1
            f, family, n = fits[0]
            e_at, base, bound = wps.family_b_row(family, n)
            assert e_at == e and role == (f, family, n, base, bound), e
        assert roles > 0


class TestVerdict:
    def test_markov_square(self):
        v = degeneration_verdict(WpsTriple(4, 25, 841))
        assert v.outcome is Outcome.NO_NONTRIVIAL_DEGENERATIONS
        assert v.reasons == ()
        assert v.points is not None
        assert v.mld < Fraction(1, 6)
        assert any(pt.baskets for pt in v.points)  # the [4] point

    def test_exceptional_plane(self):
        v = degeneration_verdict(WpsTriple(1, 5, 8))
        assert v.outcome is Outcome.OUT_OF_SCOPE
        assert v.reasons == ("in_family_a", "in_family_b", "mld_at_least_one_sixth")
        assert v.family_b.family == "B1"
        assert v.mld == Fraction(1, 2)

    def test_projective_plane(self):
        v = degeneration_verdict(WpsTriple(1, 1, 1))
        assert v.outcome is Outcome.OUT_OF_SCOPE
        assert v.reasons == ("in_family_a", "mld_at_least_one_sixth")
        assert v.mld == Fraction(2)
        assert not any(pt.baskets for pt in v.points)

    def test_not_well_formed(self):
        v = degeneration_verdict(WpsTriple(2, 4, 5))
        assert v.outcome is Outcome.OUT_OF_SCOPE
        assert v.reasons == ("not_well_formed",)
        assert v.points is None and v.mld is None

    def test_permutation_invariance(self):
        rng = random.Random(17)
        triples = [(4, 25, 841), (1, 5, 8), (1, 1, 3), (2, 4, 5)]
        triples += [
            (rng.randint(1, 50), rng.randint(1, 50), rng.randint(1, 50)) for _ in range(60)
        ]
        for t in triples:
            verdicts = [degeneration_verdict(WpsTriple(*p)) for p in permutations(t)]
            outcomes = {v.outcome for v in verdicts}
            kind_sets = {frozenset(v.reasons) for v in verdicts}
            assert len(outcomes) == 1 and len(kind_sets) == 1


class TestGenSolutionCrossChecks:
    def test_k2_formula(self):
        for n in range(1, 21):
            for sol in markov.gen_solutions(n, 10**4):
                plane = WpsTriple(sol.x**2, sol.y**2, n)
                assert k2(plane) == Fraction((n + 2) ** 2, n)

    def test_point_identification(self):
        for n in range(3, 21):
            for sol in markov.gen_solutions(n, 10**4):
                if sol.x == 1:
                    continue
                pts = singular_points(WpsTriple(sol.x**2, sol.y**2, n))
                assert same_singularity(pts[2].normalized, NormalizedCqs(n, 1))
                for pt, u, v in ((pts[0], sol.x, sol.y), (pts[1], sol.y, sol.x)):
                    w = (n + 2) * pow(v % u, -1, u) % u
                    assert same_singularity(pt.normalized, wahl(u, w))


class TestNoetherSweep:
    def test_all_t_planes_small(self):
        found = 0
        for a in range(1, 26):
            for b in range(a, 26):
                if gcd(a, b) != 1:
                    continue
                for c in range(b, 26):
                    if gcd(a, c) != 1 or gcd(b, c) != 1:
                        continue
                    p = WpsTriple(a, b, c)
                    res = noether_check(p, singular_points(p))
                    if res is not None:
                        found += 1
                        assert res == (Fraction(12), True)
        assert found == 11  # all-T planes are rare; pinned for weights <= 25


class TestAnalyze:
    def test_report_shape(self):
        rep = analyze(WpsTriple(1, 5, 8))
        assert rep.verdict.points is not None and len(rep.verdict.points) == 3
        assert rep.verdict.mld == Fraction(1, 2)
        assert rep.verdict.family_b is not None and rep.verdict.outcome is Outcome.OUT_OF_SCOPE

    def test_report_not_well_formed(self):
        rep = analyze(WpsTriple(2, 4, 5))
        assert rep.verdict.points is None and rep.verdict.mld is None


class TestOnePass:
    """The verdict classifies the three fixed points, checks each family and
    decides the 1/6 test (one `mld_less_than`, on the lowest point) once per
    plane; the scan and the full report reuse that pass."""

    COUNTED = ("singular_points", "family_A_member", "family_B_member", "mld_less_than")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.COUNTED, 0)
        for name in self.COUNTED:
            module = cqs if name == "mld_less_than" else wps

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("weights", [(4, 25, 841), (1, 5, 8), (1, 1, 1), (2, 3, 7)])
    def test_verdict(self, calls, weights):
        degeneration_verdict(WpsTriple(*weights))
        assert calls == dict.fromkeys(self.COUNTED, 1)

    def test_scan(self, calls):
        records = len(scan_lines(12))  # scan_lines checks the returned count
        assert records > 0
        # Every scanned triple is well-formed: one mld_less_than per plane.
        assert calls == dict.fromkeys(self.COUNTED, records)

    def test_analyze(self, calls):
        analyze(WpsTriple(4, 25, 841))
        assert calls["singular_points"] == 1
        assert calls["family_A_member"] == 1
        assert calls["family_B_member"] == 1
        assert calls["mld_less_than"] == 1

    def test_analyze_not_well_formed_keeps_family_a(self, calls):
        # The one singular_points call is the well-formedness proof; it raises.
        rep = analyze(WpsTriple(2, 4, 6))
        assert calls == {
            "singular_points": 1,
            "family_A_member": 1,
            "family_B_member": 1,
            "mld_less_than": 0,
        }
        wa = rep.verdict.family_a
        assert wa is not None
        assert (wa.permutation, wa.indices) == ((2, 4, 6), (0, 1, 2))
        assert rep.verdict.reasons == ("not_well_formed",)

    def test_new_germ_expands_its_chain_once(self, monkeypatch):
        expanded = []

        def counted(m, q, _fn=cqs.hj_expand):
            expanded.append((m, q))
            return _fn(m, q)

        monkeypatch.setattr(cqs, "hj_expand", counted)
        wps._point_core.cache_clear()
        pt = germ_record(CqsGerm(12, 1, 7))
        assert expanded == [(12, 7)]
        assert pt.baskets == cqs.basket_membership(cqs.hj_expand(*pt.normalized))


class TestScanBookkeeping:
    """A warm scan plane builds no validated `CqsGerm`, and proves
    coprimality with a bounded number of `gcd` calls: the scan's filter,
    `well_formed` once in `singular_points` (the verdict's one proof), and
    nothing per germ."""

    MAX_GCD_PER_PLANE = 9

    def test_scan_plane_counts(self, monkeypatch):
        cli.run_scan(12, lambda block: None)  # warm the germ caches
        counts = {"CqsGerm.__new__": 0, "gcd": 0}

        def germ_new(cls, *args, _new=CqsGerm.__new__):
            counts["CqsGerm.__new__"] += 1
            return _new(cls, *args)

        def counted_gcd(*args):
            counts["gcd"] += 1
            return gcd(*args)

        monkeypatch.setattr(CqsGerm, "__new__", staticmethod(germ_new))
        for module in (wps, cli, cqs):
            monkeypatch.setattr(module, "gcd", counted_gcd)
        records = len(scan_lines(12))  # scan_lines checks the returned count
        assert records == 91
        assert counts["CqsGerm.__new__"] == 0
        assert counts["gcd"] <= self.MAX_GCD_PER_PLANE * records
        # The guards count: a validated germ is seen.
        CqsGerm(4, 1, 3)
        assert counts["CqsGerm.__new__"] == 1
