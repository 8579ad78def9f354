import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenscope import cqs
from degenscope.cqs import (
    CqsGerm,
    NormalizedCqs,
    SMOOTH,
    basket_membership,
    classify_t,
    gorenstein_index,
    hj_eval,
    hj_expand,
    is_qg_rigid,
    milnor_mu,
    mld_brute,
    mld_less_than,
    mld_normalized,
    mld_upper_bound,
    normalize,
    reverse_type,
    same_singularity,
    wahl,
)


def coprime_pairs(max_m):
    for m in range(2, max_m + 1):
        for q in range(1, m):
            if gcd(m, q) == 1:
                yield m, q


class TestNormalize:
    @pytest.mark.parametrize(
        "germ,expected",
        [
            ((7, 3, 5), (7, 4)),
            ((4, 25, 841), (4, 1)),
            ((9, 1, 2), (9, 2)),
            ((1, 0, 0), (1, 0)),
        ],
    )
    def test_examples(self, germ, expected):
        s = normalize(CqsGerm(*germ))
        assert (s.m, s.q) == expected

    def test_already_normalized_is_fixed(self):
        for m, q in coprime_pairs(40):
            s = normalize(CqsGerm(m, 1, q))
            assert (s.m, s.q) == (m, q)

    @pytest.mark.parametrize("germ", [(4, 2, 1), (6, 3, 5), (9, 1, 6), (0, 1, 1)])
    def test_rejects_invalid(self, germ):
        with pytest.raises(ValueError):
            CqsGerm(*germ)


class TestHjChains:
    @pytest.mark.parametrize(
        "mq,chain",
        [
            ((12, 7), (2, 4, 2)),
            ((7, 1), (7,)),
            ((7, 5), (2, 2, 3)),
            ((8, 5), (2, 3, 2)),
            ((16, 3), (6, 2, 2)),
        ],
    )
    def test_expand_examples(self, mq, chain):
        assert hj_expand(*mq) == chain

    @pytest.mark.parametrize(
        "chain,mq",
        [
            ((5, 2), (9, 2)),
            ((7,), (7, 1)),
            ((3, 5, 2), (25, 9)),
            ((), (1, 0)),
        ],
    )
    def test_eval_examples(self, chain, mq):
        assert hj_eval(chain) == mq

    def test_eval_rejects_small_entries(self):
        with pytest.raises(ValueError):
            hj_eval((3, 1, 2))

    @pytest.mark.parametrize("mq", [(4, 2), (5, 0), (5, 5), (3, 4)])
    def test_expand_rejects_invalid(self, mq):
        with pytest.raises(ValueError):
            hj_expand(*mq)

    def test_round_trip_small(self):
        for m, q in coprime_pairs(200):
            chain = hj_expand(m, q)
            assert all(a >= 2 for a in chain)
            assert hj_eval(chain) == (m, q)

    @given(st.integers(2, 10**6), st.integers(1, 10**6))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_round_trip_random(self, m, qseed):
        q = qseed % m
        if q == 0 or gcd(m, q) != 1:
            q = m - 1  # always coprime
        assert hj_eval(hj_expand(m, q)) == (m, q)


class TestReverseType:
    @pytest.mark.parametrize(
        "mq,expected",
        [((7, 2), (7, 4)), ((9, 8), (9, 8)), ((25, 9), (25, 14)), ((1, 0), (1, 0))],
    )
    def test_examples(self, mq, expected):
        r = reverse_type(NormalizedCqs(*mq))
        assert (r.m, r.q) == expected

    def test_chain_reversal_duality(self):
        # dual germ <-> reversed chain, exhaustively up to 300
        for m, q in coprime_pairs(300):
            r = reverse_type(NormalizedCqs(m, q))
            assert hj_expand(r.m, r.q) == hj_expand(m, q)[::-1]

    def test_involution_and_same_singularity(self):
        for m, q in coprime_pairs(80):
            s = NormalizedCqs(m, q)
            assert reverse_type(reverse_type(s)) == s
            assert same_singularity(s, reverse_type(s))
            assert s.canonical() == reverse_type(s).canonical()


class TestClassifyT:
    @pytest.mark.parametrize(
        "mq,expected",
        [
            ((4, 1), (1, 2, 1)),
            ((12, 7), None),
            ((8, 3), (2, 2, 1)),
            ((3, 2), (3, 1, 1)),
            ((25, 9), (1, 5, 2)),
            ((5, 2), None),
        ],
    )
    def test_examples(self, mq, expected):
        t = classify_t(NormalizedCqs(*mq))
        if expected is None:
            assert t is None
        else:
            assert (t.d, t.n, t.a) == expected

    def test_du_val_parameterization(self):
        for m in range(2, 60):
            t = classify_t(NormalizedCqs(m, m - 1))
            assert t is not None and (t.d, t.n, t.a) == (m, 1, 1)
            assert t.is_du_val and not t.is_wahl

    def test_t_data_round_trip(self):
        for m, q in coprime_pairs(150):
            t = classify_t(NormalizedCqs(m, q))
            if t is not None:
                g = t.germ()
                assert (g.m, g.q) == (m, q)

    def test_wahl_constructor_is_t(self):
        for n in range(2, 25):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                t = classify_t(wahl(n, a))
                assert t is not None and t.is_wahl and (t.n, t.a) == (n, a)


class TestMilnorMu:
    @pytest.mark.parametrize("mq,expected", [((4, 1), 0), ((3, 2), 2), ((5, 2), None)])
    def test_examples(self, mq, expected):
        assert milnor_mu(NormalizedCqs(*mq)) == expected


class TestRigidity:
    @pytest.mark.parametrize(
        "mq,expected",
        [
            ((3, 1), (True, 1, 3)),
            ((12, 7), (False, 4, 3)),
            ((4, 1), (False, 2, 2)),
        ],
    )
    def test_examples(self, mq, expected):
        assert is_qg_rigid(NormalizedCqs(*mq)) == expected


class TestBaskets:
    def test_examples(self):
        tags = basket_membership(NormalizedCqs(9, 2))
        assert {(t.family, t.pattern, t.param) for t in tags} == {("F3", "[5,2^k]", 1)}

        tags = basket_membership(NormalizedCqs(12, 7))
        assert {(t.family, t.pattern, t.param) for t in tags} == {
            ("F4", "[2,4,2^k]", 1),
            ("D", "[2,n,2]", 4),
        }

        assert basket_membership(NormalizedCqs(2, 1)) == frozenset()

        tags = basket_membership(NormalizedCqs(8, 5))
        assert {(t.family, t.pattern, t.param) for t in tags} == {
            ("F2", "[2,3,2^k]", 1),
            ("D", "[2,n,2]", 3),
        }

    def test_reversal_gives_same_tags(self):
        # [2,3] and its reversal [3,2] carry both the F2 and F1 tags
        tags = {(t.family, t.param) for t in basket_membership(NormalizedCqs(5, 3))}
        assert tags == {("F2", 0), ("F1", 1)}
        assert basket_membership(NormalizedCqs(5, 2)) == basket_membership(NormalizedCqs(5, 3))


class TestReverseInvariance:
    def test_classification_invariants(self):
        for m, q in coprime_pairs(120):
            s = NormalizedCqs(m, q)
            r = reverse_type(s)
            t_s, t_r = classify_t(s), classify_t(r)
            assert (t_s is None) == (t_r is None)
            if t_s is not None:
                assert (t_s.d, t_s.n) == (t_r.d, t_r.n)
            assert is_qg_rigid(s) == is_qg_rigid(r)
            assert basket_membership(s) == basket_membership(r)
            assert gorenstein_index(s) == gorenstein_index(r)
            assert mld_brute(CqsGerm(m, 1, q)) == mld_brute(CqsGerm(m, 1, r.q))


class TestMld:
    @pytest.mark.parametrize(
        "germ,expected",
        [
            ((8, 1, 5), Fraction(1, 2)),
            ((3, 1, 2), Fraction(1)),
            ((841, 1, 637), Fraction(1, 29)),
            ((1, 0, 0), Fraction(2)),
            ((7, 1, 5), Fraction(4, 7)),
        ],
    )
    def test_examples(self, germ, expected):
        assert mld_brute(CqsGerm(*germ)) == expected

    def test_weight_order_irrelevant(self):
        assert mld_brute(CqsGerm(17, 3, 11)) == mld_brute(CqsGerm(17, 11, 3))

    def test_limit_exceeded(self):
        # orders above the former 10^8 brute-force cap get their exact mld:
        # the Wahl germ n = 10007 has order 100,140,049 and mld 1/n
        s = wahl(10007, 5003)
        assert (s.m, s.q) == (100140049, 50065020)
        assert mld_brute(CqsGerm(s.m, 1, s.q)) == Fraction(1, 10007)
        assert mld_brute(CqsGerm(s.m, 3, 3 * s.q)) == Fraction(1, 10007)

    def test_limit_env_override(self, monkeypatch):
        # the DEGENSCOPE_MLD_LIMIT variable no longer exists: setting it
        # below the order changes nothing
        monkeypatch.setenv("DEGENSCOPE_MLD_LIMIT", "90")
        assert mld_brute(CqsGerm(91, 1, 3)) == cqs._mld_scan(91, 1, 3)
        assert mld_brute(CqsGerm(89, 1, 3)) == mld_normalized(NormalizedCqs(89, 3))

    def test_chain_walk_matches_scan(self):
        # the O(log m) chain walk against the Theta(m) junior-weight scan on
        # every coprime (m,q) with m <= 300, and the threshold decision with it
        thresholds = [Fraction(1, 6), Fraction(1, 2), Fraction(1), Fraction(3)]
        for m, q in coprime_pairs(300):
            s = NormalizedCqs(m, q)
            v = cqs._mld_scan(m, 1, q)
            assert mld_normalized(s) == v, (m, q)
            for thr in thresholds:
                assert mld_less_than(s, thr) == (v < thr)

    @given(st.integers(301, 20000), st.integers(1, 10**9))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_chain_walk_matches_scan_larger_orders(self, m, qseed):
        q = 1 + qseed % (m - 1)
        if gcd(m, q) != 1:
            q = 1
        assert mld_normalized(NormalizedCqs(m, q)) == cqs._mld_scan(m, 1, q)

    def test_du_val_at_order_10_12(self):
        # A_{m-1} = [2^(m-1)] is one run of 2's, so the walk takes one step
        # where the scan would take m; 10 ms is over 100x the walk's cost
        cqs._mld_normalized.cache_clear()
        start = time.perf_counter()
        assert mld_normalized(NormalizedCqs(10**12, 10**12 - 1)) == 1
        assert time.perf_counter() - start < 0.01

    def test_wahl_mld_law_small(self):
        for n in range(2, 16):
            for a in range(1, n):
                if gcd(a, n) == 1:
                    w = wahl(n, a)
                    assert mld_brute(CqsGerm(w.m, 1, w.q)) == Fraction(1, n)

    @pytest.mark.parametrize(
        "mq,T,expected",
        [
            ((841, 637), 12, Fraction(1, 12) + Fraction(12, 841)),
            ((145, 12), 12, Fraction(1, 12) + Fraction(12, 145)),
            ((50, 7), 1, Fraction(1) + Fraction(1, 50)),
        ],
    )
    def test_upper_bound_values(self, mq, T, expected):
        assert mld_upper_bound(NormalizedCqs(*mq), T) == expected

    def test_smallest_certified_order_for_one_sixth(self):
        assert mld_upper_bound(NormalizedCqs(145, 12), 12) < Fraction(1, 6)
        assert mld_upper_bound(NormalizedCqs(144, 7), 12) >= Fraction(1, 6)

    def test_bound_rejects_bad_T(self):
        with pytest.raises(ValueError):
            mld_upper_bound(NormalizedCqs(10, 3), 0)
        with pytest.raises(ValueError):
            mld_upper_bound(NormalizedCqs(10, 3), 10)

    @given(st.integers(2, 40), st.integers(1, 39), st.integers(1, 1000))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_pigeonhole_soundness_on_wahl_germs(self, n, aseed, tseed):
        a = 1 + aseed % (n - 1) if n > 2 else 1
        if gcd(a, n) != 1:
            a = 1
        s = wahl(n, a)
        T = 1 + tseed % (s.m - 1)
        assert mld_brute(CqsGerm(s.m, 1, s.q)) <= mld_upper_bound(s, T)

    def test_pigeonhole_escape_set(self):
        # the one-sided bound genuinely fails off the Wahl regime: a Du Val
        # germ has mld 1 while 1/2 + 2/5 < 1
        s = NormalizedCqs(5, 4)
        assert mld_brute(CqsGerm(5, 1, 4)) == 1 > mld_upper_bound(s, 2)

    def test_t_equal_one_bound_is_universal(self):
        # 1 + 1/m exceeds the mld of every singular germ
        for m, q in coprime_pairs(80):
            assert mld_brute(CqsGerm(m, 1, q)) <= mld_upper_bound(NormalizedCqs(m, q), 1)

    def test_less_than_matches_brute(self):
        thresholds = [Fraction(1, 6), Fraction(1, 2), Fraction(1), Fraction(3)]
        for m, q in coprime_pairs(60):
            s = NormalizedCqs(m, q)
            v = cqs._mld_scan(m, 1, q)
            for thr in thresholds:
                assert mld_less_than(s, thr) == (v < thr)
        assert mld_less_than(SMOOTH, Fraction(3)) and not mld_less_than(SMOOTH, Fraction(2))

    def test_witness_scan_avoids_cap_on_wahl(self):
        # the decision compares the exact mld, so Wahl germs of any order,
        # here up to about 10^12, are decided without a scan or a cap
        assert mld_less_than(wahl(1009, 1), Fraction(1, 6))
        assert mld_normalized(wahl(1009, 1)) == Fraction(1, 1009)
        assert mld_less_than(wahl(10**6 + 3, 1), Fraction(1, 6))
        assert not mld_less_than(wahl(10**6 + 3, 1), Fraction(1, 10**6 + 3))

    def test_capped_when_no_small_witness(self):
        # Du Val germs have no junior weight below 1 (mld 1); they used to
        # need a full scan, and now get the exact answer at any order
        assert not mld_less_than(NormalizedCqs(5001, 5000), Fraction(1, 6))
        assert not mld_less_than(NormalizedCqs(10**12, 10**12 - 1), Fraction(1))
        assert mld_less_than(NormalizedCqs(10**12, 10**12 - 1), Fraction(10**12 + 1, 10**12))


class TestGorensteinIndex:
    @pytest.mark.parametrize(
        "mq,expected", [((25, 9), 5), ((9, 8), 1), ((12, 7), 3), ((1, 0), 1)]
    )
    def test_examples(self, mq, expected):
        assert gorenstein_index(NormalizedCqs(*mq)) == expected

    def test_wahl_index_is_n(self):
        for n in range(2, 30):
            for a in range(1, n):
                if gcd(a, n) == 1:
                    assert gorenstein_index(wahl(n, a)) == n
