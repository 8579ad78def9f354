"""The per-germ caches: what they hold agrees with the primitives, a bad
germ is still refused, and every cache is bounded."""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd

import pytest

from degenscope import cli, cqs, wps
from degenscope.cqs import CqsGerm, NormalizedCqs, _CqsGermFields
from degenscope.wps import GermRecord
from oracles import mld_scan


def reference_decimal(f: Fraction, digits: int = 12) -> str:
    """The Fraction renderer the payloads used before rendering moved to
    integers, kept as the oracle."""
    sign = "-" if f.numerator < 0 else ""
    n, d = abs(f.numerator), f.denominator
    whole, rem = divmod(n, d)
    if rem == 0:
        return f"{sign}{whole}"
    scaled = rem * 10**digits // d
    tail = str(scaled).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{tail}"


def reference_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fresh_record(m: int, q: int) -> GermRecord:
    """The record of 1/m(1,q) computed from the cqs primitives, with the
    mld from the brute-force junior-weight scan."""
    s = NormalizedCqs(m, q)
    mld = mld_scan(m, 1, q)
    return GermRecord(
        normalized=s,
        runs=cqs.hj_runs(m, q),
        t_data=cqs.classify_t(s),
        rigid=cqs.is_qg_rigid(s)[0],
        gorenstein_index=cqs.gorenstein_index(s),
        baskets=cqs.basket_membership(cqs.hj_expand(m, q)),
        mld=mld,
        mld_u=mld.numerator * (m // mld.denominator),
        mld_text=reference_text(mld),
        mld_decimal=reference_decimal(mld),
    )


def test_records_agree_with_the_primitives():
    for cache in (wps._point_core, cqs.normal_form, cqs._mld_normalized):
        cache.cache_clear()
    germs = 0
    for m in range(2, 201):
        for q in range(1, m):
            if gcd(m, q) == 1:
                record = wps._point_core(m, q)
                assert record == fresh_record(m, q), (m, q)
                # The payload derives mu and the rigidity test's k and r.
                s, fields = record.normalized, cli._classification_fields(record)
                rigid, k, r = cqs.is_qg_rigid(s)
                assert fields["rigid"] == {"rigid": rigid, "k": k, "r": r}, (m, q)
                t = cqs.classify_t(s)
                assert fields["mu"] == (None if t is None else t.d - 1), (m, q)
                germs += 1
    assert germs == sum(1 for m in range(2, 201) for q in range(1, m) if gcd(m, q) == 1)
    smooth = wps._point_core(1, 0)
    assert smooth.normalized == cqs.SMOOTH and smooth.runs == () and smooth.baskets == frozenset()
    assert (smooth.mld, smooth.mld_u, smooth.mld_text, smooth.mld_decimal) == (Fraction(2), 2, "2", "2")


def test_a_germ_is_its_cached_record():
    # `germ_record` is the cached record of the germ's normal form, and a
    # plane's fixed point normalizes from its unreduced weights to the same.
    for weight, other1, other2 in [(1, 4, 5), (12, 1, 7), (25, 4, 841), (841, 4, 25), (97, 3, 50)]:
        germ = CqsGerm(weight, other1, other2)
        s = cqs.normalize(germ)
        rec = wps.germ_record(germ)
        assert rec is wps._point_core(s.m, s.q) and rec.normalized is s
        assert cqs.normalize((weight, other1, other2)) is s
        assert rec.smooth == (weight == 1) and rec.normalized.m == weight
        assert cqs.hj_expand(*rec.normalized) == cqs.hj_expand(s.m, s.q)
        assert rec.runs == cqs.hj_runs(s.m, s.q)


def test_normal_form_is_cached_and_validated():
    cqs.normal_form.cache_clear()
    s = cqs.normalize(CqsGerm(12, 5, 1))
    assert s == NormalizedCqs(12, 5) and cqs.normalize(CqsGerm(12, 1, 5)) is s
    assert cqs.normalize(CqsGerm(1, 0, 0)) is cqs.SMOOTH
    for m, q, message in [(12, 2, "(m,q)=(12,2) are not coprime"), (12, 12, "need 0 < q < m"), (1, 1, "smooth marker")]:
        for build in (NormalizedCqs, cqs.normal_form):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(m, q)
    assert cqs.normal_form.cache_info().currsize == 1  # a refused germ is not cached


@pytest.mark.parametrize(
    "m,w1,w2,message,normalize_message",
    [
        (12, 2, 1, "1/12(2,1): weight 2 is not a unit mod 12", "base is not invertible"),
        (12, 1, 9, "1/12(1,9): weight 9 is not a unit mod 12", "(m,q)=(12,9) are not coprime"),
        (12, 14, 6, "1/12(2,6): weight 2 is not a unit mod 12", "base is not invertible"),
        (9, 5, 0, "1/9(5,0): weight 0 is not a unit mod 9", "need 0 < q < m, got (m,q)=(9,0)"),
    ],
)
def test_germs_with_non_unit_weights_are_refused(m, w1, w2, message, normalize_message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CqsGerm(m, w1, w2)
    # CqsGerm never lets such a germ through; handed its raw fields,
    # normalize refuses them too, and caches nothing.
    cqs.normal_form.cache_clear()
    with pytest.raises(ValueError, match=re.escape(normalize_message)):
        cqs.normalize(_CqsGermFields(m, w1 % m, w2 % m))
    assert cqs.normal_form.cache_info().currsize == 0


def test_every_lru_cache_is_bounded():
    caches = {
        f"{module.__name__}.{name}": value
        for module in (cqs, wps, cli)
        for name, value in vars(module).items()
        if isinstance(value, functools._lru_cache_wrapper)
    }
    assert {"degenscope.cqs.normal_form", "degenscope.cqs._mld_normalized"} <= set(caches)
    assert {"degenscope.wps._point_core", "degenscope.wps._b_role"} <= set(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def box_germ_count(N: int) -> int:
    """The sum of phi(m) over 2 <= m <= N: the singular germs 1/m(1,q) of
    the box a <= b <= c <= N."""
    return sum(1 for m in range(2, N + 1) for q in range(1, m) if gcd(m, q) == 1)


def test_the_warm_up_holds_exactly_the_germs_a_scan_meets(monkeypatch):
    limit = wps._point_core.cache_parameters()["maxsize"]
    met = set()

    def recording(m, q, _core=wps._point_core):
        met.add((m, q))
        return _core(m, q)

    monkeypatch.setattr(wps, "_point_core", recording)
    for N in range(1, 31):
        met.clear()
        for a in range(1, N + 1):
            cli._scan_slice((N, a, False, True))
        warm = list(cli._box_germs(N, limit))
        assert len(warm) == len(set(warm)) == box_germ_count(N)
        assert met == {*warm, (1, 0)}, N  # and the smooth point, met at a = 1


def test_a_scan_classifies_each_germ_of_its_box_once():
    # The warm-up before the scan, then the scan itself: one miss per germ.
    for N in range(1, 31):
        wps._point_core.cache_clear()
        assert cli.run_scan(N, lambda line: None, csv_format=True) > 0
        assert wps._point_core.cache_info().misses == 1 + box_germ_count(N), N


def test_the_warm_up_stops_at_its_limit(monkeypatch):
    germs = list(cli._box_germs(12, 10**6))
    assert len(germs) == box_germ_count(12) == 45
    for limit in (0, 1, 7, 44, 45, 46):
        assert list(cli._box_germs(12, limit)) == germs[:limit]
    # From N = 464 on the box has more germs than the point cache holds;
    # the warm-up fills the cache and stops, evicting none of its records.
    maxsize = wps._point_core.cache_parameters()["maxsize"]
    assert box_germ_count(463) < maxsize < box_germ_count(464)
    assert sum(1 for _ in cli._box_germs(464, maxsize)) == maxsize
    limits = []
    monkeypatch.setattr(cli, "_box_germs", lambda N, limit: limits.append(limit) or [])
    cli.run_scan(3, lambda line: None)
    assert limits == [maxsize]
