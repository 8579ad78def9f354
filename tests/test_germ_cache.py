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
from degenscope.wps import GermRecord, PointReport


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
    chain = cqs.hj_expand(m, q)
    rigid, k, r = cqs.is_qg_rigid(s)
    mld = cqs._mld_scan(m, 1, q)
    return GermRecord(
        normalized=s,
        chain=chain,
        t_data=cqs.classify_t(s),
        mu=cqs.milnor_mu(s),
        rigid=rigid,
        rigid_k=k,
        rigid_r=r,
        gorenstein_index=cqs.gorenstein_index(s),
        baskets=cqs.basket_membership(chain),
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
                assert wps._point_core(m, q) == fresh_record(m, q), (m, q)
                germs += 1
    assert germs == sum(1 for m in range(2, 201) for q in range(1, m) if gcd(m, q) == 1)
    smooth = wps._point_core(1, 0)
    assert smooth.normalized == cqs.SMOOTH and smooth.chain == () and smooth.baskets == frozenset()
    assert (smooth.mld, smooth.mld_u, smooth.mld_text, smooth.mld_decimal) == (Fraction(2), 2, "2", "2")


def test_point_reports_repeat_the_record_fields():
    assert GermRecord._fields[: len(PointReport._fields) - 2] == PointReport._fields[2:]
    for weight, other1, other2 in [(1, 4, 5), (12, 1, 7), (25, 4, 841), (841, 4, 25), (97, 3, 50)]:
        pt = wps.point_report(weight, other1, other2)
        s = cqs.normalize(CqsGerm(weight, other1, other2))
        assert pt.normalized == s and pt.germ == CqsGerm(weight, other1, other2)
        assert tuple(pt[2:]) == wps._point_core(s.m, s.q)[: len(pt) - 2]


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
    assert {"degenscope.wps._point_core", "degenscope.wps._b_roles"} <= set(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
