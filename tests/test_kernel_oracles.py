"""The rewritten kernels against their earlier bodies (`tests/oracles.py`).

`lowest_germ` compares three records with two cross-multiplications, not
a loop; `mld_less_than` reads the cached mld without the `mld_normalized`
wrapper; `basket_membership` tries only the patterns whose prefix starts
with an entry at a chain end.  Each must give what its earlier body gave,
on every input of a small exhaustive range: for `lowest_germ` the very
record (the first one on a tie), for the others the same value.  The basket
patterns are also checked against the literal shapes of `tests/test_cqs.py`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import oracles
from test_cqs import _basket_membership_reversal, coprime_pairs

from degenscope import cqs, wps
from degenscope.cqs import SMOOTH, NormalizedCqs

THRESHOLDS = (Fraction(1, 6), Fraction(1, 2), Fraction(1), Fraction(3))


def test_lowest_germ_on_every_ordered_triple_to_order_12():
    records = [wps._SMOOTH_RECORD] + [wps._point_core(m, q) for m, q in coprime_pairs(12)]
    ties = 0
    for points in product(records, repeat=3):
        low = wps.lowest_germ(points)
        assert low is oracles.lowest_germ(points), points
        ties += sum(rec.mld == low.mld for rec in points) > 1
    # Repeated records and distinct germs of equal mld (every Du Val germ
    # has mld 1) both reach the tie rule.
    assert ties > len(records) ** 2
    du_val = [wps._point_core(m, m - 1) for m in (5, 7, 11)]
    assert wps.lowest_germ(du_val) is du_val[0]
    assert wps.lowest_germ((wps._SMOOTH_RECORD, *du_val[:2])) is du_val[0]


def test_mld_less_than_on_every_germ_to_order_300():
    germs = [SMOOTH] + [NormalizedCqs(m, q) for m, q in coprime_pairs(300)]
    for s, threshold in product(germs, THRESHOLDS):
        assert cqs.mld_less_than(s, threshold) == oracles.mld_less_than(s, threshold), (s, threshold)


def test_basket_membership_on_every_germ_to_order_300():
    for m, q in coprime_pairs(300):
        chain = cqs.hj_expand(m, q)
        tags = cqs.basket_membership(chain)
        assert tags == oracles.basket_membership(chain) == _basket_membership_reversal(chain), (m, q)


class _ChainSpy(tuple):
    """A chain that records the length of each slice and each `count` call."""

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        self.slices, self.counts = [], 0
        return self

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.slices.append(len(range(*i.indices(len(self)))))
        return super().__getitem__(i)

    def count(self, value):
        self.counts += 1
        return super().count(value)


def test_basket_membership_stays_constant_time_on_a_499999_chain():
    # A_499999 = [2^499999]: both ends hold a 2, no prefix fits, and so the
    # 2's are never counted and no slice is longer than a prefix.
    chain = cqs.hj_expand(500000, 499999)
    spy = _ChainSpy(chain)
    assert cqs.basket_membership(spy) == oracles.basket_membership(chain) == frozenset()
    assert spy.counts == 0
    assert max(spy.slices, default=0) <= 4
