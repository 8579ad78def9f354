"""The plane decisions made from integers against their Fraction reference.

`wps_mld` and `wps_mld_below` find the lowest fixed point by
cross-multiplying each germ record's integer mld numerator, and decide a
threshold with one `mld_less_than` call on that point; `family_B_member`
reads each weight's cached family roles.  The reference below keeps the
earlier bodies verbatim: the plane mld as the `min` of the point Fractions,
a threshold decided by asking every point, and the B families solved again
for each plane.  Verdicts must agree in full, reasons and witnesses included.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from degenscope import cqs, markov, wps
from degenscope.wps import (
    _B_TABLE,
    _INDEX_PERMUTATIONS,
    ONE_SIXTH,
    FamilyBWitness,
    Outcome,
    PointReport,
    Reason,
    Verdict,
    WpsTriple,
    _b_at,
    complement_hypotheses,
    family_A_member,
    singular_points,
)

THRESHOLDS = (Fraction(1, 7), Fraction(1, 6), Fraction(1, 5), Fraction(1), Fraction(2))


# ---------------------------------------------------------------------------
# the reference: the Fraction-based bodies, verbatim


def wps_mld(points: tuple[PointReport, ...]) -> Fraction:
    """Exact minimal log discrepancy of a plane: min over its classified
    fixed points."""
    return min(pt.mld for pt in points)


def wps_mld_below(points: tuple[PointReport, ...], threshold: Fraction = ONE_SIXTH) -> bool:
    """Exact decision mld(P(a,b,c)) < threshold from the plane's classified
    fixed points: the plane's mld is their minimum, so one point below the
    threshold decides."""
    return any(cqs.mld_less_than(pt.normalized, threshold) for pt in points)


def family_B_member(p: WpsTriple) -> FamilyBWitness | None:
    """Match against the exceptional families B1 < B2 < B3, first hit wins;
    permutations are tried in lexicographic index order.

    Each family solves n once per weight, for that weight as e; a
    permutation then needs l = (a'-1)/e and k = (b'-base)/e exactly,
    both inside the family's bound."""
    w = p.weights
    for family, (s, o, _, _, _, _) in _B_TABLE.items():
        ns = []
        for e in w:
            n, rem = divmod(e + o, s)
            ns.append(0 if rem or n < 2 else n)
        if not any(ns):
            continue
        for idx in _INDEX_PERMUTATIONS:
            n = ns[idx[2]]
            if not n:
                continue
            e, base, bound = _b_at(family, n)
            ap, bp = w[idx[0]], w[idx[1]]
            l, rem_l = divmod(ap - 1, e)
            k, rem_k = divmod(bp - base, e)
            if rem_l == rem_k == 0 and 0 <= l < bound and 0 <= k < bound:
                return FamilyBWitness(
                    family=family, n=n, l=l, k=k, permutation=(ap, bp, e), indices=idx
                )
    return None


def degeneration_verdict(p: WpsTriple) -> Verdict:
    wa = family_A_member(p)
    wb = family_B_member(p)
    if not p.well_formed:
        return Verdict(Outcome.OUT_OF_SCOPE, (Reason(kind="not_well_formed"),), None, None, wa, wb)

    points = singular_points(p)
    reasons: list[Reason] = []
    if wa is not None:
        reasons.append(Reason(kind="in_family_a", family_a=wa))
    if wb is not None:
        reasons.append(Reason(kind="in_family_b", family_b=wb))
    below = wps_mld_below(points, ONE_SIXTH)
    if not below:
        reasons.append(Reason(kind="mld_at_least_one_sixth", mld=wps_mld(points)))

    hyp = complement_hypotheses(points, below)
    outcome = Outcome.NO_NONTRIVIAL_DEGENERATIONS if not reasons else Outcome.OUT_OF_SCOPE
    return Verdict(outcome, tuple(reasons), hyp, points, wa, wb)


# ---------------------------------------------------------------------------
# the comparison


def assert_agrees(weights: tuple[int, int, int]) -> None:
    p = WpsTriple(*weights)
    verdict = wps.degeneration_verdict(p)
    assert verdict == degeneration_verdict(p), weights
    if verdict.points is None:
        return
    points = verdict.points
    mld = wps_mld(points)
    assert wps.wps_mld(points) == mld, weights
    low = wps.lowest_germ(points)
    assert low.mld == mld and Fraction(low.mld_u, low.normalized.m) == mld, weights
    for threshold in THRESHOLDS:
        assert wps.wps_mld_below(points, threshold) == wps_mld_below(points, threshold), (weights, threshold)


def test_every_ordering_of_every_triple_up_to_40():
    well_formed = 0
    for weights in product(range(1, 41), repeat=3):
        assert_agrees(weights)
        well_formed += WpsTriple(*weights).well_formed
    assert well_formed > 10_000


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_markov_square_planes_up_to_1e30(seed):
    rng = random.Random(seed)
    triples = markov.classic_markov_enumerate(10**15)
    assert max(t.entries[2] for t in triples) ** 2 > 10**29
    for t in triples:
        squares = [x * x for x in t.entries]
        rng.shuffle(squares)
        assert_agrees(tuple(squares))
        if t.entries[0] > 1:
            assert wps.degeneration_verdict(WpsTriple(*squares)).outcome is Outcome.NO_NONTRIVIAL_DEGENERATIONS


@pytest.mark.parametrize("seed", [5, 29, 4096])
def test_wahl_bearing_planes_up_to_1e30(seed):
    # P(x^2, y^2, n) over the solutions of n + x^2 + y^2 = (n+2)xy: the
    # points of order x^2 and y^2 are Wahl germs.
    rng = random.Random(seed)
    planes = 0
    for n in rng.sample(range(1, 200), 12):
        for sol in markov.gen_solutions(n, 10**15):
            weights = [sol.x**2, sol.y**2, n]
            rng.shuffle(weights)
            assert_agrees(tuple(weights))
            planes += 1
    assert planes > 100
