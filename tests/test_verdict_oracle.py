"""The plane decisions made from integers against their Fraction reference.

`wps_mld` and `wps_mld_below` find the lowest fixed point by
cross-multiplying each germ record's integer mld numerator, and decide a
threshold with one `mld_less_than` call on that point; `family_B_member`
reads each weight's cached family roles.  The reference below keeps the
earlier bodies verbatim: the plane mld as the `min` of the point Fractions,
a threshold decided by asking every point, and the B families solved again
for each plane.  Verdicts must agree in full, reasons, witnesses and mld
included.

The one-complement hypothesis block is built by `cli.verdict_payload` from
the verdict; the reference keeps the library's earlier
`complement_hypotheses` body verbatim, and the block must equal it for
every plane.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple

import pytest

from degenscope import cli, cqs, markov, wps
from degenscope.wps import (
    _B_TABLE,
    ONE_SIXTH,
    FamilyBWitness,
    Outcome,
    PointReport,
    Verdict,
    WpsTriple,
    family_A_member,
    family_b_row,
    singular_points,
)

THRESHOLDS = (Fraction(1, 7), Fraction(1, 6), Fraction(1, 5), Fraction(1), Fraction(2))

_INDEX_PERMUTATIONS = tuple(permutations((0, 1, 2)))


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
    w = tuple(p)
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
            e, base, bound = family_b_row(family, n)
            ap, bp = w[idx[0]], w[idx[1]]
            l, rem_l = divmod(ap - 1, e)
            k, rem_k = divmod(bp - base, e)
            if rem_l == rem_k == 0 and 0 <= l < bound and 0 <= k < bound:
                return FamilyBWitness(
                    family=family, n=n, l=l, k=k, permutation=(ap, bp, e), indices=idx
                )
    return None


class ComplementHypotheses(NamedTuple):
    """Hypothesis report for the one-complement criterion on degenerations.

    Picard-rank-one toricity is an input assumption for a genuine weighted
    plane and is recorded, not computed.  The report is informational: the
    basket condition is subsumed by the exceptional families and does not
    gate the verdict.
    """

    toric_picard_rank_one_assumed: bool
    mld_below_one_sixth: bool
    no_basket_points: bool


def complement_hypotheses(
    points: tuple[PointReport, PointReport, PointReport], mld_below_one_sixth: bool
) -> ComplementHypotheses:
    """Hypothesis booleans for the one-complement criterion; rank-one
    toricity is recorded as an assumption, never computed."""
    x, y, z = points
    return ComplementHypotheses(
        toric_picard_rank_one_assumed=True,
        mld_below_one_sixth=mld_below_one_sixth,
        no_basket_points=not (x.record.baskets or y.record.baskets or z.record.baskets),
    )


def degeneration_verdict(p: WpsTriple) -> Verdict:
    wa = family_A_member(p)
    wb = family_B_member(p)
    if not p.well_formed:
        return Verdict(Outcome.OUT_OF_SCOPE, ("not_well_formed",), None, wa, wb, None)

    points = singular_points(p)
    reasons: list[str] = []
    if wa is not None:
        reasons.append("in_family_a")
    if wb is not None:
        reasons.append("in_family_b")
    below = wps_mld_below(points, ONE_SIXTH)
    if not below:
        reasons.append("mld_at_least_one_sixth")

    outcome = Outcome.NO_NONTRIVIAL_DEGENERATIONS if not reasons else Outcome.OUT_OF_SCOPE
    return Verdict(outcome, tuple(reasons), points, wa, wb, wps_mld(points))


# ---------------------------------------------------------------------------
# the comparison


def assert_agrees(weights: tuple[int, int, int]) -> None:
    p = WpsTriple(*weights)
    verdict = wps.degeneration_verdict(p)
    assert verdict == degeneration_verdict(p), weights
    points = verdict.points
    mld_fields = None if points is None else cli._mld_fields(wps.lowest_germ(points))
    hypotheses = cli.verdict_payload(verdict, mld_fields)["one_complement_hypotheses"]
    if points is None:
        assert hypotheses is None, weights
        return
    reference = complement_hypotheses(points, wps_mld_below(points, ONE_SIXTH))
    assert list(hypotheses.items()) == list(reference._asdict().items()), weights
    mld = wps_mld(points)
    assert verdict.mld == mld, weights
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
    assert max(t[2] for t in triples) ** 2 > 10**29
    for t in triples:
        squares = [x * x for x in t]
        rng.shuffle(squares)
        assert_agrees(tuple(squares))
        if t[0] > 1:
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
