"""Invariants and degeneration verdicts for weighted projective planes.

P(a,b,c) is a genuine weighted projective plane when the weights are
pairwise coprime ("well-formed").  Its three torus-fixed points are the
cyclic quotient germs 1/a(b,c), 1/b(a,c), 1/c(a,b); everything computed
about the plane (canonical degree, Noether check, minimal log
discrepancy, membership in the exceptional triple families, and the
final degeneration verdict) reduces to exact arithmetic on those germs.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd
from typing import NamedTuple

from . import cqs
from .cqs import (
    BasketTag,
    CqsGerm,
    NormalizedCqs,
    TData,
    _tuple_new,
    _validated_make,
    normalize,
)

ONE_SIXTH = Fraction(1, 6)

_INDEX_PERMUTATIONS = tuple(permutations((0, 1, 2)))


class _WpsTripleFields(NamedTuple):
    a: int
    b: int
    c: int


class WpsTriple(_WpsTripleFields):
    """Weights of P(a,b,c); raw order is preserved for reporting."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> WpsTriple:
        if min(a, b, c) < 1:
            raise ValueError(f"weights must be positive, got {(a, b, c)}")
        return _tuple_new(cls, (a, b, c))

    _make = classmethod(_validated_make)

    @property
    def weights(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def well_formed(self) -> bool:
        a, b, c = self.weights
        return gcd(a, b) == 1 and gcd(b, c) == 1 and gcd(a, c) == 1


class PointReport(NamedTuple):
    """Full classification of one torus-fixed point of the plane."""

    weight: int
    germ: CqsGerm
    normalized: NormalizedCqs
    chain: tuple[int, ...]
    t_data: TData | None
    mu: int | None
    rigid: bool
    rigid_k: int | None
    rigid_r: int | None
    gorenstein_index: int
    baskets: frozenset[BasketTag]
    mld: Fraction

    @property
    def smooth(self) -> bool:
        return self.weight == 1


class GermRecord(NamedTuple):
    """One normal form 1/m(1,q), classified once and cached by `_point_core`.

    The first ten fields are the classification fields of a PointReport,
    in its order; the mld is also held as its integer numerator over m, for
    decisions by cross-multiplying, and in the two renderings of the payload.
    """

    normalized: NormalizedCqs
    chain: tuple[int, ...]
    t_data: TData | None
    mu: int | None
    rigid: bool
    rigid_k: int | None
    rigid_r: int | None
    gorenstein_index: int
    baskets: frozenset[BasketTag]
    mld: Fraction
    mld_u: int  # mld == mld_u / normalized.m, not reduced
    mld_text: str
    mld_decimal: str


# How many leading GermRecord fields a PointReport repeats after weight and germ.
_SHARED_FIELDS = len(PointReport._fields) - 2


class FamilyAWitness(NamedTuple):
    """Permutation (a',b',c') of the weights with b' + c' divisible by a'."""

    permutation: tuple[int, int, int]
    indices: tuple[int, int, int]


class FamilyBWitness(NamedTuple):
    """Match of a weight permutation against one exceptional family.

    instantiate() rebuilds the parameterized triple, which must equal
    `permutation` exactly; `indices` maps it back onto the input order.
    """

    family: str
    n: int
    l: int
    k: int
    permutation: tuple[int, int, int]
    indices: tuple[int, int, int]

    def instantiate(self) -> tuple[int, int, int]:
        return family_b_instance(self.family, self.n, self.l, self.k)


# The exceptional families B1 < B2 < B3: the triples (1 + l*e, base + k*e, e)
# for n >= 2 and 0 <= l, k < ceil(num*e/den), where e = s*n - o and
# base = h*n - t.  Rows are (s, o, h, t, num, den); B1's bound is n - 1 = e/4.
_B_TABLE = {
    "B1": (4, 4, 2, 1, 1, 4),
    "B2": (6, 5, 3, 1, 4, 9),
    "B3": (6, 7, 3, 2, 4, 9),
}

B_FAMILIES = tuple(_B_TABLE)


def _b_at(family: str, n: int) -> tuple[int, int, int]:
    """(e, base, exclusive l/k bound) of the family at n."""
    if family not in _B_TABLE:
        raise ValueError(f"unknown family {family!r}")
    s, o, h, t, num, den = _B_TABLE[family]
    e = s * n - o
    return e, h * n - t, -(-num * e // den)


def family_b_instance(family: str, n: int, l: int, k: int) -> tuple[int, int, int]:
    """The parameterized triple of family B1/B2/B3 at (n, l, k)."""
    if n < 2 or l < 0 or k < 0:
        raise ValueError(f"need n >= 2 and l,k >= 0, got (n,l,k)=({n},{l},{k})")
    e, base, _ = _b_at(family, n)
    return (1 + l * e, base + k * e, e)


def family_b_lk_bound(family: str, n: int) -> int:
    """Exclusive upper bound for l and k in the given family at n."""
    return _b_at(family, n)[2]


@lru_cache(maxsize=4096)
def _b_roles(e: int) -> tuple[tuple[int, int, int] | None, ...]:
    """Per family of _B_TABLE, in table order: (n, base, bound) when the
    weight e is that family's e = s*n - o for some n >= 2, else None."""
    roles = []
    for family, (s, o, _, _, _, _) in _B_TABLE.items():
        n, rem = divmod(e + o, s)
        roles.append(None if rem or n < 2 else (n, *_b_at(family, n)[1:]))
    return tuple(roles)


class Outcome(Enum):
    NO_NONTRIVIAL_DEGENERATIONS = "NoNontrivialDegenerations"
    OUT_OF_SCOPE = "OutOfScope"


class Reason(NamedTuple):
    """One structured cause keeping a plane out of the no-degenerations regime."""

    kind: str  # not_well_formed | in_family_a | in_family_b | mld_at_least_one_sixth
    mld: Fraction | None = None
    family_a: FamilyAWitness | None = None
    family_b: FamilyBWitness | None = None


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


class Verdict(NamedTuple):
    """The decision, with the classified fixed points it was made from
    (None when the plane is not well-formed) and the family witnesses,
    which are found for every plane."""

    outcome: Outcome
    reasons: tuple[Reason, ...]
    hypotheses: ComplementHypotheses | None
    points: tuple[PointReport, PointReport, PointReport] | None
    family_a: FamilyAWitness | None
    family_b: FamilyBWitness | None


class WpsReport(NamedTuple):
    """Everything the CLI shows for one plane."""

    triple: WpsTriple
    well_formed: bool
    k2: Fraction
    points: tuple[PointReport, ...] | None
    mld: Fraction | None
    noether: tuple[Fraction, bool] | None
    family_a: FamilyAWitness | None
    family_b: FamilyBWitness | None
    verdict: Verdict


_SMOOTH_RECORD = GermRecord(
    normalized=cqs.SMOOTH,
    chain=(),
    t_data=None,
    mu=None,
    rigid=True,
    rigid_k=None,
    rigid_r=None,
    gorenstein_index=1,
    baskets=frozenset(),
    mld=cqs.SMOOTH_MLD,
    mld_u=2,
    mld_text="2",
    mld_decimal="2",
)


@lru_cache(maxsize=65536)
def _point_core(m: int, q: int) -> GermRecord:
    """The record of the germ 1/m(1,q); (1, 0) is the smooth point."""
    if m == 1:
        return _SMOOTH_RECORD
    s = cqs.normal_form(m, q)
    chain = cqs.hj_expand(m, q)
    t = cqs.classify_t(s)
    rigid, k, r = cqs.is_qg_rigid(s)
    mld = cqs.mld_normalized(s)
    n, d = mld.numerator, mld.denominator
    return GermRecord(
        s,
        chain,
        t,
        None if t is None else t.d - 1,
        rigid,
        k,
        r,
        cqs.gorenstein_index(s),
        cqs.basket_membership(chain),
        mld,
        n * (m // d),
        cqs.ratio_str(n, d),
        cqs.ratio_decimal(n, d),
    )


def point_report(weight: int, other1: int, other2: int) -> PointReport:
    """Classify the germ 1/weight(other1, other2); weight 1 reports smooth."""
    germ = CqsGerm(weight, other1, other2)
    if weight == 1:
        rec = _SMOOTH_RECORD
    else:
        s = normalize(germ)
        rec = _point_core(s.m, s.q)
    return _tuple_new(PointReport, (weight, germ, *rec[:_SHARED_FIELDS]))


def lowest_germ(points: tuple[PointReport, ...]) -> GermRecord:
    """The record of the fixed point of least mld, the first one on a tie.

    Each mld is u/m with u = `mld_u`, so the minimum is found by
    cross-multiplying integers, not by comparing Fractions."""
    best = None
    for pt in points:
        s = pt.normalized
        rec = _point_core(s.m, s.q)
        if best is None or rec.mld_u * best_m < best.mld_u * s.m:
            best, best_m = rec, s.m
    if best is None:
        raise ValueError("no fixed points to take the least mld of")
    return best


def singular_points(p: WpsTriple) -> tuple[PointReport, PointReport, PointReport]:
    """The three torus-fixed points 1/a(b,c), 1/b(a,c), 1/c(a,b), classified.

    Weight-1 points report smooth.
    """
    if not p.well_formed:
        raise ValueError(f"P{p.weights} is not well-formed (weights not pairwise coprime)")
    a, b, c = p.weights
    return (point_report(a, b, c), point_report(b, a, c), point_report(c, a, b))


def k2(p: WpsTriple) -> Fraction:
    """Canonical self-intersection (a+b+c)^2 / (abc), exact."""
    a, b, c = p.weights
    return Fraction((a + b + c) ** 2, a * b * c)


def noether_check(
    p: WpsTriple, points: tuple[PointReport, ...]
) -> tuple[Fraction, bool] | None:
    """K^2 + 3 + sum(mu) over the plane's classified fixed points and whether
    it equals 12; None when some singular point admits no Q-Gorenstein
    smoothing (mu undefined)."""
    total = k2(p) + 3
    for pt in points:
        if pt.smooth:
            continue
        if pt.mu is None:
            return None
        total += pt.mu
    return (total, total == 12)


def wps_mld(points: tuple[PointReport, ...]) -> Fraction:
    """Exact minimal log discrepancy of a plane: min over its classified
    fixed points."""
    return lowest_germ(points).mld


def wps_mld_below(points: tuple[PointReport, ...], threshold: Fraction = ONE_SIXTH) -> bool:
    """Exact decision mld(P(a,b,c)) < threshold from the plane's classified
    fixed points: the plane's mld is their minimum, so one `mld_less_than`
    call on the lowest point decides (for 1/6, whether 6*u < m)."""
    return cqs.mld_less_than(lowest_germ(points).normalized, threshold)


def family_A_member(p: WpsTriple) -> FamilyAWitness | None:
    """First permutation (a',b',c') of the weights with b'+c' == 0 mod a'.

    Matches planes carrying a Du Val fixed point or a smooth torus-fixed
    point; well-formedness is not required.
    """
    w = p.weights
    for idx in _INDEX_PERMUTATIONS:
        ap, bp, cp = w[idx[0]], w[idx[1]], w[idx[2]]
        if (bp + cp) % ap == 0:
            return FamilyAWitness(permutation=(ap, bp, cp), indices=idx)
    return None


def family_B_member(p: WpsTriple) -> FamilyBWitness | None:
    """Match against the exceptional families B1 < B2 < B3, first hit wins;
    permutations are tried in lexicographic index order.

    Each weight's roles as some family's e are solved once and cached
    (`_b_roles`); a permutation then needs l = (a'-1)/e and k = (b'-base)/e
    exactly, both inside the family's bound."""
    w = p.weights
    roles = (_b_roles(w[0]), _b_roles(w[1]), _b_roles(w[2]))
    for f, family in enumerate(B_FAMILIES):
        for idx in _INDEX_PERMUTATIONS:
            role = roles[idx[2]][f]
            if role is None:
                continue
            n, base, bound = role
            ap, bp, e = w[idx[0]], w[idx[1]], w[idx[2]]
            l, rem_l = divmod(ap - 1, e)
            k, rem_k = divmod(bp - base, e)
            if rem_l == rem_k == 0 and 0 <= l < bound and 0 <= k < bound:
                return FamilyBWitness(family, n, l, k, (ap, bp, e), idx)
    return None


def complement_hypotheses(
    points: tuple[PointReport, ...], mld_below_one_sixth: bool
) -> ComplementHypotheses:
    """Hypothesis booleans for the one-complement criterion; rank-one
    toricity is recorded as an assumption, never computed."""
    return ComplementHypotheses(
        toric_picard_rank_one_assumed=True,
        mld_below_one_sixth=mld_below_one_sixth,
        no_basket_points=all(not pt.baskets for pt in points),
    )


def degeneration_verdict(p: WpsTriple) -> Verdict:
    """Decide whether P(a,b,c) admits no non-trivial Q-Gorenstein klt
    degenerations.

    The positive verdict needs: well-formed weights, mld < 1/6, and no
    membership in family A or B1/B2/B3.  Basket membership is reported in
    the hypothesis block but never gates the verdict: the exceptional
    families already absorb those cases, and Markov-square planes carry a
    basket germ yet admit no non-trivial degenerations.

    This is the one classification pass per plane: families A and B are
    checked once, even for a plane that is not well-formed (whose only
    reason stays `not_well_formed`), and the three fixed points are
    classified once; all of it is returned in the verdict.
    """
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


def analyze(p: WpsTriple) -> WpsReport:
    """Full report: invariants, point classifications, families, verdict."""
    verdict = degeneration_verdict(p)
    points = verdict.points
    return WpsReport(
        triple=p,
        well_formed=p.well_formed,
        k2=k2(p),
        points=points,
        mld=None if points is None else wps_mld(points),
        noether=None if points is None else noether_check(p, points),
        family_a=verdict.family_a,
        family_b=verdict.family_b,
        verdict=verdict,
    )
