"""Invariants and degeneration verdicts for weighted projective planes.

P(a,b,c) is a genuine weighted projective plane when the weights are
pairwise coprime ("well-formed").  Its three torus-fixed points are the
cyclic quotient germs 1/a(b,c), 1/b(a,c), 1/c(a,b); everything computed
about the plane (canonical degree, Noether check, minimal log
discrepancy, membership in the exceptional triple families, and the
final degeneration verdict) reduces to exact arithmetic on those germs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd

from . import cqs
from .cqs import (
    BasketTag,
    CqsGerm,
    NormalizedCqs,
    TData,
    normalize,
)

ONE_SIXTH = Fraction(1, 6)

_INDEX_PERMUTATIONS = tuple(permutations((0, 1, 2)))

B_FAMILIES = ("B1", "B2", "B3")


@dataclass(frozen=True)
class WpsTriple:
    """Weights of P(a,b,c); raw order is preserved for reporting."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) < 1:
            raise ValueError(f"weights must be positive, got {self.weights}")

    @property
    def weights(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def well_formed(self) -> bool:
        a, b, c = self.weights
        return gcd(a, b) == 1 and gcd(b, c) == 1 and gcd(a, c) == 1

    def sorted_weights(self) -> tuple[int, int, int]:
        return tuple(sorted(self.weights))


@dataclass(frozen=True)
class PointReport:
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
    mld: Fraction | None

    @property
    def smooth(self) -> bool:
        return self.weight == 1


@dataclass(frozen=True)
class FamilyAWitness:
    """Permutation (a',b',c') of the weights with b' + c' divisible by a'."""

    permutation: tuple[int, int, int]
    indices: tuple[int, int, int]


@dataclass(frozen=True)
class FamilyBWitness:
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


def family_b_instance(family: str, n: int, l: int, k: int) -> tuple[int, int, int]:
    """The parameterized triple of family B1/B2/B3 at (n, l, k)."""
    if n < 2 or l < 0 or k < 0:
        raise ValueError(f"need n >= 2 and l,k >= 0, got (n,l,k)=({n},{l},{k})")
    if family == "B1":
        e = 4 * (n - 1)
        return (1 + l * e, 2 * n - 1 + k * e, e)
    if family == "B2":
        e = 6 * n - 5
        return (1 + l * e, 3 * n - 1 + k * e, e)
    if family == "B3":
        e = 6 * n - 7
        return (1 + l * e, 3 * n - 2 + k * e, e)
    raise ValueError(f"unknown family {family!r}")


def family_b_lk_bound(family: str, n: int) -> int:
    """Exclusive upper bound for l and k in the given family at n."""
    if family == "B1":
        return n - 1
    if family == "B2":
        return (4 * (6 * n - 5) + 8) // 9  # ceil(4(6n-5)/9)
    if family == "B3":
        return (4 * (6 * n - 7) + 8) // 9
    raise ValueError(f"unknown family {family!r}")


class Outcome(Enum):
    NO_NONTRIVIAL_DEGENERATIONS = "NoNontrivialDegenerations"
    OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class Reason:
    """One structured cause keeping a plane out of the no-degenerations regime."""

    kind: str  # not_well_formed | in_family_a | in_family_b | mld_at_least_one_sixth
    mld: Fraction | None = None
    family_a: FamilyAWitness | None = None
    family_b: FamilyBWitness | None = None


@dataclass(frozen=True)
class ComplementHypotheses:
    """Hypothesis report for the one-complement criterion on degenerations.

    Picard-rank-one toricity is an input assumption for a genuine weighted
    plane and is recorded, not computed.  The report is informational: the
    basket condition is subsumed by the exceptional families and does not
    gate the verdict.
    """

    toric_picard_rank_one_assumed: bool
    mld_below_one_sixth: bool
    no_basket_points: bool


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    reasons: tuple[Reason, ...]
    hypotheses: ComplementHypotheses | None


@dataclass(frozen=True)
class WpsReport:
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


@lru_cache(maxsize=65536)
def _point_core(m: int, q: int):
    s = NormalizedCqs(m, q)
    chain = cqs.hj_expand(m, q)
    t = cqs.classify_t(s)
    rigid, k, r = cqs.is_qg_rigid(s)
    return (
        chain,
        t,
        None if t is None else t.d - 1,
        rigid,
        k,
        r,
        cqs.gorenstein_index(s),
        cqs.basket_membership(s),
    )


def point_report(weight: int, other1: int, other2: int, with_mld: bool) -> PointReport:
    """Classify the germ 1/weight(other1, other2); weight 1 reports smooth."""
    germ = CqsGerm(weight, other1, other2)
    if weight == 1:
        return PointReport(
            weight=1,
            germ=germ,
            normalized=cqs.SMOOTH,
            chain=(),
            t_data=None,
            mu=None,
            rigid=True,
            rigid_k=None,
            rigid_r=None,
            gorenstein_index=1,
            baskets=frozenset(),
            mld=cqs.SMOOTH_MLD if with_mld else None,
        )
    s = normalize(germ)
    chain, t, mu, rigid, k, r, gindex, tags = _point_core(s.m, s.q)
    return PointReport(
        weight=weight,
        germ=germ,
        normalized=s,
        chain=chain,
        t_data=t,
        mu=mu,
        rigid=rigid,
        rigid_k=k,
        rigid_r=r,
        gorenstein_index=gindex,
        baskets=tags,
        mld=cqs.mld_normalized(s) if with_mld else None,
    )


def singular_points(
    p: WpsTriple, with_mld: bool = True
) -> tuple[PointReport, PointReport, PointReport]:
    """The three torus-fixed points 1/a(b,c), 1/b(a,c), 1/c(a,b), classified.

    Weight-1 points report smooth.  `with_mld=False` leaves the mld out
    when only the germ types are needed.
    """
    if not p.well_formed:
        raise ValueError(f"P{p.weights} is not well-formed (weights not pairwise coprime)")
    a, b, c = p.weights
    return (
        point_report(a, b, c, with_mld),
        point_report(b, a, c, with_mld),
        point_report(c, a, b, with_mld),
    )


def k2(p: WpsTriple) -> Fraction:
    """Canonical self-intersection (a+b+c)^2 / (abc), exact."""
    a, b, c = p.weights
    return Fraction((a + b + c) ** 2, a * b * c)


def noether_check(p: WpsTriple) -> tuple[Fraction, bool] | None:
    """K^2 + 3 + sum(mu) and whether it equals 12; None when some singular
    point admits no Q-Gorenstein smoothing (mu undefined)."""
    total = k2(p) + 3
    for pt in singular_points(p, with_mld=False):
        if pt.smooth:
            continue
        if pt.mu is None:
            return None
        total += pt.mu
    return (total, total == 12)


def wps_mld(p: WpsTriple) -> Fraction:
    """Exact minimal log discrepancy: min over the three fixed points."""
    return min(cqs.mld_normalized(pt.normalized) for pt in singular_points(p, with_mld=False))


def wps_mld_below(p: WpsTriple, threshold: Fraction = ONE_SIXTH) -> bool:
    """Exact decision mld(P(a,b,c)) < threshold: the plane's mld is the
    minimum over its fixed points, so one point below the threshold decides."""
    return any(
        cqs.mld_less_than(pt.normalized, threshold) for pt in singular_points(p, with_mld=False)
    )


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


def _solve_b(family: str, ap: int, bp: int, cp: int) -> tuple[int, int, int] | None:
    # Invert the third coordinate for n, then solve l and k exactly.
    if family == "B1":
        if cp < 4 or cp % 4:
            return None
        n = cp // 4 + 1
        base_b = 2 * n - 1
    elif family == "B2":
        if (cp + 5) % 6:
            return None
        n = (cp + 5) // 6
        if n < 2:
            return None
        base_b = 3 * n - 1
    else:
        if (cp + 7) % 6:
            return None
        n = (cp + 7) // 6
        if n < 2:
            return None
        base_b = 3 * n - 2
    bound = family_b_lk_bound(family, n)
    l, rem = divmod(ap - 1, cp)
    if rem or not 0 <= l < bound:
        return None
    k, rem = divmod(bp - base_b, cp)
    if rem or not 0 <= k < bound:
        return None
    return (n, l, k)


def family_B_member(p: WpsTriple) -> FamilyBWitness | None:
    """Match against the exceptional families B1 < B2 < B3, first hit wins;
    permutations are tried in lexicographic index order."""
    w = p.weights
    for family in B_FAMILIES:
        for idx in _INDEX_PERMUTATIONS:
            ap, bp, cp = w[idx[0]], w[idx[1]], w[idx[2]]
            solved = _solve_b(family, ap, bp, cp)
            if solved is not None:
                n, l, k = solved
                return FamilyBWitness(
                    family=family, n=n, l=l, k=k, permutation=(ap, bp, cp), indices=idx
                )
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
    """
    if not p.well_formed:
        return Verdict(Outcome.OUT_OF_SCOPE, (Reason(kind="not_well_formed"),), None)

    reasons: list[Reason] = []
    wa = family_A_member(p)
    if wa is not None:
        reasons.append(Reason(kind="in_family_a", family_a=wa))
    wb = family_B_member(p)
    if wb is not None:
        reasons.append(Reason(kind="in_family_b", family_b=wb))
    below = wps_mld_below(p, ONE_SIXTH)
    if not below:
        reasons.append(Reason(kind="mld_at_least_one_sixth", mld=wps_mld(p)))

    points = singular_points(p, with_mld=False)
    hyp = complement_hypotheses(points, below)
    outcome = Outcome.NO_NONTRIVIAL_DEGENERATIONS if not reasons else Outcome.OUT_OF_SCOPE
    return Verdict(outcome, tuple(reasons), hyp)


def analyze(p: WpsTriple) -> WpsReport:
    """Full report: invariants, point classifications, families, verdict."""
    verdict = degeneration_verdict(p)
    if not p.well_formed:
        return WpsReport(
            triple=p,
            well_formed=False,
            k2=k2(p),
            points=None,
            mld=None,
            noether=None,
            family_a=family_A_member(p),
            family_b=family_B_member(p),
            verdict=verdict,
        )
    return WpsReport(
        triple=p,
        well_formed=True,
        k2=k2(p),
        points=singular_points(p, with_mld=True),
        mld=wps_mld(p),
        noether=noether_check(p),
        family_a=family_A_member(p),
        family_b=family_B_member(p),
        verdict=verdict,
    )
