"""Invariants and degeneration verdicts for weighted projective planes.

P(a,b,c) is a genuine weighted projective plane when the weights are
pairwise coprime ("well-formed").  Its three torus-fixed points are the
cyclic quotient germs 1/a(b,c), 1/b(a,c), 1/c(a,b); everything computed
about the plane (canonical degree, Noether check, minimal log
discrepancy, membership in the exceptional triple families, and the
final degeneration verdict) reduces to exact arithmetic on those germs.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import cqs
from .cqs import CqsGerm, _tuple_new, _validated_make, normalize

ONE_SIXTH = Fraction(1, 6)


_WpsTripleFields = namedtuple("_WpsTripleFields", "a b c")


class WpsTriple(_WpsTripleFields):
    """Weights of P(a,b,c), three positive ints; raw order is preserved for
    reporting."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> WpsTriple:
        if min(a, b, c) < 1:
            raise ValueError(f"weights must be positive, got {(a, b, c)}")
        return _tuple_new(cls, (a, b, c))

    _make = classmethod(_validated_make)

    @property
    def well_formed(self) -> bool:
        a, b, c = self
        return gcd(a, b) == 1 and gcd(b, c) == 1 and gcd(a, c) == 1


_GermRecordFields = namedtuple(
    "_GermRecordFields", "normalized runs t_data rigid gorenstein_index baskets mld mld_u mld_text mld_decimal"
)


class GermRecord(_GermRecordFields):
    """One normal form 1/m(1,q), classified once and cached by `_point_core`:
    a classified fixed point of a plane is its germ's record.

    The Hirzebruch-Jung chain is held once, as its O(log m) runs from
    `cqs.hj_runs`, never as the Theta(m) entry tuple.  The mld is also held
    as its integer numerator over m, for decisions by cross-multiplying,
    and in the two renderings of the payload.  What follows from a kept
    field is not stored: the Milnor number mu is `t_data.d - 1`, and the
    rigidity test's r is `gorenstein_index` and its k is m // r.

    Fields: normalized (NormalizedCqs), runs (tuple of (entry, count) int
    pairs), t_data (TData or None), rigid (bool), gorenstein_index (int),
    baskets (frozenset of BasketTag), mld (Fraction), mld_u (int: mld ==
    mld_u / normalized.m, not reduced), mld_text and mld_decimal (str).
    """

    __slots__ = ()

    @property
    def smooth(self) -> bool:
        return self.normalized.m == 1


FamilyAWitness = namedtuple("FamilyAWitness", "permutation indices")
FamilyAWitness.__doc__ = """Permutation (a',b',c') of the weights with b' + c' divisible by a',
and the input positions it takes them from: two int triples."""


_FamilyBWitnessFields = namedtuple("_FamilyBWitnessFields", "family n l k permutation indices")


class FamilyBWitness(_FamilyBWitnessFields):
    """Match of a weight permutation against one exceptional family.

    instantiate() rebuilds the parameterized triple, which must equal
    `permutation` exactly; `indices` maps it back onto the input order.
    Fields: family (str), the ints n, l and k, and the int triples
    permutation and indices.
    """

    __slots__ = ()

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


def family_b_row(family: str, n: int) -> tuple[int, int, int]:
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
    e, base, _ = family_b_row(family, n)
    return (1 + l * e, base + k * e, e)


@lru_cache(maxsize=4096)
def _b_role(e: int) -> tuple[int, str, int, int, int] | None:
    """(family index, family, n, base, bound) of the _B_TABLE family whose
    e = s*n - o equals the weight e for some n >= 2, else None.

    At most one family fits: B1's e is 0 mod 4, B2's is 1 mod 6 and B3's is
    5 mod 6."""
    for f, (family, (s, o, _, _, _, _)) in enumerate(_B_TABLE.items()):
        n, rem = divmod(e + o, s)
        if rem == 0 and n >= 2:
            return (f, family, n, *family_b_row(family, n)[1:])
    return None


# Per position i of the weights, the two index permutations that put it
# last (as e), in lexicographic order.
_E_LAST = (((1, 2, 0), (2, 1, 0)), ((0, 2, 1), (2, 0, 1)), ((0, 1, 2), (1, 0, 2)))


class Outcome(Enum):
    NO_NONTRIVIAL_DEGENERATIONS = "NoNontrivialDegenerations"
    OUT_OF_SCOPE = "OutOfScope"


Verdict = namedtuple("Verdict", "outcome reasons points family_a family_b mld")
Verdict.__doc__ = """The decision, with what it was made from: the reason kinds
(not_well_formed | in_family_a | in_family_b | mld_at_least_one_sixth,
in that order), the germ records of the three fixed points and the
plane's mld (both None when the plane is not well-formed), and the
family witnesses, which are found for every plane.

Fields: outcome (Outcome), reasons (tuple of str), points (three
GermRecords or None), family_a (FamilyAWitness or None), family_b
(FamilyBWitness or None), mld (Fraction or None)."""

WpsReport = namedtuple("WpsReport", "triple k2 noether verdict")
WpsReport.__doc__ = """Everything the CLI shows for one plane: the invariants, and the
verdict with the fixed points, mld and family witnesses it was made
from.

Fields: triple (WpsTriple), k2 (Fraction), noether ((Fraction, bool) or
None), verdict (Verdict)."""


_SMOOTH_RECORD = GermRecord(
    normalized=cqs.SMOOTH,
    runs=(),
    t_data=None,
    rigid=True,
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
    mld = cqs.mld_normalized(s)
    n, d = mld.as_integer_ratio()
    return _tuple_new(
        GermRecord,
        (
            s,
            cqs.hj_runs(m, q),
            cqs.classify_t(s),
            cqs.is_qg_rigid(s)[0],
            cqs.gorenstein_index(s),
            cqs.basket_membership(cqs.hj_expand(m, q)),
            mld,
            n * (m // d),
            cqs.ratio_str(n, d),
            cqs.ratio_decimal(n, d),
        ),
    )


def germ_record(germ: CqsGerm) -> GermRecord:
    """The cached record of the germ; 1/1(0,0) is the smooth record."""
    return _point_core(*normalize(germ))


def lowest_germ(points: tuple[GermRecord, GermRecord, GermRecord]) -> GermRecord:
    """The record of the plane's fixed point of least mld, the first one on
    a tie.

    Each mld is u/m with u = `mld_u`, so two cross-multiplications of
    integers, not Fraction comparisons, find the least of the three."""
    low, y, z = points
    if y.mld_u * low.normalized.m < low.mld_u * y.normalized.m:
        low = y
    if z.mld_u * low.normalized.m < low.mld_u * z.normalized.m:
        low = z
    return low


def singular_points(p: WpsTriple) -> tuple[GermRecord, GermRecord, GermRecord]:
    """The records of the three torus-fixed points 1/a(b,c), 1/b(a,c),
    1/c(a,b); a weight-1 point is the smooth record.

    This is the plane's one well-formedness proof: it raises ValueError
    exactly when the weights are not pairwise coprime.  Past it, the other
    two weights of each point are units mod its own, all `normalize` needs.
    """
    a, b, c = p
    if gcd(a, b) != 1 or gcd(b, c) != 1 or gcd(a, c) != 1:
        raise ValueError(f"P{(a, b, c)} is not well-formed (weights not pairwise coprime)")
    return (
        _point_core(*normalize((a, b, c))),
        _point_core(*normalize((b, a, c))),
        _point_core(*normalize((c, a, b))),
    )


def k2(p: WpsTriple) -> Fraction:
    """Canonical self-intersection (a+b+c)^2 / (abc), exact."""
    a, b, c = p
    s = a + b + c
    return Fraction(s * s, a * b * c)


def noether_check(
    p: WpsTriple, points: tuple[GermRecord, ...]
) -> tuple[Fraction, bool] | None:
    """K^2 + 3 + sum(mu) over the plane's classified fixed points and whether
    it equals 12; None when some singular point admits no Q-Gorenstein
    smoothing (mu undefined)."""
    total = k2(p) + 3
    for rec in points:
        if rec.smooth:
            continue
        if rec.t_data is None:
            return None
        total += rec.t_data.d - 1
    return (total, total == 12)


def wps_mld(points: tuple[GermRecord, GermRecord, GermRecord]) -> Fraction:
    """Exact minimal log discrepancy of a plane: min over its classified
    fixed points."""
    return lowest_germ(points).mld


def wps_mld_below(
    points: tuple[GermRecord, GermRecord, GermRecord], threshold: Fraction = ONE_SIXTH
) -> bool:
    """Exact decision mld(P(a,b,c)) < threshold from the plane's classified
    fixed points: the plane's mld is their minimum, so one `mld_less_than`
    call on the lowest point decides (for 1/6, whether 6*u < m)."""
    return cqs.mld_less_than(lowest_germ(points).normalized, threshold)


def family_A_member(p: WpsTriple) -> FamilyAWitness | None:
    """First permutation (a',b',c') of the weights, in lexicographic index
    order, with b'+c' == 0 mod a'.  The test depends on a' alone, so only
    (0,1,2), (1,0,2) and (2,0,1), the first to put each weight first, are tried.

    Matches planes carrying a Du Val fixed point or a smooth torus-fixed
    point; well-formedness is not required.
    """
    a, b, c = p
    if (b + c) % a == 0:
        return _tuple_new(FamilyAWitness, ((a, b, c), (0, 1, 2)))
    if (a + c) % b == 0:
        return _tuple_new(FamilyAWitness, ((b, a, c), (1, 0, 2)))
    if (a + b) % c == 0:
        return _tuple_new(FamilyAWitness, ((c, a, b), (2, 0, 1)))
    return None


def family_B_member(p: WpsTriple) -> FamilyBWitness | None:
    """Match against the exceptional families B1 < B2 < B3, first hit wins;
    permutations are tried in lexicographic index order.

    A weight is the e of at most one family, cached per weight (`_b_role`),
    so only the weights with a role are tried as e, each with the two
    orders of the other two: a permutation needs l = (a'-1)/e and
    k = (b'-base)/e exactly, both inside the family's bound.  The hit of
    least (family index, permutation) wins, which is the first hit of the
    family-major, lexicographic order."""
    best = None
    for i, e in enumerate(p):
        role = _b_role(e)
        if role is None:
            continue
        f, family, n, base, bound = role
        for idx in _E_LAST[i]:
            ap, bp = p[idx[0]], p[idx[1]]
            if (ap - 1) % e or (bp - base) % e:
                continue
            l, k = (ap - 1) // e, (bp - base) // e
            if l >= bound or not 0 <= k < bound:
                continue
            if best is None or (f, idx) < best_key:
                best_key = (f, idx)
                best = FamilyBWitness(family, n, l, k, (ap, bp, e), idx)
            break
    return best


def degeneration_verdict(p: WpsTriple) -> Verdict:
    """Decide whether P(a,b,c) admits no non-trivial Q-Gorenstein klt
    degenerations.

    The positive verdict needs: well-formed weights, mld < 1/6, and no
    membership in family A or B1/B2/B3.  Basket membership never gates the
    verdict: the exceptional families already absorb those cases, and
    Markov-square planes carry a basket germ yet admit no non-trivial
    degenerations.

    This is the one classification pass per plane: families A and B are
    checked once, even for a plane that is not well-formed (whose only
    reason stays `not_well_formed`), and the three fixed points are
    classified once; all of it is returned in the verdict.  Well-formedness
    is decided by `singular_points` alone, which raises for such a plane.
    """
    wa = family_A_member(p)
    wb = family_B_member(p)
    try:
        points = singular_points(p)
    except ValueError:
        return Verdict(Outcome.OUT_OF_SCOPE, ("not_well_formed",), None, wa, wb, None)

    reasons = ()
    if wa is not None:
        reasons += ("in_family_a",)
    if wb is not None:
        reasons += ("in_family_b",)
    if not wps_mld_below(points, ONE_SIXTH):
        reasons += ("mld_at_least_one_sixth",)

    outcome = Outcome.OUT_OF_SCOPE if reasons else Outcome.NO_NONTRIVIAL_DEGENERATIONS
    return _tuple_new(Verdict, (outcome, reasons, points, wa, wb, wps_mld(points)))


def analyze(p: WpsTriple) -> WpsReport:
    """Full report: invariants, point classifications, families, verdict."""
    verdict = degeneration_verdict(p)
    points = verdict.points
    return WpsReport(
        triple=p,
        k2=k2(p),
        noether=None if points is None else noether_check(p, points),
        verdict=verdict,
    )
