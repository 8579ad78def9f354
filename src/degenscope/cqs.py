"""Exact classification of two-dimensional cyclic quotient singularities.

A germ 1/m(w1,w2) is the quotient of C^2 by the Z/m action with weights
(w1,w2).  Everything here is exact integer / rational arithmetic: normal
forms 1/m(1,q), Hirzebruch-Jung chains, T- and Wahl-singularity
recognition (whose d gives the Milnor correction term d - 1),
Q-Gorenstein rigidity, basket pattern membership, and minimal log
discrepancies, with the exact and decimal texts the payloads print for a
rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain as concat, repeat, starmap
from math import gcd
from typing import NamedTuple

__all__ = [
    "CqsGerm",
    "NormalizedCqs",
    "TData",
    "BasketTag",
    "SMOOTH",
    "normal_form",
    "normalize",
    "ratio_str",
    "ratio_decimal",
    "hj_runs",
    "hj_expand",
    "hj_eval",
    "reverse_type",
    "classify_t",
    "is_qg_rigid",
    "basket_membership",
    "mld_brute",
    "mld_normalized",
    "mld_upper_bound",
    "mld_less_than",
    "gorenstein_index",
    "wahl",
    "same_singularity",
]

SMOOTH_MLD = Fraction(2)  # minimal log discrepancy of a smooth surface point


def _validated_make(cls, fields):
    # `_make` for the value types that validate in `__new__`: the NamedTuple
    # default skips `__new__`, and `_replace` builds through `_make`.
    return cls(*fields)


# Builds an instance once `__new__` has validated its fields, without a
# second call through the NamedTuple's generated `__new__`.
_tuple_new = tuple.__new__


class _CqsGermFields(NamedTuple):
    m: int
    w1: int
    w2: int


class CqsGerm(_CqsGermFields):
    """Cyclic quotient germ 1/m(w1,w2); weights are stored reduced mod m."""

    __slots__ = ()

    def __new__(cls, m: int, w1: int, w2: int) -> CqsGerm:
        if m < 1:
            raise ValueError(f"order must be >= 1, got {m}")
        w1 %= m
        w2 %= m
        if gcd(w1, m) != 1 or gcd(w2, m) != 1:
            w = w1 if gcd(w1, m) != 1 else w2
            raise ValueError(f"1/{m}({w1},{w2}): weight {w} is not a unit mod {m}")
        return _tuple_new(cls, (m, w1, w2))

    _make = classmethod(_validated_make)

    @property
    def smooth(self) -> bool:
        return self.m == 1


class _NormalizedCqsFields(NamedTuple):
    m: int
    q: int


class NormalizedCqs(_NormalizedCqsFields):
    """Normal form 1/m(1,q) with 0 < q < m coprime; (1,0) is a smooth point.

    (m,q) and (m,q') present the same singularity iff q' == q or
    q*q' == 1 (mod m) (reading the resolution chain from the other end).
    """

    __slots__ = ()

    def __new__(cls, m: int, q: int) -> NormalizedCqs:
        if m < 1:
            raise ValueError(f"order must be >= 1, got {m}")
        if m == 1:
            if q != 0:
                raise ValueError("smooth marker must be (1, 0)")
        elif not (0 < q < m):
            raise ValueError(f"need 0 < q < m, got (m,q)=({m},{q})")
        elif gcd(m, q) != 1:
            raise ValueError(f"(m,q)=({m},{q}) are not coprime")
        return _tuple_new(cls, (m, q))

    _make = classmethod(_validated_make)

    @property
    def smooth(self) -> bool:
        return self.m == 1

    def canonical(self) -> NormalizedCqs:
        """The representative with the smaller of q and q^-1 mod m."""
        return min(self, reverse_type(self))


SMOOTH = NormalizedCqs(1, 0)


class _TDataFields(NamedTuple):
    d: int
    n: int
    a: int


class TData(_TDataFields):
    """Witness that a germ is 1/(d*n^2)(1, d*n*a - 1).

    n == 1 encodes the Du Val germ A_{d-1}; d == 1 (and n >= 2) is Wahl.
    """

    __slots__ = ()

    def __new__(cls, d: int, n: int, a: int) -> TData:
        if d < 1 or n < 1:
            raise ValueError("d and n must be positive")
        if not (0 < a <= n) or gcd(a, n) != 1:
            raise ValueError(f"need 0 < a <= n coprime, got a={a}, n={n}")
        return _tuple_new(cls, (d, n, a))

    _make = classmethod(_validated_make)

    @property
    def is_wahl(self) -> bool:
        return self.d == 1 and self.n >= 2

    @property
    def is_du_val(self) -> bool:
        return self.n == 1

    def germ(self) -> NormalizedCqs:
        m = self.d * self.n * self.n
        return NormalizedCqs(m, (self.d * self.n * self.a - 1) % m)


class BasketTag(NamedTuple):
    """A matched chain pattern: family in {F1..F4, D}, pattern, and its k or n."""

    family: str
    pattern: str
    param: int


@lru_cache(maxsize=65536)
def normal_form(m: int, q: int) -> NormalizedCqs:
    """The validated `NormalizedCqs(m, q)`, built once per germ and cached."""
    return NormalizedCqs(m, q)


def normalize(germ: CqsGerm) -> NormalizedCqs:
    """Normal form 1/m(1,q) of 1/m(w1,w2), via q = w1^-1 * w2 mod m.  Any
    (m, w1, w2) with units w1, w2 mod m will do; they need not be reduced."""
    m, w1, w2 = germ
    if m == 1:
        return SMOOTH
    return normal_form(m, pow(w1, -1, m) * w2 % m)


def ratio_str(n: int, d: int) -> str:
    """Exact text of the rational n/d, given in lowest terms with d > 0:
    "n/d", or "n" when d == 1."""
    return str(n) if d == 1 else f"{n}/{d}"


def ratio_decimal(n: int, d: int) -> str:
    """Advisory decimal of n/d (d > 0), truncated toward zero to 12 places
    without trailing zeros, by integer arithmetic only."""
    sign = "-" if n < 0 else ""
    whole, rem = divmod(abs(n), d)
    if rem == 0:
        return f"{sign}{whole}"
    tail = str(rem * 10**12 // d).rjust(12, "0").rstrip("0")
    return f"{sign}{whole}.{tail}"


def hj_runs(m: int, q: int) -> tuple[tuple[int, int], ...]:
    """Hirzebruch-Jung chain of m/q as maximal runs ((a, count), ...).

    m/q = a1 - 1/(a2 - 1/(...)), computed by ceiling division, one step per
    run of 2's: while q >= d = m - q the next entry is 2 and (m, q) becomes
    (m - d, q - d), so a run of q // d twos is one step.  An entry a >= 3
    at least halves m, and a run of 2's is followed by such an entry, so
    there are at most 2*log2(m) + 1 runs: A_{m-1} = [2^(m-1)] is one.
    """
    if m == 1 and q == 0:
        return ()
    if not (0 < q < m) or gcd(m, q) != 1:
        raise ValueError(f"need 0 < q < m coprime, got (m,q)=({m},{q})")
    runs: list[tuple[int, int]] = []
    while q > 0:
        d = m - q
        if q >= d:
            # No run to merge with: the entry before is at least 3, and so
            # is the next one, as q - k*d < d.
            k = q // d
            m, q = m - k * d, q - k * d
            runs.append((2, k))
        else:
            a = -(-m // q)  # at least 3, as m > 2q
            m, q = q, a * q - m
            if runs and runs[-1][0] == a:
                runs[-1] = (a, runs[-1][1] + 1)
            else:
                runs.append((a, 1))
    return tuple(runs)


def hj_expand(m: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung expansion m/q = [a1,...,ak], each ai >= 2: the
    entries of `hj_runs(m, q)`.  The walk takes O(log m) steps; only
    filling the tuple, with no list in between, is Theta(len(chain))."""
    return tuple(concat.from_iterable(starmap(repeat, hj_runs(m, q))))


def hj_eval(chain: tuple[int, ...]) -> tuple[int, int]:
    """Evaluate [a1,...,ak] back to (m,q) in lowest terms; () is smooth."""
    if any(a < 2 for a in chain):
        raise ValueError(f"chain entries must be >= 2, got {chain}")
    if not chain:
        return (1, 0)
    m, q = 1, 0
    for a in reversed(chain):
        m, q = a * m - q, m
    return m, q


def reverse_type(s: NormalizedCqs) -> NormalizedCqs:
    """Same germ read from the other chain end: q -> q^-1 mod m."""
    if s.smooth:
        return s
    return NormalizedCqs(s.m, pow(s.q, -1, s.m))


def same_singularity(s: NormalizedCqs, t: NormalizedCqs) -> bool:
    """Whether two normal forms present the same germ (q matches or inverts)."""
    return t in (s, reverse_type(s))


def classify_t(s: NormalizedCqs) -> TData | None:
    """Recognize 1/(d*n^2)(1, d*n*a - 1) via g = gcd(m, q+1).

    The germ has that shape iff m divides g^2, in which case n = m/g,
    d = g^2/m and a = (q+1)/g (gcd(a,n) = 1 is then automatic).  Du Val
    germs q = m-1 come out as n = 1, d = m, a = 1.
    """
    if s.m < 2:
        raise ValueError("classify_t needs a singular germ (m >= 2)")
    g = gcd(s.m, s.q + 1)
    if (g * g) % s.m != 0:
        return None
    return TData(d=(g * g) // s.m, n=s.m // g, a=(s.q + 1) // g)


def is_qg_rigid(s: NormalizedCqs) -> tuple[bool, int, int]:
    """Q-Gorenstein rigidity test: with k = gcd(m, q+1) and r = m/k, rigid iff k < r."""
    if s.m < 2:
        raise ValueError("rigidity test needs a singular germ (m >= 2)")
    k = gcd(s.m, s.q + 1)
    r = s.m // k
    return (k < r, k, r)


def gorenstein_index(s: NormalizedCqs) -> int:
    """Smallest r with r*K Cartier at the germ: m / gcd(m, q+1)."""
    return s.m // gcd(s.m, s.q + 1)


# Chain patterns excluded by the one-complement criterion: a fixed prefix
# followed by k >= 0 twos.  The D family is the exact shape [2,n,2], n >= 2.
_BASKET_PREFIXES: tuple[tuple[str, str, tuple[int, ...]], ...] = (
    ("F1", "[3,2^k]", (3,)),
    ("F2", "[4,2^k]", (4,)),
    ("F2", "[2,3,2^k]", (2, 3)),
    ("F3", "[5,2^k]", (5,)),
    ("F3", "[2,2,3,2^k]", (2, 2, 3)),
    ("F4", "[6,2^k]", (6,)),
    ("F4", "[2,2,2,3,2^k]", (2, 2, 2, 3)),
    ("F4", "[2,4,2^k]", (2, 4)),
    ("F4", "[3,3,2^k]", (3, 3)),
)

# The patterns by the first entry of their prefix, each with its prefix read
# backwards, for a match at the far end of the chain, and the number of 2's
# in the prefix: a pattern can match only at a chain end holding that entry.
_BASKET_BY_HEAD = {
    head: tuple(
        (family, pattern, prefix, prefix[::-1], prefix.count(2))
        for family, pattern, prefix in _BASKET_PREFIXES
        if prefix[0] == head
    )
    for head in dict.fromkeys(prefix[0] for _, _, prefix in _BASKET_PREFIXES)
}


def basket_membership(chain: tuple[int, ...]) -> frozenset[BasketTag]:
    """All basket patterns matched by a germ's Hirzebruch-Jung chain
    (`hj_expand(m, q)`), up to reversal.

    Only the patterns whose prefix starts with the chain's first or last
    entry are tried.  The chain is never copied: a pattern matches when its
    prefix sits at either end and the other len(chain) - len(prefix)
    entries are all 2's, which one `chain.count(2)`, taken once some prefix
    fits, decides.
    """
    if not chain:
        raise ValueError("basket membership needs a singular germ (non-empty chain)")
    n = len(chain)
    head, tail = chain[0], chain[-1]
    ends = _BASKET_BY_HEAD.get(head, ())
    if tail != head:
        ends += _BASKET_BY_HEAD.get(tail, ())
    twos = None
    tags = set()
    for family, pattern, prefix, backwards, prefix_twos in ends:
        p = len(prefix)
        if n < p or (chain[:p] != prefix and chain[n - p :] != backwards):
            continue
        if twos is None:
            twos = chain.count(2)
        if twos - prefix_twos == n - p:
            tags.add(BasketTag(family, pattern, n - p))
    if n == 3 and head == 2 and tail == 2:
        tags.add(BasketTag("D", "[2,n,2]", chain[1]))
    return frozenset(tags)


@lru_cache(maxsize=65536)
def _mld_normalized(m: int, q: int) -> Fraction:
    # The exceptional curves of the minimal resolution of 1/m(1,q) are the
    # lattice points v_i = (u_i, r_i), i = 1..k, with r_0 = m, r_1 = q,
    # u_0 = 0, u_1 = 1 and v_{i+1} = a_i*v_i - v_{i-1} for the chain
    # [a_1,...,a_k]; v_i is the junior weight t = u_i, t*q == r_i (mod m),
    # of log discrepancy (u_i + r_i)/m.  That discrepancy is linear on the
    # cone, so its minimum over all junior weights sits at some v_i.  Along
    # a run of 2's the v_i are in arithmetic progression, so the run's
    # minimum is at one of its ends and the walk jumps straight to the far
    # end: A_{m-1} = [2^(m-1)] takes one step and every chain O(log m).
    # The walk stops on the ray v_{k+1} = (m, 0), worth m >= u_1 + r_1.
    if m == 1:
        return SMOOTH_MLD
    u0, r0, u1, r1 = 0, m, 1, q
    best = u1 + r1
    while r1:
        du, dr = u1 - u0, r0 - r1
        twos = r1 // dr  # a_i = 2 exactly while r_i >= r_{i-1} - r_i
        if twos:
            u1, r1 = u1 + twos * du, r1 - twos * dr
            u0, r0 = u1 - du, r1 + dr
        else:
            a = -(-r0 // r1)
            u0, r0, u1, r1 = u1, r1, a * u1 - u0, a * r1 - r0
        if u1 + r1 < best:
            best = u1 + r1
    return Fraction(best, m)


def mld_normalized(s: NormalizedCqs) -> Fraction:
    """Exact minimal log discrepancy of 1/m(1,q), read off the resolution
    chain in O(log m) steps and cached; a smooth point has mld 2."""
    return _mld_normalized(s.m, s.q)


def mld_brute(germ: CqsGerm) -> Fraction:
    """Exact minimal log discrepancy of 1/m(w1,w2).

    The substitution t -> w1^-1 * t shows 1/m(w1,w2) and its normal form
    1/m(1,q) have the same junior-weight minimum, so this is
    mld_normalized(normalize(germ)).  The name is kept for its callers,
    the `cqs` command and the benchmark's trace; the brute-force scan over
    all m-1 junior weights is the tests' oracle (`tests/oracles.py`).
    """
    return mld_normalized(normalize(germ))


def mld_upper_bound(s: NormalizedCqs, T: int) -> Fraction:
    """The pigeonhole quantity 1/T + T/m for 1 <= T < m.

    It bounds the mld whenever some t <= T has fractional part {t*q/m}
    below 1/T, which pigeonholing guarantees up to a sign: the deviation
    of the best t*q/m from an integer is below 1/T in absolute value, but
    germs whose junior weights all sit just under the next integer (Du Val
    chains and their [3,2^k]-like relatives) escape the one-sided bound.
    For Wahl germs it always holds: mld = 1/n <= 2/n <= 1/T + T/n^2.
    Exact threshold decisions go through mld_less_than.
    """
    if not (1 <= T < s.m):
        raise ValueError(f"need 1 <= T < m, got T={T}, m={s.m}")
    return Fraction(1, T) + Fraction(T, s.m)


def mld_less_than(s: NormalizedCqs, threshold: Fraction) -> bool:
    """Exact decision mld(s) < threshold, by cross-multiplying the
    (positive) denominators of the cached mld and the threshold rather than
    through `Fraction.__lt__`."""
    n, d = _mld_normalized(s.m, s.q).as_integer_ratio()
    tn, td = threshold.as_integer_ratio()
    return n * td < tn * d


def wahl(n: int, a: int) -> NormalizedCqs:
    """The Wahl germ 1/n^2(1, n*a - 1) for coprime 0 < a < n, n >= 2."""
    if n < 2 or not (0 < a < n) or gcd(a, n) != 1:
        raise ValueError(f"Wahl germ needs coprime 0 < a < n, n >= 2; got (n,a)=({n},{a})")
    return NormalizedCqs(n * n, n * a - 1)
