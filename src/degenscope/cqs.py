"""Exact classification of two-dimensional cyclic quotient singularities.

A germ 1/m(w1,w2) is the quotient of C^2 by the Z/m action with weights
(w1,w2).  Everything here is exact integer / rational arithmetic: normal
forms 1/m(1,q), Hirzebruch-Jung chains, T- and Wahl-singularity
recognition, Milnor correction terms, Q-Gorenstein rigidity, basket
pattern membership, and minimal log discrepancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "Fraction",
    "CqsGerm",
    "NormalizedCqs",
    "TData",
    "BasketTag",
    "SMOOTH",
    "normalize",
    "hj_expand",
    "hj_eval",
    "reverse_type",
    "classify_t",
    "milnor_mu",
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


@dataclass(frozen=True)
class CqsGerm:
    """Cyclic quotient germ 1/m(w1,w2); weights are stored reduced mod m."""

    m: int
    w1: int
    w2: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"order must be >= 1, got {self.m}")
        object.__setattr__(self, "w1", self.w1 % self.m)
        object.__setattr__(self, "w2", self.w2 % self.m)
        for w in (self.w1, self.w2):
            if gcd(w, self.m) != 1:
                raise ValueError(
                    f"1/{self.m}({self.w1},{self.w2}): weight {w} is not a unit mod {self.m}"
                )

    @property
    def smooth(self) -> bool:
        return self.m == 1


@dataclass(frozen=True)
class NormalizedCqs:
    """Normal form 1/m(1,q) with 0 < q < m coprime; (1,0) is a smooth point.

    (m,q) and (m,q') present the same singularity iff q' == q or
    q*q' == 1 (mod m) (reading the resolution chain from the other end).
    """

    m: int
    q: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"order must be >= 1, got {self.m}")
        if self.m == 1:
            if self.q != 0:
                raise ValueError("smooth marker must be (1, 0)")
            return
        if not (0 < self.q < self.m):
            raise ValueError(f"need 0 < q < m, got (m,q)=({self.m},{self.q})")
        if gcd(self.m, self.q) != 1:
            raise ValueError(f"(m,q)=({self.m},{self.q}) are not coprime")

    @property
    def smooth(self) -> bool:
        return self.m == 1

    def canonical(self) -> "NormalizedCqs":
        """The representative with the smaller of q and q^-1 mod m."""
        if self.smooth:
            return self
        return NormalizedCqs(self.m, min(self.q, pow(self.q, -1, self.m)))


SMOOTH = NormalizedCqs(1, 0)


@dataclass(frozen=True)
class TData:
    """Witness that a germ is 1/(d*n^2)(1, d*n*a - 1).

    n == 1 encodes the Du Val germ A_{d-1}; d == 1 (and n >= 2) is Wahl.
    """

    d: int
    n: int
    a: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")
        if not (0 < self.a <= self.n) or gcd(self.a, self.n) != 1:
            raise ValueError(f"need 0 < a <= n coprime, got a={self.a}, n={self.n}")

    @property
    def is_wahl(self) -> bool:
        return self.d == 1 and self.n >= 2

    @property
    def is_du_val(self) -> bool:
        return self.n == 1

    def germ(self) -> NormalizedCqs:
        m = self.d * self.n * self.n
        return NormalizedCqs(m, (self.d * self.n * self.a - 1) % m)


@dataclass(frozen=True)
class BasketTag:
    """A matched chain pattern: family in {F1..F4, D}, pattern, and its k or n."""

    family: str
    pattern: str
    param: int


def normalize(germ: CqsGerm) -> NormalizedCqs:
    """Normal form 1/m(1,q) of 1/m(w1,w2), via q = w1^-1 * w2 mod m."""
    if germ.m == 1:
        return SMOOTH
    return NormalizedCqs(germ.m, (pow(germ.w1, -1, germ.m) * germ.w2) % germ.m)


def hj_expand(m: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung expansion m/q = [a1,...,ak], each ai >= 2.

    m/q = a1 - 1/(a2 - 1/(...)), computed by repeated ceiling division.
    """
    if m == 1 and q == 0:
        return ()
    if not (0 < q < m) or gcd(m, q) != 1:
        raise ValueError(f"need 0 < q < m coprime, got (m,q)=({m},{q})")
    entries = []
    while q > 0:
        a = -(-m // q)
        entries.append(a)
        m, q = q, a * q - m
    return tuple(entries)


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
    if s.m != t.m:
        return False
    if s.smooth:
        return True
    return s.q == t.q or (s.q * t.q) % s.m == 1


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


def milnor_mu(s: NormalizedCqs) -> int | None:
    """Milnor correction term of the smoothing: d - 1 for 1/(d*n^2)(1,dna-1)."""
    t = classify_t(s)
    return None if t is None else t.d - 1


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


def _match_prefix(chain: tuple[int, ...], prefix: tuple[int, ...]) -> int | None:
    if len(chain) < len(prefix) or chain[: len(prefix)] != prefix:
        return None
    tail = chain[len(prefix) :]
    if any(a != 2 for a in tail):
        return None
    return len(tail)


@lru_cache(maxsize=None)
def _basket_tags(m: int, q: int) -> frozenset[BasketTag]:
    chain = hj_expand(m, q)
    tags = set()
    for c in {chain, chain[::-1]}:
        for family, pattern, prefix in _BASKET_PREFIXES:
            k = _match_prefix(c, prefix)
            if k is not None:
                tags.add(BasketTag(family, pattern, k))
        if len(c) == 3 and c[0] == 2 and c[2] == 2:
            tags.add(BasketTag("D", "[2,n,2]", c[1]))
    return frozenset(tags)


def basket_membership(s: NormalizedCqs) -> frozenset[BasketTag]:
    """All basket patterns matched by the germ's chain, up to reversal."""
    if s.m < 2:
        raise ValueError("basket membership needs a singular germ (m >= 2)")
    return _basket_tags(s.m, s.q)


def _mld_scan(m: int, w1: int, w2: int) -> Fraction:
    """Theta(m) reference: min over 0 < t < m of {t*w1/m} + {t*w2/m}.

    The library reads the mld off the resolution chain instead; tests keep
    this scan as the independent oracle for that walk.
    """
    # additive residue stepping keeps the inner loop multiplication-free.
    r1 = r2 = 0
    best = 2 * m
    for _ in range(m - 1):
        r1 += w1
        if r1 >= m:
            r1 -= m
        r2 += w2
        if r2 >= m:
            r2 -= m
        s = r1 + r2
        if s < best:
            best = s
            if best == 2:
                break
    return Fraction(best, m)


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
        best = min(best, u1 + r1)
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
    all m-1 junior weights is `_mld_scan`, the tests' oracle.
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
    """Exact decision mld(s) < threshold."""
    return mld_normalized(s) < threshold


def wahl(n: int, a: int) -> NormalizedCqs:
    """The Wahl germ 1/n^2(1, n*a - 1) for coprime 0 < a < n, n >= 2."""
    if n < 2 or not (0 < a < n) or gcd(a, n) != 1:
        raise ValueError(f"Wahl germ needs coprime 0 < a < n, n >= 2; got (n,a)=({n},{a})")
    return NormalizedCqs(n * n, n * a - 1)
