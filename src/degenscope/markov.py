"""Mutation enumeration for Markov-type equations and the degeneration
census of P(1,1,n).

The classic equation a^2 + b^2 + c^2 = 3abc indexes the toric
degenerations P(a^2,b^2,c^2) of the projective plane; the generalized
equation n + x^2 + y^2 = (n+2)xy indexes the toric degenerations
P(x^2,y^2,n) of P(1,1,n).  For fixed n the generalized solutions form a
single chain under (x,y) -> (y,(n+2)y-x) starting at (1,1): every
mutation in the other direction strictly decreases the larger
coordinate, so there is no branching.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import cqs
from .cqs import NormalizedCqs, _validated_make
from .wps import WpsTriple

NONTORIC_WEIGHT_NOTE = (
    "minimal-resolution weight of a non-toric central fiber lies in {n+3, n+6}"
)


class NotASolution(ValueError):
    """Input triple fails its defining Markov-type equation."""


class _MarkovTripleFields(NamedTuple):
    a: int
    b: int
    c: int


class MarkovTriple(_MarkovTripleFields):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> MarkovTriple:
        if not (1 <= a <= b <= c):
            raise ValueError(f"need 1 <= a <= b <= c, got {(a, b, c)}")
        if a**2 + b**2 + c**2 != 3 * a * b * c:
            raise NotASolution(f"{(a, b, c)} fails a^2+b^2+c^2 = 3abc")
        return super().__new__(cls, a, b, c)

    _make = classmethod(_validated_make)

    @property
    def entries(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


class _GenSolutionFields(NamedTuple):
    n: int
    x: int
    y: int


class GenSolution(_GenSolutionFields):
    __slots__ = ()

    def __new__(cls, n: int, x: int, y: int) -> GenSolution:
        if n < 1 or not (1 <= x <= y):
            raise ValueError(f"need n >= 1 and 1 <= x <= y, got {(n, x, y)}")
        if n + x**2 + y**2 != (n + 2) * x * y:
            raise NotASolution(f"(x,y)={(x, y)} fails n+x^2+y^2 = (n+2)xy at n={n}")
        if gcd(gcd(n, x), y) != 1:
            raise ValueError(f"gcd(n,x,y) must be 1, got {(n, x, y)}")
        return super().__new__(cls, n, x, y)

    _make = classmethod(_validated_make)


class CentralFiberCandidate(NamedTuple):
    """Descriptor of a possible central fiber of a degeneration of P(1,1,n).

    Candidates are descriptors only (basket plus invariants shared by all
    fibers); which partial smoothings actually occur is not decided here,
    so the list is a superset by design.
    """

    kind: str  # "Toric" | "NonToricGm"
    is_general_fiber: bool
    toric_model: WpsTriple
    basket: tuple[NormalizedCqs, ...]
    k2: Fraction
    rho: int
    note: str = ""


def classic_markov_enumerate(bound: int) -> list[MarkovTriple]:
    """All Markov triples with max entry <= bound, breadth-first from (1,1,1).

    Each sorted triple mutates in three ways (a,b,c) -> (a,b,3ab-c);
    duplicates are removed and the result is sorted.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    seen: set[tuple[int, int, int]] = {(1, 1, 1)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a, b, c in frontier:
            for cand in ((3 * b * c - a, b, c), (a, 3 * a * c - b, c), (a, b, 3 * a * b - c)):
                t = tuple(sorted(cand))
                if t[2] <= bound and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return [MarkovTriple(*t) for t in sorted(seen)]


def gen_solutions(n: int, bound: int) -> list[GenSolution]:
    """The ascending solution chain of n + x^2 + y^2 = (n+2)xy, truncated at
    max entry <= bound."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    out = []
    x, y = 1, 1
    while y <= bound:
        out.append(GenSolution(n, x, y))
        x, y = y, (n + 2) * y - x
    return out


def gen_descend(n: int, x: int, y: int) -> list[tuple[int, int]]:
    """Strictly descending mutation path from (x,y) down to (1,1).

    Each step maps the sorted pair (x,y) to ((n+2)x - y, x); the larger
    coordinate strictly decreases, so the walk terminates.  Raises
    NotASolution on input failing the equation.
    """
    if n < 1 or x < 1 or y < 1:
        raise ValueError(f"need positive n, x, y; got {(n, x, y)}")
    x, y = min(x, y), max(x, y)
    if n + x * x + y * y != (n + 2) * x * y:
        raise NotASolution(f"(x,y)={(x, y)} fails n+x^2+y^2 = (n+2)xy at n={n}")
    path = [(x, y)]
    while (x, y) != (1, 1):
        x, y = (n + 2) * x - y, x
        if x < 1 or x > y:
            raise AssertionError("descending mutation left the solution chain")
        path.append((x, y))
    return path


def toric_degenerations_of_p11n(n: int, bound: int) -> list[WpsTriple]:
    """P(x^2,y^2,n) for every generalized solution within bound.

    The (1,1) entry reproduces P(1,1,n) itself, the trivial degeneration.
    The bound cuts on the max entry of the raw solution, not the squared
    weights.
    """
    if n < 3:
        raise ValueError(f"degeneration census needs n >= 3, got {n}")
    planes = []
    for sol in gen_solutions(n, bound):
        plane = WpsTriple(sol.x**2, sol.y**2, n)
        if not plane.well_formed:
            raise AssertionError(f"emitted plane P{plane.weights} is not well-formed")
        planes.append(plane)
    return planes


def _wahl_points(n: int, x: int, y: int) -> list[NormalizedCqs]:
    # Wahl point over the weight u^2, for u in {x, y} with u > 1; its index-u
    # parameter is (n+2) * v^-1 mod u where v is the other root.
    pts = []
    for u, v in ((x, y), (y, x)):
        if u == 1:
            continue
        w = (n + 2) * pow(v % u, -1, u) % u
        pts.append(cqs.wahl(u, w).canonical())
    return pts


def partial_smoothing_candidates(n: int, x: int, y: int) -> list[CentralFiberCandidate]:
    """Central-fiber descriptors for every subset of Wahl points of
    P(x^2,y^2,n) kept unsmoothed; the 1/n(1,1) point is always kept.

    Keeping all Wahl points is the toric fiber itself; keeping a proper
    nonempty subset gives a non-toric fiber with a torus-one action,
    emitted only when exactly two non-Gorenstein points remain; smoothing
    all of them returns the general fiber P(1,1,n).  All candidates share
    k2 = (n+2)^2/n and Picard rank 1.
    """
    if n < 3:
        raise ValueError(f"partial smoothings need n >= 3, got {n}")
    sol = GenSolution(n, min(x, y), max(x, y))  # validates the equation
    base_point = NormalizedCqs(n, 1)
    wahls = _wahl_points(n, sol.x, sol.y)
    degree = Fraction((n + 2) ** 2, n)
    model = WpsTriple(sol.x**2, sol.y**2, n)

    candidates = []
    if wahls:
        candidates.append(
            CentralFiberCandidate(
                kind="Toric",
                is_general_fiber=False,
                toric_model=model,
                basket=(base_point, *wahls),
                k2=degree,
                rho=1,
            )
        )
    for kept in sorted(wahls, key=lambda s: s.m):
        if len(wahls) < 2:
            break  # smoothing the only Wahl point is total smoothing
        basket = (base_point, kept)
        non_gor = sum(1 for s in basket if cqs.gorenstein_index(s) > 1)
        if non_gor != 2:
            continue
        candidates.append(
            CentralFiberCandidate(
                kind="NonToricGm",
                is_general_fiber=False,
                toric_model=model,
                basket=basket,
                k2=degree,
                rho=1,
                note=NONTORIC_WEIGHT_NOTE,
            )
        )
    candidates.append(
        CentralFiberCandidate(
            kind="Toric",
            is_general_fiber=True,
            toric_model=WpsTriple(1, 1, n),
            basket=(base_point,),
            k2=degree,
            rho=1,
        )
    )
    return candidates
