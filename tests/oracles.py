"""Independent reference implementations the tests check the library against."""

from __future__ import annotations

from fractions import Fraction


def mld_scan(m: int, w1: int, w2: int) -> Fraction:
    """Theta(m) reference: min over 0 < t < m of {t*w1/m} + {t*w2/m}.

    The library reads the mld off the resolution chain instead; this scan
    is the independent oracle for that walk.
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
