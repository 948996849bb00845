"""Exact rational helpers shared across the package.

Every quantity in the core library is an exact ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator).  Floats only
estimate an exponent, which integer loops then correct, or a bit size, which
only decides whether a power is refused; every emitted value is exact.  All
comparisons and interval searches below are integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rat(text: str) -> Fraction:
    """Parse "num/den" or "num" into a reduced Fraction.

    Denominator must be positive; whitespace around tokens is tolerated.
    """
    s = text.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num = int(num_s.strip())
        den = int(den_s.strip())
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_ratio(num: int, den: int) -> str:
    """Serialize num/den, already in lowest terms with den > 0, as ``format_rat`` does."""
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def format_rat(x: Fraction) -> str:
    """Serialize a rational as "num/den", omitting "/den" when den == 1."""
    return format_ratio(x.numerator, x.denominator)


def simplest_in_open(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly between lo and hi.

    Stern-Brocot mediant walk over nonnegative rationals: descend the tree,
    stepping toward the interval until the mediant falls inside it.  The
    first mediant inside the interval is an ancestor of every other rational
    in it, hence has minimal denominator; the walk is deterministic.

    Each run of same-direction steps (a continued-fraction partial
    quotient) is taken in one integer division.
    """
    if lo < 0:
        raise ValueError("interval must lie in the nonnegative rationals")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    lo_n, lo_d = lo.numerator, lo.denominator
    hi_n, hi_d = hi.numerator, hi.denominator
    # Bounds ln/ld <= lo < hi <= rn/rd, starting from 0/1 and 1/0.
    ln, ld = 0, 1
    rn, rd = 1, 0
    while True:
        # Steps toward hi: the largest t with (ln + t*rn)/(ld + t*rd) <= lo.
        t = (lo_n * ld - ln * lo_d) // (rn * lo_d - lo_n * rd)
        ln, ld = ln + t * rn, ld + t * rd
        mn, md = ln + rn, ld + rd
        if mn * hi_d < hi_n * md:
            return Fraction(mn, md)
        # Steps toward lo: the largest t with (t*ln + rn)/(t*ld + rd) >= hi.
        t = (rn * hi_d - hi_n * rd) // (hi_n * ld - ln * hi_d)
        rn, rd = rn + t * ln, rd + t * ld
        mn, md = ln + rn, ld + rd
        if mn * lo_d > lo_n * md:
            return Fraction(mn, md)
