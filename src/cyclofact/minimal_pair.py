"""Minimal pairs of monic rational polynomials.

For a monic f with rational coefficients, let ell be the least positive
integer with ell*f integer-coefficiented.  Splitting ell*f by coefficient
sign gives the unique pair (p, q0) of nonnegative-coefficient polynomials
with ell*f = p - q0 and disjoint supports.  For a positive rational r the
minimal pair is the one of X - r, which comes out as (d, d*X, n) with
n/d = r in lowest terms.

Supplied polynomials are trusted to be minimal/irreducible where that
matters; only monicity and nonzero-ness are verified here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .polynomials import NatPoly, RatPoly


class MinimalPair(NamedTuple):
    """The split ell*f = p - q0 with supports of p and q0 disjoint."""

    ell: int
    p: NatPoly
    q0: NatPoly


def _sign_split(f: RatPoly) -> tuple[int, NatPoly, NatPoly]:
    """(ell, p, q0) with ell*f = p - q0: ell is the lcm of the coefficient
    denominators, positive coefficients of ell*f go to p and negated
    negative ones to q0."""
    ell = f.denominator_lcm()
    p_terms: dict[int, int] = {}
    q_terms: dict[int, int] = {}
    for deg, coeff in f.items():
        scaled = coeff * ell
        assert scaled.denominator == 1
        c = scaled.numerator
        if c > 0:
            p_terms[deg] = c
        elif c < 0:
            q_terms[deg] = -c
    return ell, NatPoly(p_terms), NatPoly(q_terms)


def minimal_pair(f: RatPoly) -> MinimalPair:
    """Minimal pair of a monic nonzero polynomial with rational coefficients.

    Raises ValueError for non-monic input; the rest is forced: the pair is
    the split of f by coefficient sign.
    """
    if f.is_zero:
        raise ValueError("minimal pair undefined for the zero polynomial")
    if not f.is_monic():
        raise ValueError("minimal pair defined for monic polynomials")
    return MinimalPair(*_sign_split(f))


def minimal_pair_of_rational(q: Fraction) -> MinimalPair:
    """Minimal pair of a positive rational = minimal pair of X - q."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("minimal pair of a rational requires q > 0")
    return minimal_pair(RatPoly({1: Fraction(1), 0: -q}))
