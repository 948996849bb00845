from fractions import Fraction as F
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cyclofact.rationals import format_rat, format_ratio, simplest_in_open


def mediant_walk(lo, hi):
    """Reference: one Stern-Brocot mediant step per loop iteration.

    The walk simplest_in_open batched, with its comparisons on integers so
    that the long runs of the atom = q series stay cheap to test.
    """
    base = lo.numerator // lo.denominator
    if F(base + 1) < hi:
        return F(base + 1)
    lo, hi = lo - base, hi - base
    ln, ld, rn, rd = 0, 1, 1, 0
    while True:
        mn, md = ln + rn, ld + rd
        if mn * lo.denominator <= lo.numerator * md:
            ln, ld = mn, md
        elif mn * hi.denominator >= hi.numerator * md:
            rn, rd = mn, md
        else:
            return F(mn, md) + base


@given(
    st.fractions(min_value=F(0), max_value=F(5), max_denominator=300),
    st.one_of(
        st.fractions(min_value=F(1, 300), max_value=F(3), max_denominator=300),
        st.integers(min_value=300, max_value=5000).map(lambda n: F(1, n)),
    ),
)
@example(F(0), F(1, 7))
@example(F(0), F(1))
@example(F(0), F(2))
@example(F(1), F(2))
@example(F(2), F(3))
@example(F(2), F(7, 3))
@example(F(7, 3), F(3))
@example(10**6 + F(1, 3), F(1, 7))
@example(10**30 + F(1, 2), F(2))
@settings(max_examples=400, deadline=None)
def test_batched_walk_matches_mediant_walk(lo, width):
    hi = lo + width
    assert simplest_in_open(lo, hi) == mediant_walk(lo, hi)


@pytest.mark.parametrize("c", [10, 300, 1000])
def test_atom_equals_q_series(c):
    # omega_interval_atom's interval for atom = q = (c+1)/c: a run of about
    # c^2 steps in one direction.
    q = F(c + 1, c)
    lo = ((c - 1) * q + q) / (c + 1)
    hi = (c + q) / (c + 1)
    got = simplest_in_open(lo, hi)
    assert got == mediant_walk(lo, hi)
    assert lo < got < hi


def test_empty_or_negative_interval_rejected():
    with pytest.raises(ValueError):
        simplest_in_open(F(1), F(1))
    with pytest.raises(ValueError):
        simplest_in_open(F(-1), F(1))


BIG = 10**3000


@given(st.integers(-BIG, BIG), st.one_of(st.integers(1, 12), st.integers(1, BIG)))
@example(0, 1)
@example(-7, 1)
@example(-BIG, 1)
@example(-3, 2)
@example(BIG + 1, BIG)
@settings(max_examples=300, deadline=None)
def test_format_ratio_matches_format_rat(num, den):
    g = gcd(num, den)
    num, den = num // g, den // g
    # format_rat calls format_ratio, so Fraction's own str is the independent side.
    assert format_ratio(num, den) == format_rat(F(num, den)) == str(F(num, den))
