import math
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cyclofact.minimal_pair import _sign_split, minimal_pair, minimal_pair_of_rational
from cyclofact.polynomials import NatPoly, RatPoly, parse_polynomial


def test_examples():
    pair = minimal_pair(parse_polynomial("X - 3/2"))
    assert (pair.ell, pair.p, pair.q0) == (2, NatPoly({1: 2}), NatPoly({0: 3}))

    pair = minimal_pair(parse_polynomial("X^2 - 3X + 1"))
    assert (pair.ell, pair.p, pair.q0) == (1, NatPoly({2: 1, 0: 1}), NatPoly({1: 3}))

    pair = minimal_pair(parse_polynomial("X - 5/6"))
    assert (pair.ell, pair.p, pair.q0) == (6, NatPoly({1: 6}), NatPoly({0: 5}))


def test_rational_examples():
    pair = minimal_pair_of_rational(F(3, 2))
    assert (pair.ell, pair.p, pair.q0) == (2, NatPoly({1: 2}), NatPoly({0: 3}))
    pair = minimal_pair_of_rational(F(2, 3))
    assert (pair.ell, pair.p, pair.q0) == (3, NatPoly({1: 3}), NatPoly({0: 2}))
    pair = minimal_pair_of_rational(F(4))
    assert (pair.ell, pair.p, pair.q0) == (1, NatPoly({1: 1}), NatPoly({0: 4}))


def test_errors():
    with pytest.raises(ValueError):
        minimal_pair(parse_polynomial("2X - 3"))
    with pytest.raises(ValueError):
        minimal_pair(RatPoly())
    with pytest.raises(ValueError):
        minimal_pair_of_rational(F(0))
    with pytest.raises(ValueError):
        minimal_pair_of_rational(F(-3, 2))


def scaled(f, c):
    """c*f, coefficient by coefficient."""
    return RatPoly({d: c * v for d, v in f.terms.items()})


coeffs = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=24)
monic_polys = st.builds(
    lambda lower, deg: RatPoly(dict(enumerate(lower[:deg])) | {deg: F(1)}),
    st.lists(coeffs, min_size=1, max_size=5),
    st.integers(min_value=1, max_value=5),
)


# not monic, not integral, or zero: the split is defined all the same
any_polys = st.dictionaries(st.integers(0, 6), coeffs, max_size=6).map(RatPoly)


@given(st.one_of(monic_polys, any_polys))
def test_split_reconstructs_and_supports_disjoint(f):
    ell, p, q0 = _sign_split(f)
    assert RatPoly(p.terms) - RatPoly(q0.terms) == scaled(f, ell)
    assert set(p.terms).isdisjoint(q0.terms)
    # ell is minimal: the lcm of the coefficient denominators
    assert ell == math.lcm(*(c.denominator for c in f.terms.values()))
    if f.is_monic():
        assert minimal_pair(f) == (ell, p, q0)


@given(monic_polys)
def test_uniqueness_under_rescaling(f):
    # Rescale ell*f by an arbitrary positive rational, divide back to monic:
    # the pair must come out identical.
    pair = minimal_pair(f)
    rescaled = scaled(f, F(7, 3))
    monic_again = scaled(rescaled, F(3, 7))
    assert minimal_pair(monic_again) == pair


@given(monic_polys)
def test_lengths_differ_when_one_not_a_root(f):
    pair = minimal_pair(f)
    if f.eval(F(1)) != 0:
        assert pair.p.length() != pair.q0.length()


def test_reconstruction_at_rational_root():
    # For f = X - q the split evaluates equally at the root.
    for q in (F(3, 2), F(2, 3), F(7, 4), F(5)):
        pair = minimal_pair_of_rational(q)
        assert pair.p.eval(q) == pair.q0.eval(q)


def test_symbolic_reconstruction_for_irrational_root():
    # p - q0 reduced modulo ell*f must vanish (f irreducible, root irrational).
    for text in ("X^2 - 2", "X^2 - 3X + 1", "X^3 - 2"):
        f = parse_polynomial(text)
        pair = minimal_pair(f)
        diff = RatPoly(pair.p.terms) - RatPoly(pair.q0.terms)
        assert diff.mod(scaled(f, pair.ell)).is_zero
