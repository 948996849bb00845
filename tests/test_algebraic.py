from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cyclofact.algebraic import (
    AlgebraicNumber,
    FormulaResult,
    LowerBoundStep,
    elasticity_formula,
    elasticity_lower_bound_sequence,
)
from cyclofact.minimal_pair import minimal_pair_of_rational
from cyclofact.polynomials import NatPoly, RatPoly, parse_polynomial
from cyclofact.semiring import Budget


def test_sqrt2_signs():
    alpha = AlgebraicNumber(parse_polynomial("X^2 - 2"), F(1), F(2))
    assert alpha.sign_of(parse_polynomial("X^2 - 2")) == 0
    assert alpha.compare(F(1)) == 1
    assert alpha.compare(F(3, 2)) == -1
    assert alpha.compare(F(7, 5)) == 1          # sqrt(2) > 1.4
    assert alpha.compare(F(141422, 100000)) == -1


def test_sign_of_reduces_modulo_minpoly():
    alpha = AlgebraicNumber(parse_polynomial("X^2 - 3X + 1"), F(5, 2), F(3))
    # alpha^2 = 3 alpha - 1, so X^2 - 3X + 1 has sign 0 and
    # X^3 - 8X + 3 = (X)(X^2-3X+1) + 3X^2 - 9X + 3 also vanishes
    assert alpha.sign_of(parse_polynomial("X^3 - 8X + 3")) == 0
    assert alpha.sign_of(parse_polynomial("X - 3")) < 0  # alpha < 3


def test_cbrt2_power_coordinates():
    m = parse_polynomial("X^3 - 2")
    assert RatPoly({0: 1}).mod(m) == RatPoly({0: 1})
    assert RatPoly({3: 1}).mod(m) == RatPoly({0: 2})  # alpha^3 = 2
    assert RatPoly({4: 1}).mod(m) == RatPoly({1: 2})  # alpha^4 = 2 alpha
    assert RatPoly({6: 1}).mod(m) == RatPoly({0: 4})  # alpha^6 = 4


def test_invalid_intervals_rejected():
    m = parse_polynomial("X^2 - 2")
    with pytest.raises(ValueError):
        AlgebraicNumber(m, F(2), F(3))          # no sign change
    with pytest.raises(ValueError):
        AlgebraicNumber(m, F(2), F(1))          # empty
    with pytest.raises(ValueError):
        AlgebraicNumber(parse_polynomial("2X^2 - 1"), F(0), F(1))  # not monic
    with pytest.raises(ValueError):
        AlgebraicNumber(parse_polynomial("X - 2"), F(1), F(3))     # degree 1


def per_term_range(reduced, lo, hi):
    """Reference: bound each term by the endpoint its sign favours."""
    lo_b = hi_b = F(0)
    for deg, coeff in reduced.terms.items():
        if coeff > 0:
            lo_b += coeff * lo**deg
            hi_b += coeff * hi**deg
        else:
            lo_b += coeff * hi**deg
            hi_b += coeff * lo**deg
    return lo_b, hi_b


coeffs = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=24)
endpoints = st.fractions(min_value=F(0), max_value=F(5), max_denominator=64)


@given(st.dictionaries(st.integers(0, 6), coeffs, max_size=6), endpoints, endpoints)
def test_range_of_equals_the_per_term_bounds(terms, a, b):
    alpha = AlgebraicNumber(parse_polynomial("X^2 - 2"), F(1), F(2))
    # _range_of reads only the interval, which need not isolate a root here
    alpha._lo, alpha._hi = min(a, b), max(a, b)
    reduced = RatPoly(terms)
    assert alpha._range_of(reduced) == per_term_range(reduced, alpha._lo, alpha._hi)


def test_interval_refinement_shrinks():
    alpha = AlgebraicNumber(parse_polynomial("X^2 - 2"), F(1), F(2))
    lo0, hi0 = alpha.interval
    alpha.refine()
    lo1, hi1 = alpha.interval
    assert hi1 - lo1 == (hi0 - lo0) / 2
    assert lo1 <= hi1


FREE = "atom count {0} equals the degree: the monoid is free on {0} generators (unique factorization, elasticity 1)"
PERSIST = (
    "atoms persist beyond the degree (exponents [0, 1, 2, 3, 4, 5, 6]): evidence that the "
    "monoid is not finitely generated, hence of infinite elasticity"
)
FORMULA_PINS = [
    # (minimal polynomial, isolating interval, full FormulaResult, census nodes), budget 6
    ("X^3 - 3X^2 + X - 2", (F(23, 8), F(3)), FormulaResult(
        "value", F(5, 2), "atoms are exactly the powers 0..3; decomposability of power 4 propagates upward",
        (0, 1, 2, 3), (4, 5, 6)), 20),
    ("X^3 - 2X^2 + X - 1", (F(7, 4), F(15, 8)), FormulaResult(
        "value", F(3, 2), "atoms are exactly the powers 0..3; decomposability of power 4 propagates upward",
        (0, 1, 2, 3), (4, 5, 6)), 14),
    ("X^3 - 2", (F(1), F(2)), FormulaResult(
        "inapplicable", None, FREE.format(3), (0, 1, 2), (3, 4, 5, 6)), 10),
    ("X^2 - 2", (F(1), F(2)), FormulaResult(
        "inapplicable", None, FREE.format(2), (0, 1), (2, 3, 4, 5, 6)), 15),
    ("X^2 - 3X + 1", (F(5, 2), F(3)), FormulaResult(
        "inapplicable", None, PERSIST, (0, 1, 2, 3, 4, 5, 6), ()), 2009),
    ("X^2 - 3X + 1", (F(1, 4), F(1, 2)), FormulaResult(
        "inapplicable", None, "root below 1: zero is a limit point, the monoid is not finitely "
        "generated and has infinite elasticity", (), ()), 0),
    ("X^3 - X - 1", (F(1), F(3, 2)), FormulaResult(
        "inapplicable", None, FREE.format(3), (0, 1, 2), (3, 4, 5, 6)), 10),
    ("X^4 - 2", (F(1), F(3, 2)), FormulaResult(
        "inapplicable", None, FREE.format(4), (0, 1, 2, 3), (4, 5, 6)), 6),
    ("X^2 - X - 1", (F(3, 2), F(2)), FormulaResult(
        "inapplicable", None, FREE.format(2), (0, 1), (2, 3, 4, 5, 6)), 15),
    ("X^3 - 3X^2 + 1", (F(5, 2), F(3)), FormulaResult(
        "inapplicable", None, PERSIST, (0, 1, 2, 3, 4, 5, 6), ()), 232),
    # a non-integral minimal polynomial: the leaf must demand integer coefficients
    ("X^2 - 3/2", (F(1), F(2)), FormulaResult(
        "inapplicable", None, PERSIST, (0, 1, 2, 3, 4, 5, 6), ()), 37),
]


@pytest.mark.parametrize("text, interval, expected, nodes", FORMULA_PINS)
def test_elasticity_formula_results_and_census_nodes_are_pinned(monkeypatch, text, interval, expected, nodes):
    spent = []
    spend = Budget.spend

    def counted(self, amount=1):
        spent.append(amount)
        spend(self, amount)

    monkeypatch.setattr(Budget, "spend", counted)
    assert elasticity_formula(parse_polynomial(text), interval, 6) == expected
    assert len(spent) == nodes


LOWER_BOUND_PINS = {
    # q: exact elasticity of the n-th power for n = 1, 2, 3
    F(3, 2): (F(3, 2), F(3), F(27, 5)),
    F(5, 3): (F(5, 3), F(25, 7), F(125, 9)),
    F(7, 4): (F(7, 4), F(7), F(343, 13)),
}


@pytest.mark.parametrize("q", LOWER_BOUND_PINS)
def test_lower_bound_sequence_is_pinned(q):
    pair = minimal_pair_of_rational(q)
    for n, exact in enumerate(LOWER_BOUND_PINS[q], start=1):
        step = elasticity_lower_bound_sequence(pair, q, n)
        assert step == LowerBoundStep(n, NatPoly({n: q.denominator**n}), q**n, F(q.numerator**n), exact)
