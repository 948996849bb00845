import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cyclofact.polynomials import (
    NatPoly,
    RatPoly,
    ZeroPolynomialError,
    parse_polynomial,
)
from cyclofact.rationals import format_rat, parse_rat, simplest_in_open


def test_eval_examples():
    assert RatPoly().eval(F(3, 2)) == 0
    assert NatPoly({2: 1, 3: 2}).eval(F(3, 2)) == 9
    assert NatPoly({1: 2}).eval(F(3, 2)) == 3


def test_order_examples():
    assert NatPoly({2: 1, 3: 2}).order() == 2
    assert NatPoly({1: 3}).order() == 1
    assert NatPoly({0: 2}).order() == 0
    with pytest.raises(ZeroPolynomialError):
        RatPoly().order()


def test_natpoly_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        NatPoly({1: -2})


def test_zero_polynomial_is_distinct_state():
    z = NatPoly.zero()
    assert z.is_zero
    assert not NatPoly({0: 1}).is_zero
    assert z.length() == 0


sparse_int_polys = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-30, max_value=30).filter(bool),
    max_size=6,
).map(RatPoly)

rationals = st.fractions(
    min_value=F(-8), max_value=F(8), max_denominator=12
)


@given(sparse_int_polys, sparse_int_polys, rationals)
def test_eval_is_semiring_homomorphism(f, g, x):
    assert (f + g).eval(x) == f.eval(x) + g.eval(x)
    assert (f * g).eval(x) == f.eval(x) * g.eval(x)


def eval_reference(f, x) -> F:
    """_SparsePoly.eval as written before it merged by halves: a term-by-term sum."""
    x = F(x)
    total = F(0)
    for deg, coeff in f.terms.items():
        total += coeff * x**deg
    return total


big_coefficients = st.integers(min_value=-(10**300), max_value=10**300).filter(bool)
sparse_degrees = st.integers(min_value=0, max_value=400)
wide_polys = st.one_of(
    st.dictionaries(sparse_degrees, big_coefficients, max_size=9).map(RatPoly),
    st.dictionaries(sparse_degrees, big_coefficients.map(abs), max_size=9).map(NatPoly),
    st.dictionaries(
        sparse_degrees,
        st.fractions(max_denominator=10**200).filter(bool) | big_coefficients.map(F),
        max_size=9,
    ).map(RatPoly),
)
wide_points = st.builds(
    F, st.integers(min_value=-(2**200), max_value=2**200), st.integers(min_value=1, max_value=2**200)
)


@given(wide_polys, wide_points)
@settings(max_examples=300, deadline=None)
def test_eval_matches_the_term_by_term_sum(f, x):
    value = f.eval(x)
    assert value == eval_reference(f, x)
    assert type(value) is F


def test_eval_edge_cases_match_the_term_by_term_sum():
    geometric = NatPoly({j: 998 * 1000**j for j in range(120)})
    for f in (NatPoly(), RatPoly(), NatPoly({0: 7}), RatPoly({250: -3}),
              RatPoly({9: F(5, 3)}), geometric, RatPoly({0: 1, 1: -1, 2: 1})):
        for x in (F(0), F(1), F(-1), F(999, 1000), F(-7, 3), 2, F(-(2**200) + 1, 2**199 + 3)):
            value = f.eval(x)
            assert value == eval_reference(f, x) and type(value) is F


@given(sparse_int_polys)
def test_order_bounds_support(f):
    if f.is_zero:
        return
    o = f.order()
    assert all(o <= d for d in f.terms)
    # X^order divides exactly: shifting down by the order leaves a nonzero
    # constant term.
    shifted = RatPoly({d - o: c for d, c in f.terms.items()})
    assert shifted.coeff(0) != 0


@given(rationals, rationals)
def test_rationals_always_reduced(x, y):
    import math

    z = x * y + x - y
    assert math.gcd(abs(z.numerator), z.denominator) == 1
    assert z.denominator >= 1


def test_rat_serialization_round_trip():
    assert format_rat(F(3, 2)) == "3/2"
    assert format_rat(F(9)) == "9"
    assert format_rat(F(-5, 3)) == "-5/3"
    for s in ("3/2", "9", "-5/3", "0"):
        assert format_rat(parse_rat(s)) == s
    with pytest.raises(ValueError):
        parse_rat("3/-2")


def test_terms_are_stored_and_read_by_degree():
    degrees = [0, 1, 3, 4, 7, 12, 20]
    shuffled = random.Random(5).sample(degrees, len(degrees))
    mapping = {d: d + 1 for d in shuffled}
    pairs = [(d, c) for d in reversed(degrees) for c in (1, d)]  # each degree twice
    for cls in (NatPoly, RatPoly):
        for p in (cls(mapping), cls(pairs)):
            assert p == cls(mapping)
            assert list(p.terms) == degrees
            assert [d for d, _ in p.items()] == degrees
            assert [d for d, _ in p.to_pairs()] == degrees
            assert (p.order(), p.degree()) == (0, 20)
        assert repr(cls({3: 2, 0: 1, 1: 1})) == f"{cls.__name__}(1 + X + 2*X^3)"
    cancelled = RatPoly([(9, 1), (2, -1), (9, -1), (2, 1), (5, F(1, 2)), (2, 3)])
    assert list(cancelled.terms) == [2, 5] and cancelled.degree() == 5


def test_constructor_contract():
    # A mapping: stored by ascending degree, zeros dropped, the caller's map untouched.
    mapping = {7: 2, 0: 0, 3: 1, 1: 5}
    assert list(NatPoly(mapping).items()) == [(1, 5), (3, 1), (7, 2)]
    assert mapping == {7: 2, 0: 0, 3: 1, 1: 5} and list(mapping) == [7, 0, 3, 1]
    assert list(NatPoly({0: 1, 4: 0, 9: 3}).items()) == [(0, 1), (9, 3)]
    assert NatPoly({0: 0, 2: 0}).is_zero and RatPoly({5: 0, 1: F(0)}).is_zero
    rat_mapping = {4: F(0), 2: 3, 0: F(-1, 2), 1: 0}
    rat = RatPoly(rat_mapping)
    assert list(rat.items()) == [(0, F(-1, 2)), (2, 3)]
    assert all(type(c) is F for _, c in rat.items()) and type(rat_mapping[2]) is int
    # The lowest degree is checked before zeros go: a negative one raises even at coefficient 0.
    for cls in (NatPoly, RatPoly):
        for terms in ({-1: 0}, {3: 1, -2: 0, -1: 4}, {-4: F(0), 0: 1}, [(2, 1), (-3, 0)]):
            lowest = min(dict(terms))
            with pytest.raises(ValueError, match=f"^negative degree {lowest}$"):
                cls(terms)
    # NatPoly names the lowest degree with a negative coefficient.
    with pytest.raises(ValueError, match="^negative coefficient -3 at degree 2$"):
        NatPoly({9: -1, 0: 4, 5: -7, 2: -3})
    with pytest.raises(ValueError, match="^negative coefficient -1 at degree 4$"):
        NatPoly([(4, 2), (6, 1), (4, -3)])
    # Pairs may repeat a degree: they merge, and a sum of zero drops the degree.
    assert list(NatPoly([(3, 1), (0, 2), (3, 4), (0, 1)]).items()) == [(0, 3), (3, 5)]
    assert list((NatPoly({0: 1, 2: 1}) + NatPoly({2: 3, 5: 1})).items()) == [(0, 1), (2, 4), (5, 1)]
    assert list((RatPoly({1: 2, 3: 1}) - RatPoly({1: 2})).items()) == [(3, 1)]
    assert list(parse_polynomial("X^2 + 3 - X^2 + 2X + 1/2").items()) == [(0, F(7, 2)), (1, 2)]
    assert parse_polynomial("X - X").is_zero


def test_poly_pair_serialization():
    p = NatPoly({3: 2, 0: 1})
    assert p.to_pairs() == [(0, 1), (3, 2)]
    assert NatPoly(p.to_pairs()) == p


@given(st.fractions(min_value=F(0), max_value=F(50), max_denominator=40),
       st.fractions(min_value=F(1, 40), max_value=F(3), max_denominator=40))
def test_simplest_in_open_is_minimal(lo, width):
    hi = lo + width
    b = simplest_in_open(lo, hi)
    assert lo < b < hi
    # no rational with a smaller denominator lies in the interval
    for den in range(1, b.denominator):
        lo_num = lo.numerator * den // lo.denominator
        for num in range(lo_num, (hi.numerator * den) // hi.denominator + 2):
            assert not lo < F(num, den) < hi


def test_parse_polynomial():
    p = parse_polynomial("X^2 - 3X + 1")
    assert p.terms == {2: F(1), 1: F(-3), 0: F(1)}
    assert parse_polynomial("X - 3/2").terms == {1: F(1), 0: F(-3, 2)}
    assert parse_polynomial("X - 3 / 02").terms == {1: F(1), 0: F(-3, 2)}
    assert parse_polynomial("2*X^3 + X").terms == {3: F(2), 1: F(1)}
    assert parse_polynomial("5").terms == {0: F(5)}
    with pytest.raises(ValueError):
        parse_polynomial("X^2 + + 3")
    with pytest.raises(ValueError):
        parse_polynomial("")
    for zero in ("1/0", "1 / 00"):
        with pytest.raises(ValueError, match=f"term '{zero}'"):
            parse_polynomial(f"X - {zero}")


def test_ratpoly_mod():
    m = parse_polynomial("X^2 - 3X + 1")
    r = RatPoly({3: F(1)}).mod(m)  # X^3 = (X+3)m + 8X - 3
    assert r.terms == {1: F(8), 0: F(-3)}
    assert RatPoly({2: F(1), 1: F(-3), 0: F(1)}).mod(m).is_zero


def ratpoly_mod_reference(f: RatPoly, divisor: RatPoly) -> RatPoly:
    """RatPoly.mod as written before RatPoly shared the sparse core."""
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial modulo zero")
    ddeg = divisor.degree()
    lead = divisor.coeff(ddeg)
    rem = dict(f.terms)

    def top() -> int | None:
        live = [d for d, c in rem.items() if c]
        return max(live) if live else None

    t = top()
    while t is not None and t >= ddeg:
        factor = rem[t] / lead
        for d, c in divisor.terms.items():
            nd = t - ddeg + d
            rem[nd] = rem.get(nd, F(0)) - factor * c
        rem.pop(t, None)
        t = top()
    return RatPoly(rem)


sparse_rat_polys = st.dictionaries(
    st.integers(min_value=0, max_value=10),
    st.fractions(min_value=F(-20), max_value=F(20), max_denominator=9),
    max_size=6,
).map(RatPoly)


@given(sparse_rat_polys, sparse_rat_polys)
def test_ratpoly_mod_matches_reference(f, divisor):
    if divisor.is_zero:
        with pytest.raises(ZeroDivisionError):
            f.mod(divisor)
        return
    r = f.mod(divisor)
    assert r == ratpoly_mod_reference(f, divisor)
    assert r.is_zero or r.degree() < divisor.degree()
    assert all(type(c) is F for c in r.terms.values())


def test_ratpoly_coefficients_read_back_as_fractions():
    p = RatPoly({0: 3, 2: F(1, 2), 5: 0})
    assert p.terms == {0: F(3), 2: F(1, 2)}
    assert all(type(c) is F for c in p.terms.values())
    assert type(p.coeff(0)) is F and type(p.coeff(1)) is F
    assert p.coeff(1) == 0
    doubled = RatPoly({d: 2 * c for d, c in p.terms.items()})
    for q in (p + p, p - RatPoly({0: 1}), p * p, RatPoly() - p, doubled, RatPoly(NatPoly({1: 4}).terms)):
        assert all(type(c) is F for c in q.terms.values())
    assert all(type(c) is F for c in parse_polynomial("X^2 - 3X + 1").terms.values())
    assert RatPoly([[0, F(1, 2)], [1, 3]]) == RatPoly({0: F(1, 2), 1: 3})
    assert (p - p).is_zero


def test_equal_coefficient_maps_compare_equal_across_classes():
    nat = NatPoly({0: 1, 2: 3})
    rat = RatPoly(nat.terms)
    assert rat == nat
    assert hash(rat) == hash(nat)
    assert len({nat, rat}) == 1
    assert rat != RatPoly({0: 1, 2: F(3, 2)})
    assert nat != nat.terms


def test_arithmetic_builds_the_left_operands_class():
    nat, rat = NatPoly({1: 2}), RatPoly({0: -1})
    assert type(nat + nat) is NatPoly and type(nat * nat) is NatPoly
    assert type(rat + nat) is RatPoly and type(rat - nat) is RatPoly
    assert NatPoly({0: 3, 1: 1}) - NatPoly({0: 1}) == NatPoly({0: 2, 1: 1})
    with pytest.raises(ValueError):
        NatPoly() - nat  # a NatPoly cannot hold negative coefficients
    assert RatPoly() - rat == RatPoly({0: 1})
