import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cyclofact.polynomials import NatPoly
from cyclofact.semiring import (
    NotInMonoidError,
    OracleBudgetExceeded,
    RationalBase,
    apply_down_move,
    apply_up_move,
    divides,
    down_normal_form,
    enumerate_factorizations,
    enumerate_length_set,
    is_member,
    length_stats,
    max_atom_exponent,
    member_witness,
    up_normal_form,
)

B32 = RationalBase(3, 2)
BASES = [RationalBase(3, 2), RationalBase(5, 3), RationalBase(5, 2), RationalBase(7, 4)]
EXPONENT_BASES = BASES + [RationalBase(7, 5), RationalBase(1001, 1000)]


def max_atom_exponent_loop(base, x):
    """Reference for max_atom_exponent: multiply q^e up one step at a time."""
    x = F(x)
    if x < 1:
        return -1
    num, den = 1, 1
    e = -1
    while num * x.denominator <= x.numerator * den:
        e += 1
        num *= base.a
        den *= base.b
    return e


def brute_force_members(base, bound, max_terms=10):
    """Independent membership oracle: breadth-first atom sums up to a bound.

    Never consults digits or normal forms; pure closure of atom additions.
    """
    atoms = [base.q**i for i in range(max_atom_exponent(base, bound) + 1)]
    seen = {F(0)}
    frontier = [(F(0), 0)]
    while frontier:
        v, n = frontier.pop()
        if n == max_terms:
            continue
        for a in atoms:
            w = v + a
            if w <= bound and w not in seen:
                seen.add(w)
                frontier.append((w, n + 1))
    return seen


class TestMembership:
    def test_examples(self):
        assert member_witness(B32, F(1, 2)) is None
        assert member_witness(B32, F(13, 4)) == NatPoly({2: 1, 0: 1})
        assert member_witness(B32, F(0)) == NatPoly.zero()

    def test_witness_evaluates_back(self):
        for x in (F(3), F(9), F(13, 4), F(243, 32), F(39, 8)):
            w = member_witness(B32, x)
            assert w is not None and w.eval(B32.q) == x

    def test_denominator_needs_a_large_enough_atom(self):
        # 21/8 carries denominator 8, which only an exponent-3 atom could
        # produce, but q^3 = 27/8 exceeds it: not an element.
        assert member_witness(B32, F(21, 8)) is None
        assert F(21, 8) not in brute_force_members(B32, F(3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            member_witness(B32, F(-1))

    def test_agrees_with_brute_force_closure(self):
        bound = F(6)
        members = brute_force_members(B32, bound)
        for num in range(0, bound.numerator * 16 + 1):
            x = F(num, 16)
            assert is_member(B32, x) == (x in members), x

    def test_integer_base_is_plain_naturals(self):
        base = RationalBase(2, 1)
        assert member_witness(base, F(9)) == NatPoly({0: 9})
        assert member_witness(base, F(9, 2)) is None


class TestMaxAtomExponent:
    def test_float_overflow_in_the_base(self):
        # a/b = (10^400+1)/2 is far beyond the largest float.
        base = RationalBase(10**400 + 1, 2)
        for e in range(4):
            for x in (base.q**e, base.q**e - F(1, 10**30), base.q**e + F(1, 10**30), F(10**(400 * e + 1))):
                assert max_atom_exponent(base, x) == max_atom_exponent_loop(base, x), (e, x)

    def test_cancellation_near_one(self):
        # log a - log b rounds to 0 for q = (10^20+1)/10^20, and so does
        # log num - log den at x = q^3; at x = q^1000 it leaves only noise.
        base = RationalBase(10**20 + 1, 10**20)
        assert max_atom_exponent(base, F(1)) == 0
        for e in (3, 1000):
            x = base.q**e
            assert max_atom_exponent(base, x) == e
            assert max_atom_exponent(base, x - F(1, 10**70)) == e - 1

    def test_huge_integer_is_fast(self):
        x = F(random.Random(5).getrandbits(10**5) | 1 << (10**5 - 1))
        start = time.perf_counter()
        e = max_atom_exponent(B32, x)
        elapsed = time.perf_counter() - start
        assert 3**e <= x * 2**e and 3 ** (e + 1) > x * 2 ** (e + 1)
        assert elapsed < 1.0, elapsed


@given(st.sampled_from(EXPONENT_BASES), st.integers(min_value=0, max_value=40), st.sampled_from([-1, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_max_atom_exponent_at_powers(base, e, offset):
    x = base.q**e + F(offset, 10**30)
    assert max_atom_exponent(base, x) == max_atom_exponent_loop(base, x) == e + min(offset, 0)


@given(
    st.sampled_from(EXPONENT_BASES),
    st.fractions(min_value=0, max_value=10**4, max_denominator=10**9),
)
@settings(max_examples=60, deadline=None)
def test_max_atom_exponent_matches_loop(base, x):
    assert max_atom_exponent(base, x) == max_atom_exponent_loop(base, x)


class TestDivides:
    def test_examples(self):
        assert divides(B32, F(1), F(3)) == NatPoly({0: 2})
        assert divides(B32, F(3, 2), F(1)) is None
        # 39/8 - 9/4 = 21/8 is not an element (see membership test above)
        assert divides(B32, F(9, 4), F(39, 8)) is None
        w = divides(B32, F(9, 4), F(11, 2))
        assert w is not None and w.eval(B32.q) == F(13, 4)

    def test_matches_membership_of_difference(self):
        xs = [F(1), F(3, 2), F(2), F(9, 4), F(3), F(13, 4)]
        for x, y in itertools.product(xs, xs):
            w = divides(B32, x, y)
            assert (w is not None) == is_member(B32, y - x) if y >= x else w is None


class TestNormalForms:
    def test_up_examples(self):
        assert up_normal_form(B32, NatPoly({0: 9})) == NatPoly({2: 1, 3: 2})
        assert up_normal_form(B32, NatPoly({1: 2})) == NatPoly({1: 2})
        assert up_normal_form(B32, NatPoly({0: 3})) == NatPoly({1: 2})

    def test_down_examples(self):
        assert down_normal_form(B32, NatPoly({2: 1, 3: 2})) == NatPoly({0: 9})
        assert down_normal_form(B32, NatPoly({0: 1})) == NatPoly({0: 1})
        assert down_normal_form(B32, NatPoly({1: 2})) == NatPoly({0: 3})

    def test_single_moves(self):
        z = apply_up_move(B32, NatPoly({0: 9}), 0)
        assert z == NatPoly({0: 6, 1: 2})
        assert z.eval(B32.q) == 9
        back = apply_down_move(B32, z, 1)
        assert back == NatPoly({0: 9})
        with pytest.raises(ValueError):
            apply_up_move(B32, NatPoly({0: 2}), 0)
        with pytest.raises(ValueError):
            apply_down_move(B32, NatPoly({1: 1}), 1)
        with pytest.raises(ValueError):
            apply_down_move(B32, NatPoly({0: 5}), 0)

    def test_up_normal_form_has_small_coefficients(self):
        for base in BASES:
            z = up_normal_form(base, NatPoly({0: base.a**3}))
            assert all(c < base.a for c in z.terms.values())

    def test_down_normal_form_terminal(self):
        for base in BASES:
            z = down_normal_form(base, NatPoly({0: 11, 4: 7}))
            assert all(c < base.b for d, c in z.terms.items() if d >= 1)


class TestEnumeration:
    def test_examples(self):
        assert set(enumerate_factorizations(B32, F(3))) == {NatPoly({0: 3}), NatPoly({1: 2})}
        assert enumerate_factorizations(B32, F(1)) == [NatPoly({0: 1})]
        zs = set(enumerate_factorizations(B32, F(9)))
        assert NatPoly({0: 9}) in zs and NatPoly({2: 1, 3: 2}) in zs
        assert len(zs) == 8

    def test_zero_and_nonmembers(self):
        assert enumerate_factorizations(B32, F(0)) == [NatPoly.zero()]
        assert enumerate_factorizations(B32, F(1, 2)) == []
        assert enumerate_factorizations(B32, F(7, 8)) == []

    def test_every_enumerated_evaluates_to_x(self):
        for x in (F(3), F(9), F(13, 4), F(39, 8)):
            for z in enumerate_factorizations(B32, x):
                assert z.eval(B32.q) == x

    def test_budget(self):
        with pytest.raises(OracleBudgetExceeded):
            enumerate_factorizations(B32, F(27), cap=5)

    def test_exact_state_counts(self):
        # (base, x, states of the length-set DP, states of the full search):
        # each oracle succeeds with exactly that budget and fails with one less.
        for base, x, dp_states, search_states in (
            (B32, F(9), 30, 36),
            (B32, F(81), 632, 40072),
            (B32, F(339, 32), 25, 21),
            (RationalBase(5, 3), F(125), 443, 10626),
        ):
            for oracle, states in ((enumerate_length_set, dp_states), (enumerate_factorizations, search_states)):
                oracle(base, x, cap=states)
                with pytest.raises(OracleBudgetExceeded):
                    oracle(base, x, cap=states - 1)

    def test_length_set_matches_materialized(self):
        for base in BASES:
            for k in (1, 2):
                x = F(base.a**k)
                lengths = {z.length() for z in enumerate_factorizations(base, x)}
                assert enumerate_length_set(base, x) == lengths


class TestLengthStats:
    def test_examples(self):
        st9 = length_stats(B32, F(9), want_full_set=True)
        assert (st9.min_len, st9.max_len, st9.elasticity) == (3, 9, F(3))
        assert st9.length_set == (3, 4, 5, 6, 7, 8, 9)
        st3 = length_stats(B32, F(3), want_full_set=True)
        assert (st3.min_len, st3.max_len, st3.elasticity) == (2, 3, F(3, 2))
        atom = length_stats(B32, F(243, 32), want_full_set=True)
        assert (atom.min_len, atom.max_len, atom.elasticity) == (1, 1, F(1))
        assert atom.length_set == (1,)

    def test_non_member_raises(self):
        with pytest.raises(NotInMonoidError):
            length_stats(B32, F(1, 2))
        with pytest.raises(NotInMonoidError):
            length_stats(B32, F(0))

    def test_integer_base_short_circuits(self):
        stats = length_stats(RationalBase(2, 1), F(9), want_full_set=True)
        assert (stats.min_len, stats.max_len, stats.elasticity) == (9, 9, F(1))
        assert stats.length_set == (9,)

    def test_supplied_presentation_skips_membership(self):
        direct = length_stats(B32, F(9))
        via_witness = length_stats(B32, F(9), witness=NatPoly({0: 9}))
        assert direct == via_witness
        with pytest.raises(ValueError):
            length_stats(B32, F(9), witness=NatPoly({0: 8}))


class TestMoveProperties:
    def test_value_preserved_and_length_arithmetic(self):
        rng = random.Random(20260810)
        for base in BASES:
            z = NatPoly({0: base.a**2 + 3, 1: base.b + 1})
            value = z.eval(base.q)
            for _ in range(300):
                ups = [j for j, c in z.terms.items() if c >= base.a]
                downs = [j for j, c in z.terms.items() if c >= base.b and j >= 1]
                moves = [("u", j) for j in ups] + [("d", j) for j in downs]
                if not moves:
                    break
                kind, j = rng.choice(moves)
                before = z.length()
                z = apply_up_move(base, z, j) if kind == "u" else apply_down_move(base, z, j)
                assert z.eval(base.q) == value
                delta = z.length() - before
                assert delta == (base.b - base.a if kind == "u" else base.a - base.b)

    def test_lengths_congruent_mod_gap(self):
        for base in BASES:
            for k in (1, 2):
                lengths = sorted(enumerate_length_set(base, F(base.a**k)))
                gap = base.a - base.b
                assert all((l - lengths[0]) % gap == 0 for l in lengths)

    def test_idempotence(self):
        for base in BASES:
            z = NatPoly({0: 2 * base.a + 1, 2: base.b})
            up = up_normal_form(base, z)
            down = down_normal_form(base, z)
            assert up_normal_form(base, up) == up
            assert down_normal_form(base, down) == down

    def test_confluence_over_full_fiber(self):
        # every factorization of x must up-normalize (and down-normalize)
        # to the same form
        for base in BASES:
            x = F(base.a**2)
            zs = enumerate_factorizations(base, x)
            ups = {up_normal_form(base, z) for z in zs}
            downs = {down_normal_form(base, z) for z in zs}
            assert len(ups) == 1 and len(downs) == 1

    def test_oracle_equivalence_with_normal_forms(self):
        for base in BASES:
            for k in (1, 2, 3):
                x = F(base.a**k)
                lengths = enumerate_length_set(base, x)
                stats = length_stats(base, x)
                assert stats.min_len == min(lengths)
                assert stats.max_len == max(lengths)
                assert stats.min_len <= base.b**k
                assert stats.max_len == base.a**k

    def test_length_set_gaps_observation(self):
        # Observation, not a theorem: on every instance tried here the
        # length set is the full arithmetic progression with step a-b.
        # A failure would be a recorded gap, which would be news.
        for base in BASES:
            gap = base.a - base.b
            for x in (F(base.a), F(base.a**2), F(base.a**3), F(base.a**2 + 1)):
                lengths = sorted(enumerate_length_set(base, x))
                progression = list(range(lengths[0], lengths[-1] + 1, gap))
                assert lengths == progression, f"gap observed in L({x}) at q={base}: {lengths}"


@given(
    st.sampled_from(BASES),
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=12),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_normal_forms_preserve_value(base, terms):
    z = NatPoly(terms)
    v = z.eval(base.q)
    assert up_normal_form(base, z).eval(base.q) == v
    assert down_normal_form(base, z).eval(base.q) == v


@given(
    st.sampled_from(BASES),
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=9),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=40, deadline=None)
def test_membership_witness_is_up_normal_form(base, terms):
    z = NatPoly(terms)
    x = z.eval(base.q)
    w = member_witness(base, x)
    assert w is not None
    assert w == up_normal_form(base, z)


@given(
    st.sampled_from(BASES),
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=6),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_length_set_matches_enumerated_lengths(base, terms):
    x = NatPoly(terms).eval(base.q)
    assert enumerate_length_set(base, x) == {z.length() for z in enumerate_factorizations(base, x)}
