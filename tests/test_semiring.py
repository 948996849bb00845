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
    _SPLIT_LEVELS,
    down_normal_form,
    enumerate_length_set,
    iter_factorizations,
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


def apply_up_move(base, z, j):
    """Reference up move at degree j: a copies of q^j become b copies of q^(j+1)."""
    if base.is_integer:
        raise ValueError("operation requires a non-integer base q = a/b with b >= 2")
    terms = z.terms
    if terms.get(j, 0) < base.a:
        raise ValueError(f"up move needs at least a={base.a} copies at degree {j}")
    terms[j] -= base.a
    if not terms[j]:
        del terms[j]
    terms[j + 1] = terms.get(j + 1, 0) + base.b
    return NatPoly(terms)


def apply_down_move(base, z, j):
    """Reference down move at degree j >= 1: b copies of q^j become a copies of q^(j-1)."""
    if base.is_integer:
        raise ValueError("operation requires a non-integer base q = a/b with b >= 2")
    if j < 1:
        raise ValueError("down moves only apply at degree >= 1")
    terms = z.terms
    if terms.get(j, 0) < base.b:
        raise ValueError(f"down move needs at least b={base.b} copies at degree {j}")
    terms[j] -= base.b
    if not terms[j]:
        del terms[j]
    terms[j - 1] = terms.get(j - 1, 0) + base.a
    return NatPoly(terms)


def _ladder(base, x):
    """(t_0, top) of the weighted digit ladder that the enumeration
    references walk, or None if x < 1 or t_0 = x b^top is fractional."""
    top = max_atom_exponent(base, x)
    if top < 0:
        return None
    weight = base.b**top
    if weight % x.denominator:
        return None
    return x.numerator * (weight // x.denominator), top


def _rungs(a, b, levels):
    """(w, w^-1 mod a) for the weights w = b^(levels-1), ..., b, 1 of a ladder."""
    weight, inverse = b ** (levels - 1), pow(b, 1 - levels, a)
    for _ in range(levels):
        yield weight, inverse
        weight //= b
        inverse = inverse * b % a


def _steps(a, t, weight, inverse):
    """(digit, next residual) for every digit t admits below the top, smallest first."""
    return ((n, (t - n * weight) // a) for n in range(t % a * inverse % a, t // weight + 1, a))


class Budget:
    """A count of search states; spending past it raises OracleBudgetExceeded."""

    __slots__ = ("left",)

    def __init__(self, cap: int):
        self.left = cap

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise OracleBudgetExceeded()


def enumerate_length_set_dp(base, x, cap=10**6):
    """Reference for the length set: the exhaustive digit dynamic program.

    Independent of the normal forms and of iter_factorizations: walks this
    module's weighted ladder (t_0 = x b^top, level i weighted b^(top-i)),
    collects the distinct residuals of each level, then the digit sums
    reachable from each one, level by level from the top, instead of
    materializing every factorization.  Each residual's sums are one integer
    bitset, so a digit n shifts a child's set by n and the sets of its digits
    merge by bitwise or.  A residual costs one state, plus one per digit it
    admits below the top.
    """
    x = F(x)
    if x <= 0 or base.is_integer:  # at most one factorization
        return {NatPoly(z).length() for z in iter_factorizations(base, x, cap)}
    ladder = _ladder(base, x)
    if ladder is None:
        return set()
    a = base.a
    t0, top = ladder
    rungs = list(_rungs(a, base.b, top + 1))[:-1]
    budget = Budget(cap)
    levels = [{t0}]
    for rung in rungs:
        below = set()
        for t in levels[-1]:
            budget.spend()
            for _, child in _steps(a, t, *rung):
                budget.spend()
                below.add(child)
        levels.append(below)
    budget.spend(len(levels[-1]))
    # lengths[t]: bit l is set when some digit string from t to the top sums to l.
    lengths = {t: 1 << t for t in levels.pop()}
    for rung in reversed(rungs):
        below, lengths = lengths, {}
        for t in levels.pop():
            mask = 0
            for n, child in _steps(a, t, *rung):
                mask |= below[child] << n
            lengths[t] = mask
    return {l for l, bit in enumerate(reversed(bin(lengths[t0]))) if bit == "1"}


def _zero_last(steps):
    """The steps in print order: the digit 0, first when it is admitted, moved last."""
    zero = []
    for step in steps:
        if step[0]:
            yield step
        else:
            zero.append(step)
    yield from zero


def iter_factorizations_dfs(base, x, budget):
    """Reference for iter_factorizations: depth-first down this module's
    weighted digit ladder with an explicit stack, nonzero digits ascending
    and then 0 at each level (print order: the pair lists ascend), spending
    one state of the Budget per search-tree node (digit-string prefix, root
    included) as it visits it, so it can yield some factorizations before
    it runs out.  Each is a tuple of its (degree, count) pairs with counts
    >= 1, as the enumeration yields them."""
    x = F(x)
    if x < 0:
        raise ValueError("monoid elements are nonnegative")
    if x == 0:
        yield ()
        return
    if base.is_integer:
        if x.denominator == 1:
            yield ((0, x.numerator),)
        return
    ladder = _ladder(base, x)
    if ladder is None:
        return
    a = base.a
    t0, top = ladder
    rungs = list(_rungs(a, base.b, top + 1))
    # stack[i] holds the untried (digit at level i-1, residual) nodes of level
    # i; path[i] is the digit taken at level i on the way to the current node.
    stack = [iter([(0, t0)])]
    path = [0] * top
    while stack:
        level = len(stack) - 1
        for n, t in stack[-1]:
            if level:
                path[level - 1] = n
            budget.spend()
            if level == top:
                yield tuple((i, n) for i, n in [*enumerate(path), (top, t)] if n)
            else:
                stack.append(_zero_last(_steps(a, t, *rungs[level])))
                break
        else:
            stack.pop()


def member_witness_walk(base, x):
    """Reference for member_witness: the forced digit of one level at a time.

    t_0 = x b^top, and level i (weight b^(top-i)) takes the digit
    n = t_i / b^(top-i) mod a and leaves t_(i+1) = (t_i - n b^(top-i)) / a;
    x is a member iff no residual goes negative and the last one is 0.
    """
    x = F(x)
    if x == 0:
        return NatPoly.zero()
    a, b = base.a, base.b
    top = max_atom_exponent(base, x)
    if top < 0 or (x * b**top).denominator != 1:
        return None
    t = int(x * b**top)
    digits = {}
    for i in range(top + 1):
        weight = b ** (top - i)
        n = t * pow(weight, -1, a) % a
        t -= n * weight
        if t < 0:
            return None
        t //= a
        if n:
            digits[i] = n
    return NatPoly(digits) if t == 0 else None


def up_normal_form_walk(base, z):
    """Reference for up_normal_form on b >= 2: the up moves of one degree at a
    time, in increasing order, batched into a divmod."""
    a, b = base.a, base.b
    terms = z.terms
    if not terms:
        return NatPoly.zero()
    j = min(terms)
    top = max(terms)
    while j <= top:
        c = terms.get(j, 0)
        if c >= a:
            moves, rest = divmod(c, a)
            if rest:
                terms[j] = rest
            else:
                del terms[j]
            terms[j + 1] = terms.get(j + 1, 0) + moves * b
            top = max(top, j + 1)
        j += 1
    return NatPoly(terms)


def down_normal_form_walk(base, z):
    """Reference for down_normal_form: the down moves of one degree at a time,
    from the top degree down to degree 1, batched into a divmod."""
    a, b = base.a, base.b
    terms = z.terms
    if not terms:
        return NatPoly.zero()
    for j in range(max(terms), 0, -1):
        c = terms.get(j, 0)
        if c >= b:
            moves, rest = divmod(c, b)
            if rest:
                terms[j] = rest
            else:
                del terms[j]
            terms[j - 1] = terms.get(j - 1, 0) + moves * a
    return NatPoly(terms)


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
        assert member_witness(RationalBase(2, 1), F(0)) == NatPoly.zero()

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
        # Denominators 3, 6, 9, 12 and 15 share the factor 3 with a.
        bound = F(6)
        members = brute_force_members(B32, bound)
        for den in range(1, 17):
            for num in range(0, bound.numerator * den + 1):
                x = F(num, den)
                assert (member_witness(B32, x) is not None) == (x in members), x

    def test_integer_base_is_plain_naturals(self):
        base = RationalBase(2, 1)
        assert member_witness(base, F(9)) == NatPoly({0: 9})
        assert member_witness(base, F(9, 2)) is None


# 11/10 has a composite b: a value n/b^k reduces to a denominator that is
# not a power of b, such as 5 * 10^29.
DC_BASES = [
    RationalBase(3, 2),
    RationalBase(5, 3),
    RationalBase(7, 5),
    RationalBase(8, 5),
    RationalBase(5, 2),
    RationalBase(11, 10),
]


@st.composite
def ladders(draw):
    """(base, x, digits) with a level count drawn around the split or up to 300.

    Either x is the member with the drawn sub-a digits below a nonzero digit
    at levels-1 (digits is then its up normal form), or x = n/b^(levels-1)
    with q^(levels-1) <= x < q^levels, so exactly `levels` levels, a member
    or a non-member whose denominator divides a power of b (digits is None).
    """
    base = draw(st.sampled_from(DC_BASES))
    a, b = base.a, base.b
    levels = draw(
        st.one_of(
            st.integers(_SPLIT_LEVELS - 2, _SPLIT_LEVELS + 2),
            st.integers(2 * _SPLIT_LEVELS - 1, 2 * _SPLIT_LEVELS + 3),
            st.integers(1, 300),
        )
    )
    if draw(st.booleans()):
        low = draw(st.integers(0, a ** (levels - 1) - 1))
        digits = {i: low // a**i % a for i in range(levels - 1)}
        digits[levels - 1] = draw(st.integers(1, a - 1))
        z = NatPoly(digits)
        return base, z.eval(base.q), z
    n = draw(st.integers(a ** (levels - 1), -(-(a**levels) // b) - 1))
    return base, F(n, b ** (levels - 1)), None


@given(ladders())
@settings(max_examples=400, deadline=None)
def test_member_witness_matches_the_level_walk(case):
    base, x, digits = case
    witness = member_witness(base, x)
    assert witness == member_witness_walk(base, x)
    if digits is not None:
        assert witness == digits


@st.composite
def presentations(draw, bases):
    """(base, z): z's top degree is drawn around the split or up to 300, and
    its coefficients run from 1 to well above a and b."""
    base = draw(st.sampled_from(bases))
    top = draw(
        st.one_of(
            st.integers(_SPLIT_LEVELS - 1, _SPLIT_LEVELS + 1),
            st.integers(2 * _SPLIT_LEVELS - 1, 2 * _SPLIT_LEVELS + 1),
            st.integers(0, 300),
        )
    )
    coefficients = st.integers(1, 3 * base.a + 4)
    terms = draw(st.dictionaries(st.integers(0, top), coefficients, max_size=40))
    terms[top] = draw(coefficients)
    return base, NatPoly(terms)


@st.composite
def integers_near_splits(draw):
    """(base, n): n near a^32, a^64 or a^300, or near q^L for a level count
    L around the split."""
    base = draw(st.sampled_from(DC_BASES))
    a, b = base.a, base.b
    levels = draw(st.sampled_from([_SPLIT_LEVELS - 1, _SPLIT_LEVELS, _SPLIT_LEVELS + 1, 2 * _SPLIT_LEVELS + 1]))
    centre = draw(st.sampled_from([a**32, a**64, a**300, -(-(a**levels) // b**levels)]))
    offset = draw(st.one_of(st.integers(-min(a**3, centre), a**3), st.integers(-(centre // 2), centre // 2)))
    return base, centre + offset


@given(presentations(DC_BASES + [RationalBase(2, 1), RationalBase(3, 1)]))
@settings(max_examples=200, deadline=None)
def test_down_normal_form_matches_the_degree_walk(case):
    base, z = case
    assert down_normal_form(base, z) == down_normal_form_walk(base, z)


@given(presentations(DC_BASES), st.booleans())
@settings(max_examples=200, deadline=None)
def test_up_normal_form_matches_the_degree_walk(case, integral):
    base, z = case
    if integral:
        # b^top z has an integer value, whose up form takes the carry pass.
        z = NatPoly({d: c * base.b ** z.degree() for d, c in z.items()})
    assert up_normal_form(base, z) == up_normal_form_walk(base, z)


@given(integers_near_splits())
@settings(max_examples=200, deadline=None)
def test_integer_witness_matches_the_level_walk(case):
    base, n = case
    assert member_witness(base, F(n)) == member_witness_walk(base, n)


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

    def test_budget_message_names_digit_counts(self):
        # 10^20000 is past CPython's default int-to-str limit of 4300 digits,
        # so a message that printed x would raise ValueError instead.
        with pytest.raises(OracleBudgetExceeded) as info:
            max_atom_exponent(RationalBase(1000, 999), F(10**20000))
        message = str(info.value)
        assert "20001 numerator and 1 denominator digits" in message
        assert len(message) < 300


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
        assert set(iter_factorizations(B32, F(3))) == {((0, 3),), ((1, 2),)}
        assert list(iter_factorizations(B32, F(1))) == [((0, 1),)]
        zs = set(iter_factorizations(B32, F(9)))
        assert ((0, 9),) in zs and ((2, 1), (3, 2)) in zs
        assert len(zs) == 8

    def test_zero_and_nonmembers(self):
        assert [NatPoly(z) for z in iter_factorizations(B32, F(0))] == [NatPoly.zero()]
        assert list(iter_factorizations(B32, F(1, 2))) == []
        assert list(iter_factorizations(B32, F(7, 8))) == []

    def test_every_enumerated_evaluates_to_x(self):
        for x in (F(3), F(9), F(13, 4), F(39, 8)):
            for z in iter_factorizations(B32, x):
                assert NatPoly(z).eval(B32.q) == x

    def test_budget(self):
        with pytest.raises(OracleBudgetExceeded):
            list(iter_factorizations(B32, F(27), cap=5))

    def test_exact_state_counts(self):
        # (base, x, states of the length-set DP, states of the full search):
        # each oracle succeeds with exactly that budget and fails with one less.
        # x = 1 is below q, so its search is the root alone (top = 0).
        for base, x, dp_states, search_states in (
            (B32, F(1), 1, 1),
            (B32, F(9), 30, 36),
            (B32, F(81), 632, 40072),
            (B32, F(339, 32), 25, 21),
            (RationalBase(5, 3), F(125), 443, 10626),
            (RationalBase(5, 3), F(250, 9), 51, 91),
            (RationalBase(11, 10), F(121, 10), 59, 78),
        ):
            for oracle, states in ((enumerate_length_set_dp, dp_states), (iter_factorizations, search_states)):
                list(oracle(base, x, cap=states))
                with pytest.raises(OracleBudgetExceeded):
                    list(oracle(base, x, cap=states - 1))

    def test_length_set_matches_materialized(self):
        for base in BASES:
            for k in (1, 2):
                x = F(base.a**k)
                lengths = {NatPoly(z).length() for z in iter_factorizations(base, x)}
                assert enumerate_length_set_dp(base, x) == lengths


ENUMERATION_BASES = DC_BASES + [RationalBase(7, 4), RationalBase(2, 1)]
DFS_CAP = 20_000


@st.composite
def enumeration_cases(draw):
    """(base, x): an integer, a value with a power-of-b denominator (a
    member or not), or a fraction that is mostly outside the monoid."""
    base = draw(st.sampled_from(ENUMERATION_BASES))
    a, b = base.a, base.b
    kind = draw(st.sampled_from(("integer", "power of b", "other")))
    if kind == "integer":
        return base, F(draw(st.integers(0, a**3)))
    if kind == "power of b":
        denominator = b ** draw(st.integers(1, 4))
        return base, F(draw(st.integers(1, a**3 * denominator)), denominator)
    return base, F(draw(st.integers(0, 300)), draw(st.integers(2, 60)))


def budget_outcome(factorizations):
    """The list of factorizations, or None when the budget runs out."""
    try:
        return list(factorizations)
    except OracleBudgetExceeded:
        return None


@given(enumeration_cases(), st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_iter_factorizations_matches_the_depth_first_search(case, small_cap):
    # Same factorizations in the same order, and the budget runs out at
    # exactly the same caps: 1, a small one, and the search's node count and
    # one less (or DFS_CAP when the search needs more).
    base, x = case
    budget = Budget(DFS_CAP)
    caps = {1, small_cap, DFS_CAP}
    if budget_outcome(iter_factorizations_dfs(base, x, budget)) is not None:
        nodes = DFS_CAP - budget.left
        caps |= {nodes - 1, nodes}
    for cap in caps:
        expected = budget_outcome(iter_factorizations_dfs(base, x, Budget(cap)))
        assert budget_outcome(iter_factorizations(base, x, cap)) == expected, cap


@given(enumeration_cases())
@settings(max_examples=300, deadline=None)
def test_iter_factorizations_yields_in_print_order(case):
    # The pair lists come out ascending, as factorize --enumerate prints them,
    # each a tuple of (int, int) tuples with strictly ascending degrees and
    # counts >= 1, whose NatPoly holds the same pairs.
    base, x = case
    zs = budget_outcome(iter_factorizations(base, x, DFS_CAP))
    if zs is not None:
        assert zs == sorted(zs)
        for z in zs:
            assert type(z) is tuple
            assert all(type(p) is tuple and len(p) == 2 and all(type(v) is int for v in p) for p in z)
            assert all(d < e for (d, _), (e, _) in zip(z, z[1:]))
            assert all(count >= 1 for _, count in z)
            assert NatPoly(z).to_pairs() == list(z)


class TestLengthStats:
    def test_examples(self):
        st9 = length_stats(B32, F(9))
        assert (st9.min_len, st9.max_len, st9.elasticity) == (3, 9, F(3))
        assert tuple(st9.length_set) == (3, 4, 5, 6, 7, 8, 9)
        st3 = length_stats(B32, F(3))
        assert (st3.min_len, st3.max_len, st3.elasticity) == (2, 3, F(3, 2))
        atom = length_stats(B32, F(243, 32))
        assert (atom.min_len, atom.max_len, atom.elasticity) == (1, 1, F(1))
        assert tuple(atom.length_set) == (1,)

    def test_non_member_raises(self):
        with pytest.raises(NotInMonoidError):
            length_stats(B32, F(1, 2))
        with pytest.raises(NotInMonoidError):
            length_stats(B32, F(0))

    def test_integer_base_short_circuits(self):
        stats = length_stats(RationalBase(2, 1), F(9))
        assert (stats.min_len, stats.max_len, stats.elasticity) == (9, 9, F(1))
        assert tuple(stats.length_set) == (9,)

    @pytest.mark.parametrize("a", [2, 3, 7, 10])
    def test_integer_bases_take_the_general_path(self, a):
        # With b = 1 the down moves carry every coefficient to degree 0 and
        # the length set is one length: x copies of the atom 1.
        base = RationalBase(a, 1)
        for n in range(1, 60):
            stats = length_stats(base, F(n))
            assert (stats.min_len, stats.max_len, stats.elasticity, tuple(stats.length_set)) == (n, n, F(1), (n,))
            assert stats.min_factorization == NatPoly({0: n})
        rng = random.Random(a)
        for _ in range(200):
            z = NatPoly({rng.randrange(6): rng.randrange(1, 9) for _ in range(rng.randrange(1, 4))})
            assert down_normal_form(base, z) == NatPoly({0: z.eval(base.q)})
        assert down_normal_form(base, NatPoly.zero()) == NatPoly.zero()
        for x in (F(1, 2), F(7, 3), F(0)):
            with pytest.raises(NotInMonoidError):
                length_stats(base, x)

    def test_length_set_spends_one_state_per_length(self):
        assert enumerate_length_set(B32, F(9), cap=7) == {3, 4, 5, 6, 7, 8, 9}
        with pytest.raises(OracleBudgetExceeded):
            enumerate_length_set(B32, F(9), cap=6)

    def test_enumerate_length_set_contract(self):
        assert enumerate_length_set(B32, F(9)) == {3, 4, 5, 6, 7, 8, 9}
        assert enumerate_length_set(B32, F(0)) == {0}
        assert enumerate_length_set(B32, F(1, 2)) == set()
        assert enumerate_length_set(RationalBase(2, 1), F(9)) == {9}
        assert enumerate_length_set(RationalBase(2, 1), F(9, 2)) == set()
        with pytest.raises(ValueError):
            enumerate_length_set(B32, F(-1))
        with pytest.raises(OracleBudgetExceeded):
            enumerate_length_set(B32, F(9), cap=6)
        # A set of more than 2^63 lengths, past what len() of a range takes.
        with pytest.raises(OracleBudgetExceeded):
            enumerate_length_set(B32, F(3**1200), cap=5)

    def test_min_factorization_is_the_up_normal_form(self):
        # The membership witness that length_stats reports is the up normal
        # form of every presentation of x.
        direct = length_stats(B32, F(9))
        assert direct.min_factorization == up_normal_form(B32, NatPoly({0: 9}))


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
                lengths = sorted(enumerate_length_set_dp(base, F(base.a**k)))
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
            zs = list(iter_factorizations(base, x))
            ups = {up_normal_form(base, NatPoly(z)) for z in zs}
            downs = {down_normal_form(base, NatPoly(z)) for z in zs}
            assert len(ups) == 1 and len(downs) == 1

    def test_oracle_equivalence_with_normal_forms(self):
        for base in BASES:
            for k in (1, 2, 3):
                x = F(base.a**k)
                lengths = enumerate_length_set_dp(base, x)
                stats = length_stats(base, x)
                assert stats.min_len == min(lengths)
                assert stats.max_len == max(lengths)
                assert stats.min_len <= base.b**k
                assert stats.max_len == base.a**k

    def test_length_set_gaps_observation(self):
        # The length set is the full arithmetic progression with step a-b,
        # proved in the semiring module docstring; the exhaustive DP checks
        # it here independently of the normal forms.
        for base in BASES:
            gap = base.a - base.b
            for x in (F(base.a), F(base.a**2), F(base.a**3), F(base.a**2 + 1)):
                lengths = sorted(enumerate_length_set_dp(base, x))
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
    assert w == up_normal_form_walk(base, z)


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
    assert enumerate_length_set_dp(base, x) == {NatPoly(z).length() for z in iter_factorizations(base, x)}


@given(
    st.sampled_from(BASES),
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=8),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=80, deadline=None)
def test_closed_form_succeeds_wherever_the_dp_does(base, terms, cap):
    # No input that the DP answers within a cap fails or changes under the
    # closed form at the same cap.
    x = NatPoly(terms).eval(base.q)
    try:
        lengths = enumerate_length_set_dp(base, x, cap=cap)
    except OracleBudgetExceeded:
        return
    assert set(length_stats(base, x).length_set) == lengths
    assert enumerate_length_set(base, x, cap=cap) == lengths
