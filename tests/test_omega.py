import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cyclofact.omega import (
    IntervalMonoid,
    antiprime_witness_chain,
    interval_membership,
    omega_interval_atom,
    omega_lower_bound,
    witness_checks,
)
from cyclofact.semiring import _digit_count


@given(st.integers(min_value=1, max_value=4000))
@settings(max_examples=200)
def test_digit_count_at_powers_of_ten(d):
    assert _digit_count(0) == 1
    for n in (10 ** (d - 1), 10**d - 1, 2 ** (d - 1), 7 * 10 ** (d - 1) + 3):
        assert _digit_count(n) == len(str(n))


def threshold_exponent_loop(q, k, K):
    """Reference for omega_lower_bound's N: the smallest N with K*q^N < q^k,
    multiplying up one level at a time (K * a^N * b^k < a^k * b^N)."""
    a, b = q.numerator, q.denominator
    lhs, rhs = K * b**k, a**k
    n = 0
    while not lhs < rhs:
        n += 1
        lhs *= a
        rhs *= b
    return n


def sum_of_atoms_oracle(monoid, x):
    """Generate-and-test membership oracle for the interval monoid.

    Tries every atom count m up to ceil(x) and builds the explicit witness
    of m equal parts; a sum of m atoms exists iff the equal split is an
    atom, since each part can be averaged into [1, q].  Never consults the
    conductor or the interval decomposition.
    """
    x = F(x)
    if x == 0:
        return True
    for m in range(1, math.ceil(x) + 1):
        part = x / m
        if 1 <= part <= monoid.q:
            witness = [part] * m
            assert sum(witness) == x
            return True
    return False


def interval_loop_membership(monoid, x):
    """Reference: the O(c) loop over the intervals [k, k*q], k < c."""
    x = F(x)
    if x < 0:
        return False
    if x == 0 or x >= monoid.conductor:
        return True
    return any(k <= x <= k * monoid.q for k in range(1, monoid.conductor))


def ratios_with_conductor(c):
    """Two q in (1, 2) whose conductor ceil(1/(q-1)) is c."""
    return [F(c + 1, c), F(2 * c + 1, 2 * c - 1)]


class TestConductor:
    def test_examples(self):
        assert IntervalMonoid.for_ratio(F(3, 2)).conductor == 2
        assert IntervalMonoid.for_ratio(F(4, 3)).conductor == 3
        assert IntervalMonoid.for_ratio(F(7, 5)).conductor == 3

    def test_regime(self):
        for q in (F(1), F(2), F(5, 2), F(1, 2)):
            with pytest.raises(ValueError):
                IntervalMonoid.for_ratio(q)

    @given(st.fractions(min_value=F(51, 50), max_value=F(99, 50), max_denominator=50))
    def test_matches_ceiling_formula(self, q):
        # 1/(q-1) = b/(a-b), so its ceiling is -(-b // (a-b)).
        assert IntervalMonoid.for_ratio(q).conductor == -(-q.denominator // (q.numerator - q.denominator))


class TestIntervalMembership:
    def test_examples(self):
        m = IntervalMonoid.for_ratio(F(3, 2))
        assert not interval_membership(m, F(7, 4))
        assert interval_membership(m, F(0))
        assert interval_membership(m, F(5, 2))

    @given(
        st.sampled_from([F(3, 2), F(4, 3), F(7, 5), F(9, 5)]),
        st.fractions(min_value=F(0), max_value=F(5), max_denominator=50),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_sum_oracle(self, q, x):
        monoid = IntervalMonoid.for_ratio(q)
        if x > monoid.conductor + 2:
            x = x - math.ceil(x - monoid.conductor - 2)
        assert interval_membership(monoid, x) == sum_of_atoms_oracle(monoid, x)

    @given(
        st.sampled_from([q for c in (2, 7, 1000) for q in ratios_with_conductor(c)]),
        st.fractions(min_value=F(0), max_value=F(1), max_denominator=10**4),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_interval_loop(self, q, t):
        monoid = IntervalMonoid.for_ratio(q)
        x = t * (monoid.conductor + 1)
        assert interval_membership(monoid, x) == interval_loop_membership(monoid, x)

    def test_interval_endpoints_against_loop(self):
        for c in (2, 7, 1000):
            for q in ratios_with_conductor(c):
                monoid = IntervalMonoid.for_ratio(q)
                assert monoid.conductor == c
                eps = F(1, 10**9)
                for k in (1, 2, c - 1, c):
                    for x in (k - eps, k, k * q - eps, k * q, k * q + eps, k + 1 - eps):
                        assert interval_membership(monoid, x) == interval_loop_membership(monoid, x), (q, x)

    def test_dense_grid_against_oracle(self):
        monoid = IntervalMonoid.for_ratio(F(3, 2))
        bound = monoid.conductor + 2
        for den in range(1, 13):
            for num in range(0, bound * den + 1):
                x = F(num, den)
                assert interval_membership(monoid, x) == sum_of_atoms_oracle(monoid, x), x


class TestOmegaIntervalAtom:
    def test_examples(self):
        m = IntervalMonoid.for_ratio(F(3, 2))
        r1 = omega_interval_atom(m, F(1))
        assert r1.omega == 3
        assert F(5, 4) < r1.lower_witness < F(3, 2)
        r2 = omega_interval_atom(m, F(5, 4))
        assert r2.omega == 4
        r3 = omega_interval_atom(m, F(3, 2))
        assert r3.omega == 4

    def test_witness_checks_are_what_they_claim(self):
        m = IntervalMonoid.for_ratio(F(3, 2))
        for a in (F(1), F(5, 4), F(3, 2), F(7, 6)):
            r = omega_interval_atom(m, a)
            c, n = r.conductor, math.ceil(a)
            assert r.omega == c + n
            b = r.lower_witness
            assert F(1) <= b <= m.q
            assert r.lower_blocked == (c + n - 1) * b - a
            assert r.lower_divisible == (c + n) * b - a
            assert not interval_membership(m, r.lower_blocked)
            assert interval_membership(m, r.lower_divisible)

    def test_formula_across_ratios(self):
        for q in (F(4, 3), F(7, 5), F(9, 5), F(11, 10)):
            m = IntervalMonoid.for_ratio(q)
            for a in (F(1), q, (1 + q) / 2):
                r = omega_interval_atom(m, a)
                assert r.omega == m.conductor + math.ceil(a)

    def test_out_of_range_atom(self):
        m = IntervalMonoid.for_ratio(F(3, 2))
        with pytest.raises(ValueError):
            omega_interval_atom(m, F(7, 4))
        with pytest.raises(ValueError):
            omega_interval_atom(m, F(1, 2))


class TestAntiprimeChain:
    def test_chain_example(self):
        chain = antiprime_witness_chain(F(2, 3), 0, 2)
        assert [e.beta for e in chain] == [1, 2, 4]
        assert chain[1].presentation.to_pairs() == [(1, 3)]
        assert chain[2].presentation.to_pairs() == [(2, 9)]
        assert chain[1].step.quotient_presentation.to_pairs() == [(0, 1)]
        assert chain[2].step.quotient_presentation.to_pairs() == [(1, 3)]

    def test_base_case(self):
        chain = antiprime_witness_chain(F(2, 3), 0, 0)
        assert len(chain) == 1
        assert chain[0].beta == 1
        assert chain[0].from_base.quotient_presentation.is_zero

    def test_shifted_chain(self):
        chain = antiprime_witness_chain(F(2, 3), 1, 1)
        assert chain[0].beta == F(2, 3)
        assert chain[1].beta == F(4, 3)
        assert chain[1].presentation.to_pairs() == [(2, 3)]
        assert chain[1].from_base.quotient_presentation.eval(F(2, 3)) == F(2, 3)

    def test_supports_climb_with_the_chain(self):
        q = F(3, 5)
        for k in (0, 1, 2):
            chain = antiprime_witness_chain(q, k, 4)
            for i, entry in enumerate(chain):
                assert entry.presentation.order() == k + i
                assert entry.presentation.eval(q) == entry.beta
                for cert in (entry.from_base, entry.step):
                    if cert is not None:
                        assert cert.quotient_presentation.eval(q) == cert.dividend - cert.divisor

    def test_non_atomic_rejected(self):
        with pytest.raises(ValueError):
            antiprime_witness_chain(F(1, 2), 0, 1)
        with pytest.raises(ValueError):
            antiprime_witness_chain(F(3, 2), 0, 1)


class TestOmegaLowerBound:
    def test_example_large_k(self):
        w = omega_lower_bound(F(2, 3), 0, 10)
        assert w.N == 6
        assert w.x == 64
        assert w.x_presentation.to_pairs() == [(6, 729)]
        assert all(witness_checks(w, F(2, 3)).values())

    def test_n_is_minimal(self):
        q = F(2, 3)
        for k in (0, 1):
            for K in range(1, 11):
                w = omega_lower_bound(q, k, K)
                assert K * q**w.N < q**k
                assert not K * q ** (w.N - 1) < q**k

    def test_n_matches_the_multiply_loop(self):
        # Near 1 the witness itself grows quadratically in N, so K stays small there.
        for q, largest_K in ((F(2, 3), 10**6), (F(3, 5), 10**6), (F(4, 9), 10**6), (F(5, 7), 1000), (F(99, 100), 10)):
            for k in (0, 1, 2, 5):
                for K in (1, 2, 3, 7, 10, 64, 1000, 10**6):
                    if K <= largest_K:
                        assert omega_lower_bound(q, k, K).N == threshold_exponent_loop(q, k, K), (q, k, K)

    def test_chain_values_are_powers_of_two(self):
        for K in range(1, 11):
            w = omega_lower_bound(F(2, 3), 0, K)
            assert w.x == 2**w.N

    def test_soundness_checks_all_pass(self):
        for q in (F(2, 3), F(3, 5), F(5, 7)):
            for k in (0, 1, 2):
                for K in (1, 3, 10, 25):
                    w = omega_lower_bound(q, k, K)
                    checks = witness_checks(w, q)
                    assert all(checks.values()), (q, k, K, checks)

    def test_closed_form_is_the_last_chain_link(self):
        for q in (F(2, 3), F(3, 5), F(5, 7), F(99, 100)):
            for k in (0, 1, 2):
                for K in (1, 3, 10, 25):
                    w = omega_lower_bound(q, k, K)
                    last = antiprime_witness_chain(q, k, w.N - k)[-1]
                    assert w.x == last.beta, (q, k, K)
                    assert w.x_presentation == last.presentation, (q, k, K)
                    assert w.certificate == last.from_base, (q, k, K)

    def test_checks_are_kept_on_the_witness(self):
        w = omega_lower_bound(F(3, 5), 1, 10)
        assert w.checks == witness_checks(w, F(3, 5))
        assert all(w.checks.values())

    def test_tampered_witness_fails_checks(self):
        from cyclofact.omega import OmegaWitness

        w = omega_lower_bound(F(2, 3), 0, 10)
        bad = OmegaWitness(w.atom_power, w.K, w.N + 1, w.x, w.x_presentation, w.certificate)
        assert not all(witness_checks(bad, F(2, 3)).values())
        bad2 = OmegaWitness(w.atom_power, w.K, w.N, w.x + 1, w.x_presentation, w.certificate)
        assert not all(witness_checks(bad2, F(2, 3)).values())
