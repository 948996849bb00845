"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every expected value is exact; the stated runtime budgets are
asserted with a monotonic clock.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from cyclofact.elasticity import construct_elasticity, forced_atom_shift
from cyclofact.minimal_pair import minimal_pair, minimal_pair_of_rational
from cyclofact.omega import (
    IntervalMonoid,
    antiprime_witness_chain,
    interval_membership,
    omega_interval_atom,
    omega_lower_bound,
    witness_checks,
)
from cyclofact.polynomials import NatPoly, RatPoly
from cyclofact.semiring import (
    RationalBase,
    down_normal_form,
    iter_factorizations,
    length_stats,
    member_witness,
    up_normal_form,
)
from algebraic import elasticity_lower_bound_sequence, poly_sub
from test_semiring import apply_down_move, apply_up_move, enumerate_length_set_dp

ORACLE_CAP = 10**6
B32 = RationalBase(3, 2)
CRITERION2_BASES = [RationalBase(3, 2), RationalBase(5, 3), RationalBase(5, 2), RationalBase(7, 4)]


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_minimal_pairs():
    with criterion(1, "minimal pairs: fixed examples + 50 random monic splits", 1.0):
        pair = minimal_pair_of_rational(F(3, 2))
        assert (pair.ell, pair.p, pair.q0) == (2, NatPoly({1: 2}), NatPoly({0: 3}))
        pair = minimal_pair(RatPoly({2: F(1), 1: F(-3), 0: F(1)}))
        assert (pair.ell, pair.p, pair.q0) == (1, NatPoly({2: 1, 0: 1}), NatPoly({1: 3}))
        rng = random.Random(0x5EED)
        for _ in range(50):
            deg = rng.randint(1, 6)
            terms = {deg: F(1)}
            for d in range(deg):
                if rng.random() < 0.8:
                    terms[d] = F(rng.randint(-40, 40), rng.randint(1, 24))
            f = RatPoly(terms)
            pair = minimal_pair(f)
            assert poly_sub(RatPoly(pair.p.terms), RatPoly(pair.q0.terms)) == RatPoly(
                {d: pair.ell * c for d, c in f.terms.items()}
            )
            assert pair.ell == f.denominator_lcm()
            if not pair.q0.is_zero:
                assert set(pair.p.terms).isdisjoint(pair.q0.terms)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence on a^k for four bases, k <= 3", 60.0):
        for base in CRITERION2_BASES:
            for k in (1, 2, 3):
                x = F(base.a**k)
                lengths = enumerate_length_set_dp(base, x, cap=ORACLE_CAP)
                stats = length_stats(base, x)
                assert stats.min_len == min(lengths), (base, k)
                assert stats.max_len == max(lengths), (base, k)
                assert stats.min_len <= base.b**k, (base, k)
                assert stats.max_len == base.a**k, (base, k)


def test_criterion_3_concrete_length_sets():
    with criterion(3, "L(9) = {3..9} with rho 3 and L(3) = {2,3} with rho 3/2 at q=3/2"):
        nine = length_stats(B32, F(9))
        assert tuple(nine.length_set) == (3, 4, 5, 6, 7, 8, 9)
        assert nine.elasticity == F(3)
        three = length_stats(B32, F(3))
        assert tuple(three.length_set) == (2, 3)
        assert three.elasticity == F(3, 2)


def test_criterion_4_lower_bound_sequence():
    with criterion(4, "exact rho(3^n) >= (3/2)^n for n = 1, 2, 3"):
        pair = minimal_pair_of_rational(F(3, 2))
        for n in (1, 2, 3):
            step = elasticity_lower_bound_sequence(pair, F(3, 2), n)
            assert step.element == 3**n
            assert step.lower_bound == F(3, 2) ** n
            assert step.exact_elasticity >= step.lower_bound
            excess = step.exact_elasticity - step.lower_bound
            kind = "equality" if excess == 0 else f"excess {excess}"
            print(f"  n={n}: rho({3**n}) = {step.exact_elasticity} vs bound {step.lower_bound} ({kind})")


def test_criterion_5_forced_atom_shift():
    with criterion(5, "one forced shift of beta=3 at q=3/2: exponent 5, L = {3,4}"):
        shift = forced_atom_shift(B32, NatPoly({0: 3}), 1)
        assert shift.forced_exponents == (5,)
        lifted = {NatPoly(z) + NatPoly.atom(5) for z in iter_factorizations(B32, F(3), ORACLE_CAP)}
        actual = {NatPoly(z) for z in iter_factorizations(B32, shift.element, ORACLE_CAP)}
        assert actual == lifted
        assert {z.length() for z in actual} == {3, 4}
        assert length_stats(B32, shift.element).elasticity == F(4, 3)


def test_criterion_6_full_elasticity_grid():
    with criterion(6, "certificate ratio == s/t over the full target grid, three bases", 300.0):
        targets = [
            F(s, t)
            for s in range(2, 10)
            for t in range(1, s)
            if math.gcd(s, t) == 1
        ]
        for base in (RationalBase(3, 2), RationalBase(5, 3), RationalBase(5, 2)):
            for target in targets:
                cert = construct_elasticity(base, target)
                assert F(cert.max_len, cert.min_len) == target, (base, target)
        rederived = 0
        for target in targets:
            cert = construct_elasticity(B32, target)
            if cert.element <= 10**4:
                assert up_normal_form(B32, cert.presentation).length() == cert.min_len
                assert down_normal_form(B32, cert.presentation).length() == cert.max_len
                rederived += 1
        assert rederived > 0
        print(f"  re-derived {rederived} certificates with element value <= 10^4 by normal forms")


def test_criterion_7_interval_monoid_omega():
    with criterion(7, "conductors 2, 3, 3 and omega(a) = c + ceil(a) with witness checks"):
        assert IntervalMonoid.for_ratio(F(3, 2)).conductor == 2
        assert IntervalMonoid.for_ratio(F(4, 3)).conductor == 3
        assert IntervalMonoid.for_ratio(F(7, 5)).conductor == 3
        monoid = IntervalMonoid.for_ratio(F(3, 2))
        expected = {F(1): 3, F(5, 4): 4, F(3, 2): 4}
        for atom, omega in expected.items():
            result = omega_interval_atom(monoid, atom)
            assert result.omega == omega, atom
            # both witness directions through interval membership
            assert not interval_membership(monoid, result.lower_blocked)
            assert interval_membership(monoid, result.lower_divisible)


def test_criterion_8_antiprime_witnesses():
    with criterion(8, "anti-prime witnesses at q=2/3 for k in {0,1}, K in 1..10", 1.0):
        for k in (0, 1):
            for K in range(1, 11):
                witness = omega_lower_bound(F(2, 3), k, K)
                checks = witness_checks(witness, F(2, 3))
                assert all(checks.values()), (k, K, checks)
        for K in range(1, 11):
            witness = omega_lower_bound(F(2, 3), 0, K)
            chain = antiprime_witness_chain(F(2, 3), 0, witness.N)
            assert [entry.beta for entry in chain] == [2**i for i in range(witness.N + 1)]


def test_criterion_9_property_suites():
    with criterion(9, "move preservation x1e5 sequences, congruence, idempotence, confluence"):
        rng = random.Random(0xC0FFEE)
        for _ in range(100_000):
            base = rng.choice(CRITERION2_BASES)
            z = NatPoly(
                {
                    d: rng.randint(1, 3 * base.a)
                    for d in rng.sample(range(6), rng.randint(1, 3))
                }
            )
            value = z.eval(base.q)
            start_len = z.length()
            ups_taken = downs_taken = 0
            for _ in range(rng.randint(1, 5)):
                ups = [j for j, c in z.terms.items() if c >= base.a]
                downs = [j for j, c in z.terms.items() if c >= base.b and j >= 1]
                options = [("u", j) for j in ups] + [("d", j) for j in downs]
                if not options:
                    break
                kind, j = rng.choice(options)
                if kind == "u":
                    z = apply_up_move(base, z, j)
                    ups_taken += 1
                else:
                    z = apply_down_move(base, z, j)
                    downs_taken += 1
            assert z.eval(base.q) == value
            gap = base.a - base.b
            assert z.length() == start_len + gap * (downs_taken - ups_taken)

        for base in CRITERION2_BASES:
            gap = base.a - base.b
            for k in (1, 2, 3):
                x = F(base.a**k)
                lengths = sorted(enumerate_length_set_dp(base, x, cap=ORACLE_CAP))
                assert all((l - lengths[0]) % gap == 0 for l in lengths), (base, k)

        for base in CRITERION2_BASES:
            for k in (1, 2, 3):
                x = F(base.a**k)
                canonical = member_witness(base, x)
                ups = set()
                downs = set()
                for z in iter_factorizations(base, x, cap=ORACLE_CAP):
                    u = up_normal_form(base, NatPoly(z))
                    d = down_normal_form(base, NatPoly(z))
                    ups.add(u)
                    downs.add(d)
                    assert up_normal_form(base, u) == u
                    assert down_normal_form(base, d) == d
                assert ups == {canonical}, (base, k)
                assert len(downs) == 1, (base, k)
