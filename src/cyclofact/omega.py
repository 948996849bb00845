"""Omega-primality: interval Puiseux monoids and anti-prime witness chains.

Two regimes live here.

For rational q in (1, 2), the monoid generated by all rationals in [1, q]
has atoms exactly [1, q] and a finite integer conductor c = ceil(1/(q-1));
membership is a three-part interval condition, O(1) because each interval
[k, k*q] below c lies in [k, k+1), and the omega-primality of an atom a is
exactly c + ceil(a), certified by a blocking witness b found by
Stern-Brocot search.

For rational q = a/b in (0, 1) with a >= 2 (the monoid is assumed atomic,
which fails for a = 1), divisibility is never decided by search -- there is
no exponent bound below 1, so searching cannot terminate.  Instead the
recurrence beta' = beta + m*q^j*(a-1) pushes an element divisible by q^k
into ever-higher atom levels, carrying an explicit divisibility certificate
at every step.  Once all atoms of the element sit above a level N with
K*q^N < q^k, no sub-sum of at most K of them can reach q^k, which proves
the omega-primality of q^k exceeds K.  The witness is machine-checkable
from four exact facts, none of which trusts the construction itself.

The chain moves all mass up one level per step, so omega_lower_bound
builds its last link in closed form; antiprime_witness_chain builds every
link and is the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .polynomials import NatPoly
from .rationals import simplest_in_open
from .semiring import MAX_LADDER_BITS, OracleBudgetExceeded, RationalBase, _digit_count, max_atom_exponent


class IntervalMonoid(NamedTuple):
    """The monoid generated by [1, q] for rational q in (1, 2)."""

    q: Fraction
    conductor: int

    @classmethod
    def for_ratio(cls, q: Fraction) -> "IntervalMonoid":
        q = Fraction(q)
        if not Fraction(1) < q < Fraction(2):
            raise ValueError(f"interval monoid requires 1 < q < 2, got {q}")
        c = math.ceil(1 / (q - 1))
        # The defining inequalities behind the conductor value; k*q < k + 1
        # is monotone in k, so k = c-1 stands for every k in 1..c-1.
        if not (c - 1) * q < c:
            raise AssertionError(f"conductor inconsistency: {c - 1}*q >= {c}")
        if not c * q >= c + 1:
            raise AssertionError(f"conductor inconsistency: {c}*q < {c + 1}")
        return cls(q, c)


def interval_membership(monoid: IntervalMonoid, x: Fraction) -> bool:
    """x = 0, or k <= x <= k*q for k = floor(x) < c, or x >= c."""
    x = Fraction(x)
    if x < 0:
        return False
    if x == 0 or x >= monoid.conductor:
        return True
    k = math.floor(x)
    return k >= 1 and x <= k * monoid.q


class OmegaIntervalResult(NamedTuple):
    """omega(a) = conductor + ceil(a), certified in both directions.

    The upper direction needs no witness: any conductor + ceil(a) nonzero
    elements sum to at least the conductor past a, which is in the monoid.
    The lower direction is the atom b: taking one fewer copy of b leaves a
    gap that a cannot divide, which lower_blocked records.
    """

    atom: Fraction
    omega: int
    conductor: int
    lower_witness: Fraction
    lower_blocked: Fraction
    lower_divisible: Fraction


def omega_interval_atom(monoid: IntervalMonoid, a: Fraction) -> OmegaIntervalResult:
    """Exact omega-primality of an atom a in [1, q], with verification."""
    a = Fraction(a)
    if not Fraction(1) <= a <= monoid.q:
        raise ValueError(f"atom must lie in [1, {monoid.q}], got {a}")
    c = monoid.conductor
    n = math.ceil(a)
    omega = c + n
    lo = ((c - 1) * monoid.q + a) / (c + n - 1)
    hi = (c + a) / (c + n - 1)
    b = simplest_in_open(lo, hi)
    if not Fraction(1) <= b <= monoid.q:
        raise AssertionError(f"witness {b} fell outside the atom interval")
    blocked = (c + n - 1) * b - a
    divisible = (c + n) * b - a
    if interval_membership(monoid, blocked):
        raise AssertionError(f"witness check failed: {blocked} is in the monoid")
    if not interval_membership(monoid, divisible):
        raise AssertionError(f"witness check failed: {divisible} is not in the monoid")
    return OmegaIntervalResult(a, omega, c, b, blocked, divisible)


# ---------------------------------------------------------------------------
# Anti-prime witness chains for q in (0, 1)
# ---------------------------------------------------------------------------


class DivisibilityCertificate(NamedTuple):
    """Explicit witness that divisor divides dividend in the monoid."""

    dividend: Fraction
    divisor: Fraction
    quotient_presentation: NatPoly


class ChainEntry(NamedTuple):
    """One link of the divisibility chain, with both certificates.

    from_base witnesses (base power | beta); step witnesses the previous
    link dividing this one (None at the chain head).
    """

    beta: Fraction
    presentation: NatPoly
    from_base: DivisibilityCertificate
    step: Optional[DivisibilityCertificate]


def _check_chain_regime(q: Fraction) -> tuple[int, int]:
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"witness chains require 0 < q < 1, got {q}")
    if q.numerator == 1:
        raise ValueError("monoid not atomic; hypothesis violated")
    return q.numerator, q.denominator


def antiprime_witness_chain(q: Fraction, k: int, n: int) -> list[ChainEntry]:
    """The chain beta_0 = q^k, ..., beta_n with beta_i supported above k+i.

    Each step rewrites the mass m at the lowest level j as m*d(q) copies of
    q^(j+1) (same element times n(q)), which adds m*(n(q)-1) copies of q^j:
    that surplus is the step certificate, and accumulating the surpluses
    certifies that q^k divides every beta_i.
    """
    a, b = _check_chain_regime(q)
    q = Fraction(q)
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    empty = DivisibilityCertificate(q**k, q**k, NatPoly.zero())
    entries = [ChainEntry(q**k, NatPoly.atom(k), empty, None)]
    quotient_so_far = NatPoly.zero()
    for i in range(n):
        current = entries[-1]
        level = current.presentation.order()
        m = current.presentation.coeff(level)
        terms = current.presentation.terms
        del terms[level]
        terms[level + 1] = terms.get(level + 1, 0) + m * b
        step_quotient = NatPoly({level: m * (a - 1)})
        beta_next = current.beta + step_quotient.eval(q)
        quotient_so_far = quotient_so_far + step_quotient
        entries.append(
            ChainEntry(
                beta_next,
                NatPoly(terms),
                DivisibilityCertificate(beta_next, q**k, quotient_so_far),
                DivisibilityCertificate(beta_next, current.beta, step_quotient),
            )
        )
    return entries


class OmegaWitness(NamedTuple):
    """Proof object for omega(q^atom_power) > K.

    x is divisible by q^atom_power (see certificate) yet is presented
    entirely by atoms of level >= N with K*q^N < q^atom_power, so no
    sub-sum of at most K atoms of the presentation reaches q^atom_power.
    """

    atom_power: int
    K: int
    N: int
    x: Fraction
    x_presentation: NatPoly
    certificate: DivisibilityCertificate
    # witness_checks as omega_lower_bound ran them, or None for a witness built
    # any other way.  _replace carries them along: run witness_checks again on
    # an edited copy.
    checks: Optional[dict[str, bool]] = None


def witness_checks(witness: OmegaWitness, q: Fraction) -> dict[str, bool]:
    """The four facts that make the witness a proof, each checked exactly."""
    q = Fraction(q)
    pres = witness.x_presentation
    quotient = witness.certificate.quotient_presentation
    return {
        "presentation_evaluates_to_x": pres.eval(q) == witness.x,
        "support_at_or_above_N": pres.is_zero or pres.order() >= witness.N,
        "K_atoms_cannot_reach": witness.K * q**witness.N < q**witness.atom_power,
        "certificate_quotient_valid": (
            witness.certificate.divisor == q**witness.atom_power
            and witness.certificate.dividend == witness.x
            and quotient.eval(q) == witness.x - q**witness.atom_power
        ),
    }


def omega_lower_bound(q: Fraction, k: int, K: int) -> OmegaWitness:
    """Witness that the omega-primality of q^k exceeds K.

    N is the smallest positive integer with K*q^N < q^k, found by
    max_atom_exponent at the base 1/q, whose size check makes a ladder
    past MAX_LADDER_BITS raise OracleBudgetExceeded.  The witness is the
    last link of the chain run for N-k steps, in closed form: x = a^N / b^k,
    presented as b^(N-k) X^N, with quotient sum_{j=k}^{N-1} (a-1) b^(j-k) X^j.
    An a^N or b^k past MAX_LADDER_BITS raises OracleBudgetExceeded before
    either power is taken.  The four witness_checks run once and are kept
    on the witness.
    """
    a, b = _check_chain_regime(q)
    q = Fraction(q)
    if K < 1:
        raise ValueError("K must be a positive integer")
    if k < 0:
        raise ValueError("k must be nonnegative")
    # K*q^N < q^k  <=>  (b/a)^(N-k) > K: N-k is one past the top exponent of K at b/a.
    try:
        n_exp = k + max_atom_exponent(RationalBase(b, a), Fraction(K)) + 1
    except OracleBudgetExceeded:
        raise OracleBudgetExceeded(
            f"a witness of omega(q^k) > K at q={q}, with k of {_digit_count(k)} and K of {_digit_count(K)} digits,"
            f" needs a level N past the ladder limit of {MAX_LADDER_BITS} bits"
        ) from None
    # x = a^N / b^k.  As b >= 3, a k past the limit puts b^k past it, and testing
    # k first keeps a huge k from overflowing its float conversion.
    if k > MAX_LADDER_BITS or max(n_exp * math.log2(a), k * math.log2(b)) > MAX_LADDER_BITS:
        raise OracleBudgetExceeded(
            f"a witness of omega(q^k) > K at q={q}, with k of {_digit_count(k)} digits,"
            f" needs x = a^N / b^k past the ladder limit of {MAX_LADDER_BITS} bits"
        )
    quotient = {}
    weight = a - 1  # (a-1) b^(j-k), one multiplication per level
    for j in range(k, n_exp):
        quotient[j] = weight
        weight *= b
    x = Fraction(a**n_exp, b**k)
    certificate = DivisibilityCertificate(x, q**k, NatPoly(quotient))
    witness = OmegaWitness(k, K, n_exp, x, NatPoly({n_exp: b ** (n_exp - k)}), certificate)
    checks = witness_checks(witness, q)
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        raise AssertionError(f"witness construction failed its own checks: {failed}")
    return witness._replace(checks=checks)
