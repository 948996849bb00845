"""The algebraic-valuation half of the paper, run by tests only.

No CLI command reaches this module, so it lives beside the tests that check
it and out of the shipped package; tests import it as ``algebraic``.  It
holds the polynomial arithmetic only it needs (``poly_sub``, ``poly_mul``,
``poly_pow`` and ``poly_mod``, built on the public constructors) and exact
sign arithmetic for a real root of a trusted minimal polynomial.

A root is designated by its (monic, degree >= 2) minimal polynomial together
with an isolating rational interval.  Signs of polynomial expressions in the
root are decided exactly: reduce with ``poly_mod``, then bisect the
isolating interval until the remainder's minimal-pair split pins the sign.
Reduction to the zero polynomial means the expression vanishes at the root,
so refinement only runs on expressions with a nonzero value and terminates.

The minimal polynomial is trusted to be irreducible (so it has no rational
roots and bisection midpoints are never roots); a refinement cap turns a
violated trust assumption into an error instead of a hang.

On these signs rest the paper's two results for algebraic valuations.
``elasticity_lower_bound_sequence`` takes the element with the minimal
pair's two factorizations to its n-th power, whose elasticity is at least
the ratio of their lengths to the n-th; ``elasticity_formula`` gives the
finitely generated case's elasticity once an atom census over powers
reduced by ``poly_mod`` shows the atoms are exactly 1..root^deg.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from cyclofact.minimal_pair import MinimalPair, _sign_split, minimal_pair
from cyclofact.polynomials import NatPoly, RatPoly
from cyclofact.semiring import OracleBudgetExceeded, RationalBase, length_stats
from test_semiring import Budget

_REFINEMENT_CAP = 4096
NODE_BUDGET = 100_000


# ---------------------------------------------------------------------------
# Polynomial arithmetic: each result is built as the left operand's class, so
# that class's constructor vets it (a NatPoly difference must stay
# nonnegative).
# ---------------------------------------------------------------------------


def poly_sub(f, g):
    """f - g."""
    return type(f)([*f.items(), *((d, -c) for d, c in g.items())])


def poly_mul(f, g):
    """f * g."""
    return type(f)((d1 + d2, c1 * c2) for d1, c1 in f.items() for d2, c2 in g.items())


def poly_pow(f: NatPoly, n: int) -> NatPoly:
    """f to the n-th power, n >= 0."""
    if n < 0:
        raise ValueError("negative power")
    result = NatPoly({0: 1})
    for _ in range(n):
        result = poly_mul(result, f)
    return result


def poly_mod(f: RatPoly, divisor: RatPoly) -> RatPoly:
    """Remainder of exact division by a nonzero polynomial."""
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial modulo zero")
    ddeg = divisor.degree()
    lead = divisor.coeff(ddeg)
    rem = f
    while rem and rem.degree() >= ddeg:
        top = rem.degree()
        factor = rem.coeff(top) / lead
        rem = poly_sub(rem, RatPoly({top - ddeg + d: factor * c for d, c in divisor.items()}))
    return rem


class AlgebraicNumber:
    """A positive real algebraic number with exact sign queries.

    The isolating interval shrinks as queries run; instances cache that
    refinement, so they are cheap to reuse but not safe to share across
    threads mid-query.
    """

    def __init__(self, minpoly: RatPoly, lo: Fraction, hi: Fraction):
        if minpoly.is_zero or minpoly.degree() < 2:
            raise ValueError("minimal polynomial must have degree >= 2")
        if not minpoly.is_monic():
            raise ValueError("minimal polynomial must be monic")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo < 0:
            raise ValueError("isolating interval must lie in the nonnegative reals")
        if not lo < hi:
            raise ValueError("empty isolating interval")
        s_lo, s_hi = minpoly.eval(lo), minpoly.eval(hi)
        if s_lo == 0 or s_hi == 0 or (s_lo > 0) == (s_hi > 0):
            raise ValueError("interval endpoints must straddle exactly one sign change")
        self.minpoly = minpoly
        self._lo = lo
        self._hi = hi
        self._sign_lo = 1 if s_lo > 0 else -1

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def refine(self) -> None:
        """Halve the isolating interval (one exact bisection step)."""
        mid = (self._lo + self._hi) / 2
        s = self.minpoly.eval(mid)
        if s == 0:
            raise ValueError(
                "bisection midpoint is a rational root: the designated polynomial "
                "is not irreducible"
            )
        if (s > 0) == (self._sign_lo > 0):
            self._lo = mid
        else:
            self._hi = mid

    def _range_of(self, reduced: RatPoly) -> tuple[Fraction, Fraction]:
        """Bounds of reduced on the interval: with ell*reduced = p - q0, both
        p and q0 rise on [lo, hi] (nonnegative coefficients, lo >= 0)."""
        ell, p, q0 = _sign_split(reduced)
        lo, hi = self._lo, self._hi
        return (p.eval(lo) - q0.eval(hi)) / ell, (p.eval(hi) - q0.eval(lo)) / ell

    def sign_of(self, expr: RatPoly) -> int:
        """Exact sign of expr evaluated at the root: -1, 0 or +1."""
        reduced = poly_mod(expr, self.minpoly)
        if reduced.is_zero:
            return 0
        for _ in range(_REFINEMENT_CAP):
            lo_b, hi_b = self._range_of(reduced)
            if lo_b > 0:
                return 1
            if hi_b < 0:
                return -1
            self.refine()
        raise RuntimeError(
            "sign refinement did not converge; is the designated polynomial "
            "really the minimal polynomial of the root?"
        )

    def compare(self, value: Fraction) -> int:
        """Sign of (root - value)."""
        return self.sign_of(RatPoly({1: Fraction(1), 0: -Fraction(value)}))


# ---------------------------------------------------------------------------
# Lower-bound sequence (the powers of the minimal-pair element)
# ---------------------------------------------------------------------------


class LowerBoundStep(NamedTuple):
    """Power n of the two-factorizations element, with its elasticity bound."""

    n: int
    presentation: NatPoly
    lower_bound: Fraction
    element: Optional[Fraction]
    exact_elasticity: Optional[Fraction]


def elasticity_lower_bound_sequence(
    pair: MinimalPair, alpha: Optional[Fraction], n: int
) -> LowerBoundStep:
    """The n-th power of the element with factorizations p and q0.

    p(alpha) = q0(alpha) is one element with factorization lengths p(1) and
    q0(1); its n-th power has elasticity at least (larger/smaller)**n.  A
    given alpha must be a root of the pair.  When alpha is a non-integer
    rational > 1 the exact elasticity is computed for comparison; otherwise
    only the bound is returned.
    """
    if n < 1:
        raise ValueError("power n must be positive")
    lp, lq = pair.p.length(), pair.q0.length()
    if lp == lq:
        raise ValueError("1 is a root; minimal pair degenerate")
    if not (lp and lq):
        raise ValueError("a side of the minimal pair is empty: no positive root")
    low, high = (pair.p, pair.q0) if lp < lq else (pair.q0, pair.p)
    presentation = poly_pow(low, n)
    bound = Fraction(high.length(), low.length()) ** n
    element = None
    exact = None
    if alpha is not None:
        alpha = Fraction(alpha)
        if pair.p.eval(alpha) != pair.q0.eval(alpha):
            raise ValueError(f"alpha = {alpha} is not a root of the minimal pair")
        element = presentation.eval(alpha)
        if alpha > 1 and alpha.denominator > 1:
            base = RationalBase.from_rational(alpha)
            exact = length_stats(base, element).elasticity
        elif alpha.denominator == 1:
            exact = Fraction(1)
    return LowerBoundStep(n, presentation, bound, element, exact)


# ---------------------------------------------------------------------------
# Elasticity formula for the finitely generated case
# ---------------------------------------------------------------------------


class FormulaResult(NamedTuple):
    """Outcome of the atom census behind the finitely-generated formula.

    status is "value" (hypothesis verified, value holds), "inapplicable"
    (hypothesis refuted, reason says how) or "inconclusive" (budget ran out
    before the census settled).
    """

    status: str
    value: Optional[Fraction]
    reason: str
    atom_exponents: tuple[int, ...]
    decomposed_exponents: tuple[int, ...]


def _decomposes(
    alpha: AlgebraicNumber,
    powers: Sequence[RatPoly],
    k: int,
    budget: Budget,
) -> bool:
    """Does root^k equal a nonnegative-integer combination of lower powers?

    powers[i] is X^i reduced modulo the minimal polynomial (degree n).
    Searches coefficients for degrees k-1 down to n (depth-first, residual a
    RatPoly of degree < n, pruned by its sign at the root), then demands its
    stored coefficients be nonnegative integers at the leaf, i.e. a
    combination of 1..root^(n-1).  Each search node costs one budget unit.
    """
    uppers = list(range(k - 1, alpha.minpoly.degree() - 1, -1))

    def rec(idx: int, residual: RatPoly) -> bool:
        budget.spend()
        if idx == len(uppers):
            return all(c >= 0 and c.denominator == 1 for _, c in residual.items())
        step = powers[uppers[idx]]
        current = residual
        while True:
            if rec(idx + 1, current):
                return True
            current = poly_sub(current, step)
            if alpha.sign_of(current) < 0:
                return False

    return rec(0, powers[k])


def elasticity_formula(
    minpoly: RatPoly,
    root_interval: tuple[Fraction, Fraction],
    atom_budget: int,
) -> FormulaResult:
    """Monoid elasticity from the minimal pair, gated by an atom census.

    The formula max{p(1)/q0(1), q0(1)/p(1)} requires the atom set to be
    exactly {1, root, ..., root^deg}.  The census decides, for each power up
    to atom_budget, whether it decomposes into lower powers (exact arithmetic
    modulo the minimal polynomial).  Decomposability of root^(deg+1) propagates
    to all higher powers, so a census that finds atoms exactly at 0..deg is
    conclusive.  Outcomes other than a verified hypothesis are reported as
    inapplicable (with the refuting evidence) or inconclusive (the search
    visits more than ``NODE_BUDGET`` nodes).
    """
    alpha = AlgebraicNumber(minpoly, *root_interval)
    n = minpoly.degree()
    if atom_budget < n + 1:
        return FormulaResult(
            "inconclusive",
            None,
            f"atom budget {atom_budget} cannot reach power deg+1 = {n + 1}",
            tuple(range(n)),
            (),
        )
    if alpha.compare(Fraction(1)) < 0:
        return FormulaResult(
            "inapplicable",
            None,
            "root below 1: zero is a limit point, the monoid is not finitely "
            "generated and has infinite elasticity",
            (),
            (),
        )
    powers = [poly_mod(RatPoly({k: 1}), minpoly) for k in range(atom_budget + 1)]
    budget = Budget(NODE_BUDGET)
    atoms = list(range(n))
    decomposed: list[int] = []
    for k in range(n, atom_budget + 1):
        try:
            verdict = _decomposes(alpha, powers, k, budget)
        except OracleBudgetExceeded:
            return FormulaResult(
                "inconclusive",
                None,
                f"decomposition search budget exhausted at power {k}",
                tuple(atoms),
                tuple(decomposed),
            )
        (decomposed if verdict else atoms).append(k)

    if n in decomposed:
        # root^deg already decomposes, hence so does every higher power:
        # the atoms are 1..root^(deg-1) and the monoid is free on them.
        return FormulaResult(
            "inapplicable",
            None,
            f"atom count {n} equals the degree: the monoid is free on "
            f"{n} generators (unique factorization, elasticity 1)",
            tuple(atoms),
            tuple(decomposed),
        )
    if atoms == list(range(n + 1)) and (n + 1) in decomposed:
        pair = minimal_pair(minpoly)
        lp, lq = pair.p.length(), pair.q0.length()
        value = max(Fraction(lp, lq), Fraction(lq, lp))
        return FormulaResult(
            "value",
            value,
            f"atoms are exactly the powers 0..{n}; decomposability of power "
            f"{n + 1} propagates upward",
            tuple(atoms),
            tuple(decomposed),
        )
    return FormulaResult(
        "inapplicable",
        None,
        f"atoms persist beyond the degree (exponents {atoms}): evidence that "
        "the monoid is not finitely generated, hence of infinite elasticity",
        tuple(atoms),
        tuple(decomposed),
    )
