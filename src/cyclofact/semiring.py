"""The additive monoid of nonnegative-integer polynomials evaluated at q > 1.

For a non-integer rational q = a/b > 1 (lowest terms, b >= 2) the monoid of
all values f(q), f ranging over nonnegative-integer polynomials, is atomic
with atom set {q^n}.  A factorization of x is a NatPoly z with z(q) = x; its
length is the coefficient sum.  Two value-preserving rewriting moves connect
factorizations of the same element:

* up move:   a copies of q^j   ->  b copies of q^(j+1)   (length -(a-b))
* down move: b copies of q^j   ->  a copies of q^(j-1)   (length +(a-b), j >= 1)

Running up moves to exhaustion yields the unique factorization with every
coefficient <= a-1; it is minimum-length.  (Uniqueness: multiply by b^E and
read levels bottom-up -- each digit is forced modulo a.)  Running down moves
until every coefficient at degree >= 1 is <= b-1 maximizes length; that the
terminal form is maximal for arbitrary elements is only proved here for
integer values (where x copies of 1 bound the length), so length_stats
cross-checks it against the exhaustive enumeration whenever the full length
set is requested.

Membership, enumeration and the length-set DP walk one integer digit ladder.
A factorization sum n_i q^i of x has i <= top (the largest e with q^e <= x),
so t_0 = x * b^top must be an integer.  Level i carries the residual t_i and
the weight w_i = b^(top-i), and t_(i+1) = (t_i - n_i w_i) / a; so
n_i w_i <= t_i, n_i = t_i / w_i (mod a), and the top digit is t_top itself.
Membership takes the least, forced, digit at every level in one pass.

For integer q (b = 1) the monoid is all of the nonnegative integers, a UFM:
the single factorization of x is x copies of the atom 1, and every operation
short-circuits accordingly.

Everything here is pure and safe for concurrent use; enumeration keeps its
state tables per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .polynomials import NatPoly

DEFAULT_ORACLE_CAP = 10**6


class OracleBudgetExceeded(RuntimeError):
    """The exhaustive enumeration exceeded its state budget."""

    def __init__(self, message: str = "oracle budget exhausted"):
        super().__init__(message)


class NotInMonoidError(ValueError):
    """An operation required a value that is not an element of the monoid."""


class NormalFormDiscrepancy(AssertionError):
    """Normal-form length disagrees with the exhaustive enumeration.

    Never expected to fire; exists so a maximality failure of the down
    normal form would be reported rather than silently assumed away.
    """


@dataclass(frozen=True)
class RationalBase:
    """The base q = a/b > 1 in lowest terms.

    b == 1 selects the integer (UFM) regime; the rewriting and enumeration
    operations require b >= 2.
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("base requires positive numerator and denominator")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("base a/b must be in lowest terms")
        if self.a <= self.b:
            raise ValueError("base must satisfy q = a/b > 1")

    @classmethod
    def from_rational(cls, q: Fraction) -> "RationalBase":
        q = Fraction(q)
        return cls(q.numerator, q.denominator)

    @property
    def q(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def is_integer(self) -> bool:
        return self.b == 1

    def __str__(self) -> str:
        return str(self.a) if self.b == 1 else f"{self.a}/{self.b}"


def _require_fractional(base: RationalBase) -> None:
    if base.is_integer:
        raise ValueError("operation requires a non-integer base q = a/b with b >= 2")


def _log_ratio(n: int, d: int) -> float:
    """log(n/d) for integers n >= d > 0, without overflow or cancellation near 1."""
    return math.log1p((n - d) / d) if n < 2 * d else math.log(n) - math.log(d)


def max_atom_exponent(base: RationalBase, x: Fraction) -> int:
    """Largest e with q^e <= x, or -1 when x < 1 (no atom fits).

    A float estimate of log_q x, corrected on integers to the e with
    a^e den <= num b^e and a^(e+1) den > num b^(e+1), where x = num/den.
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num < den:
        return -1
    a, b = base.a, base.b
    e = int(_log_ratio(num, den) / _log_ratio(a, b))
    up, down = a**e, b**e
    while up * den > num * down:
        e, up, down = e - 1, up // a, down // b
    while up * a * den <= num * down * b:
        e, up, down = e + 1, up * a, down * b
    return e


def _integer_witness(x: Fraction) -> Optional[NatPoly]:
    if x.denominator != 1:
        return None
    n = x.numerator
    return NatPoly({0: n}) if n else NatPoly.zero()


def _ladder(base: RationalBase, x: Fraction) -> Optional[tuple[int, Iterator[tuple[int, int]]]]:
    """(t_0, rungs (w_i, w_i^-1 mod a) for levels 0..top), or None if x < 1 or t_0 is fractional."""
    a, b = base.a, base.b
    top = max_atom_exponent(base, x)
    if top < 0:
        return None
    scaled = x * b**top
    if scaled.denominator != 1:
        return None

    def rungs() -> Iterator[tuple[int, int]]:
        weight, inverse = b**top, pow(b, -top, a)
        for _ in range(top + 1):
            yield weight, inverse
            weight //= b
            inverse = inverse * b % a

    return scaled.numerator, rungs()


def _steps(a: int, t: int, weight: int, inverse: int) -> Iterator[tuple[int, int]]:
    """(digit, next residual) for every digit t admits below the top, smallest first."""
    return ((n, (t - n * weight) // a) for n in range(t % a * inverse % a, t // weight + 1, a))


def member_witness(base: RationalBase, x: Fraction) -> Optional[NatPoly]:
    """Witness factorization of x, or None when x is not in the monoid.

    The returned witness is the canonical sub-a digit representation, i.e.
    already the minimum-length factorization.  Walks the forced digit of
    each level of the ladder once; no search is involved.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("monoid elements are nonnegative")
    if x == 0:
        return NatPoly.zero()
    if base.is_integer:
        return _integer_witness(x)
    ladder = _ladder(base, x)
    if ladder is None:
        return None
    a = base.a
    t, rungs = ladder
    digits: dict[int, int] = {}
    for level, (weight, inverse) in enumerate(rungs):
        n = t % a * inverse % a
        t -= n * weight
        if t < 0:
            return None
        t //= a
        if n:
            digits[level] = n
        if t == 0:
            break
    if t != 0:
        return None
    return NatPoly(digits)


def is_member(base: RationalBase, x: Fraction) -> bool:
    return member_witness(base, x) is not None


def divides(base: RationalBase, x: Fraction, y: Fraction) -> Optional[NatPoly]:
    """Witness that y - x lies in the monoid, or None.

    x and y are assumed to be elements already; y < x is immediately
    impossible because the monoid is positive.
    """
    x, y = Fraction(x), Fraction(y)
    if y < x:
        return None
    return member_witness(base, y - x)


def apply_up_move(base: RationalBase, z: NatPoly, j: int) -> NatPoly:
    """One up move at degree j: a copies of q^j become b copies of q^(j+1)."""
    _require_fractional(base)
    terms = z.terms
    if terms.get(j, 0) < base.a:
        raise ValueError(f"up move needs at least a={base.a} copies at degree {j}")
    terms[j] -= base.a
    if not terms[j]:
        del terms[j]
    terms[j + 1] = terms.get(j + 1, 0) + base.b
    return NatPoly(terms)


def apply_down_move(base: RationalBase, z: NatPoly, j: int) -> NatPoly:
    """One down move at degree j >= 1: b copies of q^j become a copies of q^(j-1)."""
    _require_fractional(base)
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


def up_normal_form(base: RationalBase, z: NatPoly) -> NatPoly:
    """Run up moves to exhaustion: the unique all-coefficients-below-a form.

    This is the minimum-length factorization of z's value.  Degrees are
    processed in increasing order; batching consecutive moves at one degree
    into a divmod is exact and keeps the pass linear.
    """
    if base.is_integer:
        v = z.eval(base.q)
        return NatPoly({0: int(v)}) if v else NatPoly.zero()
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


def down_normal_form(base: RationalBase, z: NatPoly) -> NatPoly:
    """Run down moves to exhaustion: coefficients at degree >= 1 all below b.

    Length strictly increases by a-b per move and is bounded by the element
    value, so the descending pass terminates; it realizes the maximum-length
    factorization (cross-checked against enumeration by length_stats).
    """
    if base.is_integer:
        v = z.eval(base.q)
        return NatPoly({0: int(v)}) if v else NatPoly.zero()
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


class Budget:
    """A count of search states; spending past it raises OracleBudgetExceeded."""

    __slots__ = ("left",)

    def __init__(self, cap: int):
        self.left = cap

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise OracleBudgetExceeded()


def iter_factorizations(
    base: RationalBase, x: Fraction, cap: int = DEFAULT_ORACLE_CAP
) -> Iterator[NatPoly]:
    """Stream the complete factorization set of x (exhaustive oracle).

    Depth-first down the digit ladder, smaller digits first.  Raises
    OracleBudgetExceeded when the search visits more than cap nodes.  For x
    outside the monoid the stream is empty; x = 0 yields the empty
    factorization.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("monoid elements are nonnegative")
    if x == 0:
        yield NatPoly.zero()
        return
    if base.is_integer:
        w = _integer_witness(x)
        if w is not None:
            yield w
        return
    ladder = _ladder(base, x)
    if ladder is None:
        return
    a = base.a
    t0, rungs = ladder
    rungs = list(rungs)
    top = len(rungs) - 1
    budget = Budget(cap)
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
                yield NatPoly([*enumerate(path), (top, t)])
            else:
                stack.append(_steps(a, t, *rungs[level]))
                break
        else:
            stack.pop()


def enumerate_factorizations(
    base: RationalBase, x: Fraction, cap: int = DEFAULT_ORACLE_CAP
) -> list[NatPoly]:
    """The complete factorization set of x as a list (exhaustive oracle)."""
    return list(iter_factorizations(base, x, cap))


def enumerate_length_set(
    base: RationalBase, x: Fraction, cap: int = DEFAULT_ORACLE_CAP
) -> set[int]:
    """Exhaustive length set of x via the digit dynamic program.

    Independent of the normal forms: collects the distinct residuals of each
    ladder level, then the digit sums reachable from each one, level by level
    from the top, instead of materializing every factorization.  Each
    residual's sums are one integer bitset, so a digit n shifts a child's set
    by n and the sets of its digits merge by bitwise or.  A residual costs one
    state, plus one per digit it admits below the top.
    """
    x = Fraction(x)
    if x <= 0 or base.is_integer:  # at most one factorization
        return {z.length() for z in iter_factorizations(base, x, cap)}
    ladder = _ladder(base, x)
    if ladder is None:
        return set()
    a = base.a
    t0, rungs = ladder
    rungs = list(rungs)[:-1]
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


@dataclass(frozen=True)
class LengthStats:
    """Min/max factorization lengths, their ratio and the up normal form of x."""

    min_len: int
    max_len: int
    elasticity: Fraction
    min_factorization: NatPoly
    length_set: Optional[tuple[int, ...]] = None


def length_stats(
    base: RationalBase,
    x: Fraction,
    want_full_set: bool = False,
    cap: int = DEFAULT_ORACLE_CAP,
    witness: Optional[NatPoly] = None,
) -> LengthStats:
    """Length statistics of a nonzero element x.

    min comes from the up normal form, max from the down normal form of a
    single membership witness; the full length set (when requested) comes
    from the exhaustive digit DP and is cross-checked against both.
    Supplying a presentation of x as `witness` skips the membership
    decision (certificates flow through, they are not re-derived).
    """
    x = Fraction(x)
    if x <= 0:
        raise NotInMonoidError("length statistics require a nonzero element")
    if base.is_integer:
        if x.denominator != 1:
            raise NotInMonoidError(f"{x} is not an element of the monoid at q={base}")
        n = x.numerator
        return LengthStats(n, n, Fraction(1), NatPoly({0: n}), (n,) if want_full_set else None)
    if witness is not None:
        if witness.eval(base.q) != x:
            raise ValueError("supplied witness does not evaluate to x")
    else:
        witness = member_witness(base, x)
        if witness is None:
            raise NotInMonoidError(f"{x} is not an element of the monoid at q={base}")
    minimum = up_normal_form(base, witness)
    min_len = minimum.length()
    max_len = down_normal_form(base, witness).length()
    lengths: Optional[tuple[int, ...]] = None
    if want_full_set:
        full = enumerate_length_set(base, x, cap)
        if min(full) != min_len or max(full) != max_len:
            raise NormalFormDiscrepancy(
                f"normal-form lengths ({min_len}, {max_len}) disagree with "
                f"enumerated range ({min(full)}, {max(full)}) for x={x}, q={base}"
            )
        lengths = tuple(sorted(full))
    return LengthStats(min_len, max_len, Fraction(max_len, min_len), minimum, lengths)
