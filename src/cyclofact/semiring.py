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
until every coefficient at degree >= 1 is <= b-1 yields the maximum-length
factorization, and every length in between occurs:

* Uniqueness.  Let two factorizations of x have every digit at degree >= 1
  below b, and let d be their difference, so sum_(j<=E) d_j a^j b^(E-j) = 0.
  Modulo b this leaves d_E a^E, so b | d_E, and |d_E| < b forces d_E = 0.
  Divide by b and repeat down to degree 1; then d_0 = 0 too.
* Termination.  Each down move adds a-b to the length, and every length is
  at most x because every atom is >= 1.
* So the down moves from any factorization end at the same form, and each
  move lengthens it: that form has the maximum length.
* Length set.  Single up moves lead from that form to the up form, each one
  lowering the length by exactly a-b, so every length between the two ends
  in steps of a-b occurs.  Any factorization reaches the up form by up moves,
  so its length is congruent to the minimum modulo a-b.  Hence
  L(x) = {min, min + (a-b), ..., max}, as in Chapman, Gotti & Gotti
  (Comm. Algebra 2020, arXiv:1904.00219), and length_stats builds it from
  the two normal forms.

The down normal form and every membership witness come from one carry pass
over a run of degrees.  Each keeps N mod keep of N, its coefficient plus the
carry in, and sends send * (N div keep) on to the next degree.  The down
form keeps b and sends a from the top degree to degree 1; degree 0 keeps the
carry out.  The witness, the up form, keeps a and sends b up the L = top+1
levels of max_atom_exponent, as no atom past q^top fits under x.  A carry
keep^L Q + R into L levels leaves their digits to R and adds send^L Q to
their carry out (keep^L Q adds a multiple of keep at the first level and
passes on as keep^(L-1) send Q; induct on L), so a run splits at m = L // 2.

The witness of x = num/den carries one integer up from q^0.  A member's
denominator divides b^top, so x is out unless den divides b^L; then den is
prime to a, and r = -num a^-L mod den (0 for an integer) makes the start
value s = (num + a^L r) / den an integer.  The carry leaves digits d_i < a
and a carry out c with s = sum d_i q^i + q^L c.  Since s - x = q^L r b^L /
den, x is a member iff c = r b^L / den:
* If it holds, the digits evaluate to x, and they are its up form.
* If x is a member, its up form and r b^L / den copies of q^L present s;
  b^L times s, read bottom-up, forces each digit below level L modulo a
  whatever sits at level L, so those are the carry's digits and its c.

Enumeration runs the up carry with every digit it admits.  If sum n_i q^i
= x then i <= top, and R_i, the value left for copies of q^i, has R_0 = x
and R_(i+1) = (R_i - n_i) b / a.  Level i keeps v = R_i den (v_0 = num) and
admits every n = v den^-1 (mod a) with n <= v // den; the child is
(v - n den) / a * b, and the top digit is v // den.  x is out unless den
divides b^top, so den is prime to a; an integer has den = 1, and its
smallest digit, v mod a, is the carry's.  This is the tree of the rational
base ladder of Akiyama, Frougny & Sakarovitch (Israel J. Math. 168, 2008)
read a-adically: its integer t_i = v b^(top-i) / den admits n with
a | t_i - n b^(top-i) and n <= R_i, and as a is prime to b and den, the
first is a | v - n den.  At the top v = t_top den, so v // den = R_top.
Listing each level's nonzero digits ascending, then 0, yields the strings in
print order, pair lists ascending: strings first differing at level i share
its state v; a nonzero digit n there gives the pair (i, n), and v admits n,
so v > 0, and past the digit 0 the next pair has a higher degree.
Enumeration streams each string in that printed form, a tuple of
(degree, count) pairs; NatPoly(z) is its polynomial.

For integer q (b = 1) the monoid is all of the nonnegative integers, a UFM:
the single factorization of x is x copies of the atom 1, and membership,
enumeration and the up normal form return it directly.  The down normal
form and length_stats need no branch of their own: the carry keeps
N mod 1 = 0 and sends a N on, so every coefficient reaches degree 0,
min = max = x and the length set is {x}.

Everything here is pure and safe for concurrent use; enumeration keeps its
level tables per call.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .polynomials import NatPoly

DEFAULT_ORACLE_CAP = 10**6
# No carry, enumeration's included, runs on integers past this many bits (max_atom_exponent).
MAX_LADDER_BITS = 2**28
# Carry passes of more levels than this are split in two.
_SPLIT_LEVELS = 32


class OracleBudgetExceeded(RuntimeError):
    """The exhaustive enumeration exceeded its state budget."""

    def __init__(self, message: str = "oracle budget exhausted"):
        super().__init__(message)


class NotInMonoidError(ValueError):
    """An operation required a value that is not an element of the monoid."""


class RationalBase(NamedTuple("RationalBase", [("a", int), ("b", int)])):
    """The base q = a/b > 1 in lowest terms.

    b == 1 selects the integer (UFM) regime; the rewriting and enumeration
    operations require b >= 2.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a <= 0 or b <= 0:
            raise ValueError("base requires positive numerator and denominator")
        if math.gcd(a, b) != 1:
            raise ValueError("base a/b must be in lowest terms")
        if a <= b:
            raise ValueError("base must satisfy q = a/b > 1")
        return super().__new__(cls, a, b)

    @classmethod
    def _make(cls, iterable) -> "RationalBase":
        # The inherited _make (and _replace, which calls it) skips __new__.
        return cls(*iterable)

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


def _log_ratio(n: int, d: int) -> float:
    """log(n/d) for integers n >= d > 0, without overflow or cancellation near 1."""
    return math.log1p((n - d) / d) if n < 2 * d else math.log(n) - math.log(d)


def _ladder_estimate(base: RationalBase, num: int, den: int, k: int = 1) -> tuple[int, Optional[str]]:
    """e = int(log_q (num/den)^k) for num >= den > 0, and what a^e and
    num^k b^e need when that is past MAX_LADDER_BITS (else None).

    Where the float quotient of the logs fails, log q is below float
    precision and equals (a-b)/b to it; so does log(num/den) = (num-den)/den
    below 2^-53, and e then comes from those exact integers.  Past the
    largest float, e alone is past the limit, and e log2 a is no float.
    """
    a, b = base.a, base.b
    high, low = k * _log_ratio(num, den), _log_ratio(a, b)
    if low and high / low < math.inf:
        e = int(high / low)
    elif (num - den) << 53 < den:
        e = k * (num - den) * b // (den * (a - b))
    else:
        e = int(Fraction(high) * b / (a - b))
    if e > sys.float_info.max:
        return e, f"an e of {_digit_count(e)} digits, past the limit of {MAX_LADDER_BITS}"
    bits = max(e * math.log2(a), k * num.bit_length() + e * math.log2(b))
    if bits <= MAX_LADDER_BITS:
        return e, None
    return e, f"e near {e}: about {bits:.3g} bits, past the limit of {MAX_LADDER_BITS}"


def _digit_count(n: int) -> int:
    """Decimal digits of n >= 0, without the quadratic int-to-str conversion."""
    digits = max(1, int((n.bit_length() - 1) * math.log10(2)))  # at most the true count
    while 10**digits <= n:
        digits += 1
    return digits


def max_atom_exponent(base: RationalBase, x: Fraction) -> int:
    """Largest e with q^e <= x, or -1 when x < 1 (no atom fits).

    The estimate of _ladder_estimate, corrected on integers to the e with
    a^e den <= num b^e and a^(e+1) den > num b^(e+1), where x = num/den.
    Raises OracleBudgetExceeded, before any power is taken, when the
    estimate puts a^e or num b^e past MAX_LADDER_BITS.
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num < den:
        return -1
    a, b = base.a, base.b
    e, needs = _ladder_estimate(base, num, den)
    if needs:
        raise OracleBudgetExceeded(
            f"q^e <= x at q={base}, where x has {_digit_count(num)} numerator and"
            f" {_digit_count(den)} denominator digits, needs {needs}"
        )
    up, down = a**e, b**e
    while up * den > num * down:
        e, up, down = e - 1, up // a, down // b
    while up * a * den <= num * down * b:
        e, up, down = e + 1, up * a, down * b
    return e


def _carry(terms: dict[int, int], start: int, step: int, levels: int, carry: int, keep: int, send: int) -> int:
    """The carry out of the module docstring's pass over `levels` degrees
    start, start + step, ...; each degree's kept digit replaces its term."""
    if levels > _SPLIT_LEVELS:
        m = levels // 2
        high, low = divmod(carry, keep**m)
        carry = _carry(terms, start, step, m, low, keep, send) + send**m * high
        return _carry(terms, start + step * m, step, levels - m, carry, keep, send)
    for degree in range(start, start + step * levels, step):
        carry, n = divmod(terms.pop(degree, 0) + carry, keep)
        carry *= send
        if n:
            terms[degree] = n
    return carry


def member_witness(base: RationalBase, x: Fraction) -> Optional[NatPoly]:
    """Witness factorization of x, or None when x is not in the monoid.

    The returned witness is the canonical sub-a digit representation, i.e.
    already the minimum-length factorization: the start value s of x,
    carried up (keep a, send b) over the top+1 levels, with the exact test
    on the carry out of the module docstring.  An integer is its own s.
    The carry splits long runs in two; no search is involved.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("monoid elements are nonnegative")
    if base.is_integer:  # 0 too: NatPoly drops a zero coefficient
        return NatPoly({0: x.numerator}) if x.denominator == 1 else None
    a, b = base.a, base.b
    num, den = x.numerator, x.denominator
    levels = max_atom_exponent(base, x) + 1
    start, rest = num, 0  # an integer is its own start value
    if den > 1:
        weight, extra = divmod(b**levels, den)
        if extra:
            return None
        r = -num * pow(a, -levels, den) % den
        start, rest = (num + a**levels * r) // den, r * weight
    digits: dict[int, int] = {}
    if _carry(digits, 0, 1, levels, start, a, b) != rest:
        return None
    return NatPoly(digits)


def up_normal_form(base: RationalBase, z: NatPoly) -> NatPoly:
    """Run up moves to exhaustion: the unique all-coefficients-below-a form,
    the minimum-length factorization and membership witness of z's value."""
    return member_witness(base, z.eval(base.q))


def down_normal_form(base: RationalBase, z: NatPoly) -> NatPoly:
    """Run down moves to exhaustion: coefficients at degree >= 1 all below b,
    the unique such form and the maximum-length factorization (module
    docstring); a carry pass from the top degree down to degree 1."""
    terms = z.terms
    top = z.degree() if z else 0
    carry = _carry(terms, top, -1, top, 0, base.b, base.a)
    terms[0] = terms.get(0, 0) + carry
    return NatPoly(terms)


def iter_factorizations(
    base: RationalBase, x: Fraction, cap: int = DEFAULT_ORACLE_CAP
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Stream the complete factorization set of x (exhaustive oracle), each
    one in the form the CLI prints: a tuple of (degree, count) pairs with
    degrees ascending and counts >= 1.  NatPoly(z) is its polynomial.

    The search tree's nodes are the prefixes n_0 ... n_i of the digit
    strings of the module docstring's branching up carry, the empty root
    included.  A forward pass keeps each level's distinct states v with the
    number of paths to them.  The budget counts tree nodes: the root once,
    then each state its path count times its digit count, read off its
    digit range before its children are found, all before the first yield:
    OracleBudgetExceeded once more than cap are needed.  A backward pass
    builds each state's digit suffixes as printed tuples, once for all its
    parents, nonzero digits ascending and then 0; the root's come in the
    module docstring's print order.
    For x outside the monoid the stream is empty; x = 0 yields the empty
    factorization ().
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("monoid elements are nonnegative")
    if x == 0:
        yield ()
        return
    if base.is_integer:
        if x.denominator == 1:
            yield ((0, x.numerator),)
        return
    a, b = base.a, base.b
    num, den = x.numerator, x.denominator
    top = max_atom_exponent(base, x)
    if top < 0 or pow(b, top, den):
        return
    inverse = pow(den, -1, a)
    left = cap - 1  # the root
    if left < 0:
        raise OracleBudgetExceeded()
    # levels[i]: each state v of level i -> its path count.
    levels = [{num: 1}]
    for _ in range(top):
        below = {}
        for v, count in levels[-1].items():
            first = v * inverse % a
            left -= count * ((v // den - first) // a + 1)
            if left < 0:
                raise OracleBudgetExceeded()
            for n in range(first, v // den + 1, a):
                child = (v - n * den) // a * b
                below[child] = below.get(child, 0) + count
        levels.append(below)
    suffixes = {v: [((top, v // den),) if v else ()] for v in levels.pop()}
    for level in reversed(range(top)):
        below, suffixes = suffixes, {}
        for v in levels.pop():
            first = v * inverse % a
            suffixes[v] = rests = []
            for n in range(first or a, v // den + 1, a):
                head = ((level, n),)
                rests += [head + rest for rest in below[(v - n * den) // a * b]]
            if not first:  # the zero digit goes last: print order
                rests += below[v // a * b]
    yield from suffixes[num]


class LengthStats(NamedTuple):
    """Min/max factorization lengths, their ratio, the up normal form of x
    and the length set {min, min + (a-b), ..., max}, a range of O(1) size."""

    min_len: int
    max_len: int
    min_factorization: NatPoly
    length_set: range

    @property
    def elasticity(self) -> Fraction:
        return Fraction(self.max_len, self.min_len)


def length_stats(base: RationalBase, x: Fraction) -> LengthStats:
    """Length statistics of a nonzero element x.

    min comes from the membership witness, which is already the up normal
    form, max from its down normal form.  The length set is the progression
    between them with step a-b, proved in the module docstring; it is a
    range, so its size costs nothing until a caller lists it.
    """
    x = Fraction(x)
    if x <= 0:
        raise NotInMonoidError("length statistics require a nonzero element")
    minimum = member_witness(base, x)
    if minimum is None:
        raise NotInMonoidError(f"{x} is not an element of the monoid at q={base}")
    min_len = minimum.length()
    max_len = down_normal_form(base, minimum).length()
    return LengthStats(min_len, max_len, minimum, range(min_len, max_len + 1, base.a - base.b))


def enumerate_length_set(
    base: RationalBase, x: Fraction, cap: int = DEFAULT_ORACLE_CAP
) -> set[int]:
    """The length set of x: {0} for x = 0, empty for a non-member.

    The set is length_stats's progression; OracleBudgetExceeded when it
    holds more than cap lengths, so cap bounds the output.  The check slices
    the range, as len() overflows past 2^63 lengths.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("monoid elements are nonnegative")
    if x == 0:
        return {0}
    try:
        lengths = length_stats(base, x).length_set
    except NotInMonoidError:
        return set()
    if lengths[cap:]:
        raise OracleBudgetExceeded()
    return set(lengths)
