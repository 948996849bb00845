"""Sparse exact polynomials: nonnegative-integer and rational.

Two thin subclasses of one sparse ``{degree: coefficient}`` core, which
holds the storage, the queries and ``+``, ``-`` and ``*``:

* ``NatPoly``  -- strictly positive integer coefficients.  Doubles as a
  factorization (coefficient at i = multiplicity of the atom q^i) and as an
  element presentation f with f(q) = value.  The factorization enumeration
  streams tuples of (degree, count) pairs instead, the printed form;
  ``NatPoly(z)`` is the polynomial of one.
* ``RatPoly``  -- rational coefficients, stored as Fractions: the minimal
  polynomials of minimal-pair computations and of ``algebraic``, and the
  output of the polynomial-string parser.  Adds the remainder ``mod``.

Equal coefficient maps compare equal across the two classes.

Zero coefficients are never stored, so the zero polynomial is the empty map;
it is a distinct queryable state (``is_zero``) and asking for its order or
degree is a hard error.  Sparse maps suit presentations: few terms, large
exponents.  The constructor orders the terms by degree once; no reader sorts.

All instances are immutable values and safe to share across threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class ZeroPolynomialError(ValueError):
    """Raised by operations that are undefined on the zero polynomial."""


def _clean(terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> dict[int, int]:
    if hasattr(terms, "items"):
        # One coefficient per degree: nothing to merge.  Carry digits and forced atoms already ascend.
        degrees = list(terms)
        out = dict(terms) if degrees == sorted(degrees) else dict(sorted(terms.items()))
    else:
        out = {}
        for deg, coeff in sorted(terms):
            out[deg] = out.pop(deg, 0) + coeff  # a repeated degree is the last key so far
    lowest = next(iter(out), 0)
    if lowest < 0:
        raise ValueError(f"negative degree {lowest}")
    return out if all(out.values()) else {deg: coeff for deg, coeff in out.items() if coeff}


class _SparsePoly:
    """Shared storage, queries and arithmetic of the two wrappers.

    Arithmetic builds the left operand's type, so the subclass's check hook
    vets every result.
    """

    __slots__ = ("_terms", "_hash")
    _zero = 0

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        cleaned = _clean(terms)
        self._check(cleaned)
        self._terms = cleaned
        self._hash: int | None = None

    @staticmethod
    def _check(terms: dict[int, int]) -> None:
        pass

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, degree: int) -> int:
        return self._terms.get(degree, self._zero)

    def order(self) -> int:
        """min(support) = largest d with X^d dividing the polynomial."""
        if not self._terms:
            raise ZeroPolynomialError("undefined order of the zero polynomial")
        return next(iter(self._terms))

    def degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("undefined degree of the zero polynomial")
        return next(reversed(self._terms))

    def eval(self, x: Fraction) -> Fraction:
        """Exact value sum(c_i * x^i) as a reduced rational.

        With x = n/d and degrees e_0 < ... < e_k the value is
        n^e_0 * S / d^e_k, where S = sum c_i n^(e_i - e_0) d^(e_k - e_i).
        S is merged by halves: a run lo..hi joins the next run lo'..hi' as
        S * d^(hi' - hi) + S' * n^(lo' - lo), so large coefficients meet
        large powers only in the last merges, and one Fraction is built at
        the end.  The merges are exact on Fraction coefficients too.
        """
        x = Fraction(x)
        n, d = x.numerator, x.denominator
        runs = [(coeff, deg, deg) for deg, coeff in self._terms.items()]
        if not runs:
            return Fraction(0)
        while len(runs) > 1:
            merged = [
                (s * d ** (hi2 - hi) + s2 * n ** (lo2 - lo), lo, hi2)
                for (s, lo, hi), (s2, lo2, hi2) in zip(runs[::2], runs[1::2])
            ]
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        s, lo, hi = runs[0]
        return Fraction(n**lo * s, d**hi)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def to_pairs(self) -> list[tuple[int, int]]:
        """JSON form: the stored (degree, coefficient) tuples by ascending degree; json writes them as arrays."""
        return list(self._terms.items())

    def __add__(self, other):
        return type(self)([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other):
        return type(self)([*self._terms.items(), *((d, -c) for d, c in other._terms.items())])

    def __mul__(self, other):
        return type(self)(
            (d1 + d2, c1 * c2)
            for d1, c1 in self._terms.items()
            for d2, c2 in other._terms.items()
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, _SparsePoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return f"{type(self).__name__}(0)"
        parts = []
        for deg, coeff in self._terms.items():
            if deg == 0:
                parts.append(f"{coeff}")
            elif deg == 1:
                parts.append(f"{coeff}*X" if coeff != 1 else "X")
            else:
                parts.append(f"{coeff}*X^{deg}" if coeff != 1 else f"X^{deg}")
        return f"{type(self).__name__}({' + '.join(parts)})"


class NatPoly(_SparsePoly):
    """Sparse polynomial with strictly positive integer coefficients.

    Also the factorization type: coefficient n_i at degree i means n_i
    copies of the atom q^i, so ``length`` is the formal number of atoms.
    """

    @staticmethod
    def _check(terms: dict[int, int]) -> None:
        if terms and min(terms.values()) < 0:
            deg = next(deg for deg, coeff in terms.items() if coeff < 0)
            raise ValueError(f"negative coefficient {terms[deg]} at degree {deg}")

    @classmethod
    def zero(cls) -> "NatPoly":
        return cls()

    @classmethod
    def atom(cls, exponent: int) -> "NatPoly":
        return cls({exponent: 1})

    def length(self) -> int:
        """Sum of coefficients, i.e. the value at 1 (factorization length)."""
        return sum(self._terms.values())

    def __pow__(self, n: int) -> "NatPoly":
        if n < 0:
            raise ValueError("negative power")
        result = NatPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result


class RatPoly(_SparsePoly):
    """Sparse polynomial with rational coefficients, stored as Fractions."""

    _zero = Fraction(0)

    @staticmethod
    def _check(terms: dict[int, Fraction]) -> None:
        for deg, coeff in terms.items():
            terms[deg] = Fraction(coeff)

    def is_monic(self) -> bool:
        return bool(self._terms) and self.coeff(self.degree()) == 1

    def denominator_lcm(self) -> int:
        """lcm of the coefficient denominators (1 for the zero polynomial)."""
        ell = 1
        for coeff in self._terms.values():
            ell = math.lcm(ell, coeff.denominator)
        return ell

    def mod(self, divisor: "RatPoly") -> "RatPoly":
        """Remainder of exact division by a nonzero polynomial."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial modulo zero")
        ddeg = divisor.degree()
        lead = divisor.coeff(ddeg)
        rem = self
        while rem and rem.degree() >= ddeg:
            top = rem.degree()
            factor = rem.coeff(top) / lead
            rem -= RatPoly({top - ddeg + d: factor * c for d, c in divisor._terms.items()})
        return rem


_TERM_RE = re.compile(
    r"""^(?P<coeff>\d+(?:\s*/\s*0*[1-9]\d*)?)?\s*\*?\s*
        (?P<var>[Xx](?:\s*\^\s*(?P<exp>\d+))?)?$""",
    re.VERBOSE,
)


def parse_polynomial(text: str) -> RatPoly:
    """Parse strings like "X^2 - 3X + 1" or "X - 3/2" into a RatPoly.

    Accepted term syntax: optional rational coefficient, optional '*',
    optional X with optional '^exp'.  Terms are combined left to right with
    '+'/'-' separators.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    # Tokenize into signed terms.  A leading sign is optional.
    chunks = re.findall(r"[+-]?[^+-]+", s)
    terms: list[tuple[int, Fraction]] = []
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"malformed polynomial term {chunk!r} in {text!r}")
        coeff = Fraction(m.group("coeff").replace(" ", "")) if m.group("coeff") else Fraction(1)
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        terms.append((exp, sign * coeff))
    return RatPoly(terms)
