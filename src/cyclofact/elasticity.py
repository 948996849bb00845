"""Elasticity at a rational base: forced atoms, full-elasticity certificates
and density scans.  (The algebraic-valuation half, the lower-bound sequence
and the finitely generated formula, is not in the package: no CLI command
runs it, and it lives beside its tests in ``tests/algebraic.py``.)

The centerpiece is ``construct_elasticity``: given a non-integer rational
base q = a/b > 1 and a target ratio s/t >= 1, it produces an element whose
maximum/minimum factorization lengths have ratio exactly s/t, together with
a machine-checkable construction log.  The strategy:

1. find a base element x with known exact lengths (ell, L) such that
   s-t divides t*L - s*ell and t*L - s*ell >= 0;
2. add c = (t*L - s*ell)/(s-t) forced atoms.  A forced atom q^n with
   n > deg(presentation) and q^n(q-1) > value appears in every factorization
   (otherwise a monic integer polynomial of degree n would vanish at q,
   impossible since b >= 2), so each one maps (ell, L) to (ell+1, L+1) and
   shifts the ratio onto s/t exactly.

Candidate base elements are powers a^k scanned from the threshold exponent N
(smallest with q^N > s/t, which makes t*L - s*ell positive), then integer
perturbations a^N + m.  Scanning powers alone can leave the shift count c at
the scale of a^k itself, far beyond anything materializable, while the
perturbation offset walks the residue of t*L - s*ell through every class
modulo s-t at fixed magnitude; the materialization cap ``MATERIALIZE_CAP``
on the shift count keeps certificates explicit.  A target that neither phase
reaches within the caps raises ``ScanCapExceeded``.

Every candidate is an integer n, and n copies of the atom 1 have no digit at
degree >= 1, so by the uniqueness proof in the ``semiring`` docstring they
are the down normal form: L = n, and that form is the presentation the
forced atoms extend.  Only ell, the digit sum of the up form, takes a pass:
the plain up carry of a^k, with no level count, into a digit list that the
perturbations a^N + m then step one atom at a time.  Once the
gaps between forced atoms settle, the remaining atoms come in closed form
(``forced_atom_shift``): no per-atom loop runs past the transient.

Density scans need no search: each element is read off its unique digit
string with all digits below a, its up normal form (the min length); the
down normal form's length (the max) is carried down the same digit walk.
A scan's rows stay integers; the CLI's CSV writer reduces them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import NamedTuple, Optional

from .polynomials import NatPoly
from .semiring import DEFAULT_ORACLE_CAP, OracleBudgetExceeded, RationalBase, _ladder_estimate, max_atom_exponent

DEFAULT_SCAN_CAP = 200
MATERIALIZE_CAP = 2_000


class ScanCapExceeded(RuntimeError):
    """A bounded scan ran out before the construction could complete."""


# ---------------------------------------------------------------------------
# Forced atoms
# ---------------------------------------------------------------------------


class ForcedShift(NamedTuple):
    """Result of adding forced atoms: every factorization must contain them."""

    element: Fraction
    presentation: NatPoly
    forced_exponents: tuple[int, ...]


def _settled_gap(a: int, b: int) -> Optional[int]:
    """The gap g >= 1 whose fixed point a^g/(a^g - b^g) picks gap g, if any.

    The fixed point picks g when q^g(q-1) > a^g/(a^g - b^g), that is
    b^(g+1) < (a-b)(a^g - b^g), and, for g > 1, when
    q^(g-1)(q-1) <= a^g/(a^g - b^g), that is a b^g >= (a-b)(a^g - b^g).
    q^g(q-1) grows with g and the fixed point falls, so the first condition
    holds from its smallest g on, and only that g can meet the second.
    """
    g, ag, bg = 1, a, b
    while not b * bg < (a - b) * (ag - bg):
        g, ag, bg = g + 1, ag * a, bg * b
    return g if g == 1 or a * bg >= (a - b) * (ag - bg) else None


def forced_atom_shift(base: RationalBase, presentation: NatPoly, shifts: int) -> ForcedShift:
    """Add `shifts` forced atoms to the presentation, each bumping (min, max) by (1, 1).

    The exponent of each added atom is the smallest n exceeding the degree
    of the current presentation with q^n(q-1) > current value; both checks
    are exact.  Exponents are strictly increasing, so the added atoms are
    pairwise distinct.

    The loop runs on integers from n = degree and v = sum c_i a^i b^(n-i):
    value = v/b^n and q^n = a^n/b^n, so the test is a^n*(a-b) > v*b.

    Once the gap settles, the remaining atoms come in closed form.  After
    an atom at q^n, with value V = v/b^n, let rho = V/q^n = v/a^n.  The next
    gap is the smallest g >= 1 with q^g(q-1) > rho, so rho picks g exactly
    on I_g = [q^(g-1)(q-1), q^g(q-1)) (I_1 = (0, q(q-1))), and the
    atom maps rho to f(rho) = 1 + rho (b/a)^g.  f is increasing with slope
    (b/a)^g < 1 and fixed point rho* = a^g/(a^g - b^g), so f(x) lies between
    x and rho*.  If rho and rho* both lie in the interval I_g, so does every
    later rho, and every later gap is g (``_settled_gap`` finds the one g
    whose rho* can lie in I_g; 8/5 and 21/13 have none), so the rest are
    settled once the gap just taken is g.  With v/b^n the value before the
    atom just found at q^n, it and the j atoms left sit at n, n+g, ..., n+jg,
    and the numerator over b^(n+jg) is v b^(gj) + sum_(i=0..j) a^(n+ig)
    b^(g(j-i)) = v b^(gj) + a^n (a^(g(j+1)) - b^(g(j+1))) / (a^g - b^g).
    Every path leaves n on the last forced exponent (the degree, with none),
    and the element is built over b^n.  The presentation is built once at
    the end: each forced exponent exceeds the degree before it, so each
    adds a new term with coefficient 1.
    """
    if base.is_integer:
        raise ValueError("forced atoms require a non-integer base (q not an algebraic integer)")
    if presentation.is_zero:
        raise ValueError("forced shifts start from a nonzero element")
    if shifts < 0:
        raise ValueError("shift count must be nonnegative")
    a, b = base.a, base.b
    forced: list[int] = []
    n = presentation.degree()
    v = sum(c * a**i * b ** (n - i) for i, c in presentation.items())
    an = a**n
    g = _settled_gap(a, b)
    for left in reversed(range(shifts)):
        while True:
            n, an, v = n + 1, an * a, v * b
            if an * (a - b) > v * b:
                break
        # The gap just taken is g (never, when g is None): the rest are settled.
        if g and forced and n - forced[-1] == g:
            ag, bg = a**g, b**g
            forced.extend(range(n, n + left * g + 1, g))
            v = v * bg**left + an * ((ag ** (left + 1) - bg ** (left + 1)) // (ag - bg))
            n += left * g
            break
        v += an
        forced.append(n)
    terms = {**presentation.terms, **dict.fromkeys(forced, 1)}
    return ForcedShift(Fraction(v, b**n), NatPoly(terms), tuple(forced))


# ---------------------------------------------------------------------------
# Full-elasticity certificates
# ---------------------------------------------------------------------------


class ElasticityCertificate(NamedTuple):
    """An element realizing a target elasticity, with its construction log."""

    element: Fraction
    presentation: NatPoly
    min_len: int
    max_len: int
    construction_log: tuple[dict, ...]

    @property
    def achieved(self) -> Fraction:
        return Fraction(self.max_len, self.min_len)


def _min_lengths(base: RationalBase, n: int):
    """Yield the min lengths, the up forms' digit sums, of the integers n, n+1, ... (n >= 1).

    The ``semiring`` docstring's up carry of n from q^0 runs once.  Each next
    integer adds the atom 1, and each up move (a copies at a level become b
    at the next) lowers the sum by a - b: ell(n+1) = ell(n) + 1 - j(a-b).
    """
    # Not semiring._carry: its level count and digit dict make it 2.5-3.8x slower here.
    a, b = base.a, base.b
    digits = []
    while n:
        n, d = divmod(n, a)
        digits.append(d)
        n *= b
    ell = sum(digits)
    while True:
        yield ell
        ell += 1
        digits[0] += 1
        i = 0
        while digits[i] >= a:
            digits[i] -= a
            ell -= a - b
            i += 1
            if i == len(digits):
                digits.append(0)
            digits[i] += b


def _candidates(base: RationalBase, s: int, t: int, n_exp: int, scan_cap: int, log: list[dict]):
    """Yield (n, min length of n, select fields) per candidate base element."""
    d = s - t
    # Phase A: powers a^k, where t*L - s*ell > 0 holds from k = N on.
    for k in range(n_exp, n_exp + scan_cap):
        # The carry of a^k runs about log_q a^k levels: max_atom_exponent's
        # size check, made before the power.  It covers phase B's a^N + m.
        _, needs = _ladder_estimate(base, base.a, 1, k)
        if needs:
            raise OracleBudgetExceeded(f"q^e <= a^{k} at q={base}, a candidate for target {s}/{t}, needs {needs}")
        n = base.a**k
        ell = next(_min_lengths(base, n))
        score = t * n - s * ell
        log.append({"step": "scan", "k": k, "min_len": ell, "max_len": n, "residue": score % d})
        yield n, ell, {"kind": "power", "indices": [k]}
        # Stop once the implied shift count outgrows the materialization cap.
        if score // d > MATERIALIZE_CAP:
            log.append({"step": "scan-stop", "reason": "shift count beyond materialization cap"})
            break
    # Phase B: perturbations a^N + m walk the residue of t*L - s*ell through
    # the classes modulo s-t at bounded magnitude.  ell(n+1) <= ell(n) + 1
    # (add the atom 1), so the score falls by at most d per offset: once
    # score // d exceeds the cap by more than the offsets left, no offset up
    # to scan_cap can be selected.  The carry of a^N runs once; each offset
    # steps it by one atom.  This phase logs no rows, so where it stops does
    # not show in the error.
    power = base.a**n_exp
    for m, ell in zip(range(1, scan_cap + 1), islice(_min_lengths(base, power), 1, None)):
        n = power + m
        if (t * n - s * ell) // d - (scan_cap - m) > MATERIALIZE_CAP:
            return
        yield n, ell, {"kind": "perturbed-power", "indices": [n_exp], "offset": m}


def construct_elasticity(
    base: RationalBase,
    target: Fraction,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> ElasticityCertificate:
    """Build an element with elasticity exactly target = s/t >= 1 (module docstring).

    Raises ValueError for a target below 1, and ScanCapExceeded, a message
    alone, if no candidate within scan_cap is selected.
    """
    if base.is_integer:
        raise ValueError("the construction requires a non-integer base q = a/b, b >= 2")
    if target < 1:
        raise ValueError("target requires s >= t >= 1")
    s, t = target.numerator, target.denominator
    log: list[dict] = []
    if s == t:
        pres = NatPoly.atom(0)
        log.append({"step": "select", "kind": "atom", "element": "1"})
        return ElasticityCertificate(Fraction(1), pres, 1, 1, tuple(log))

    n_exp = max_atom_exponent(base, target) + 1
    log.append({"step": "threshold", "N": n_exp, "condition": f"q^N > {s}/{t}"})
    for n, ell, fields in _candidates(base, s, t, n_exp, scan_cap, log):
        c, residue = divmod(t * n - s * ell, s - t)
        if residue == 0 and 0 <= c <= MATERIALIZE_CAP:
            break
    else:
        raise ScanCapExceeded(
            f"no base element with (s-t) | tL - s*ell found within scan cap "
            f"{scan_cap} for target {s}/{t} at q={base}"
        )
    log.append({"step": "select", **fields, "residue": 0, "element": str(n), "shift_count": c})

    shifted = forced_atom_shift(base, NatPoly({0: n}), c)
    log.append(
        {
            "step": "shift",
            "count": c,
            "exponents": list(shifted.forced_exponents),
        }
    )
    cert = ElasticityCertificate(shifted.element, shifted.presentation, ell + c, n + c, tuple(log))
    assert cert.achieved == target
    return cert


# ---------------------------------------------------------------------------
# Density scan
# ---------------------------------------------------------------------------


class ElasticityScan(NamedTuple):
    """Scan rows as integer triples (value * scale, min length, max length).

    A row's value is value/scale and its elasticity max/min; nothing here
    builds those Fractions.
    """

    scale: int
    rows: tuple[tuple[int, int, int], ...]
    complete: bool


def _canonical_forms(
    base: RationalBase, bound: Fraction, budget: int
) -> tuple[int, list[tuple[int, int, int]], bool]:
    """(b^E, [(x b^E, min length, max length)] sorted by x, complete) over the elements x <= bound.

    Each x has exactly one factorization sum d_i q^i with all d_i < a, and
    i <= E = max_atom_exponent(bound) (0 below 1).  A depth-first walk takes
    the strings from d_E down in lexicographic order, as integers
    sum d_i a^i b^(E-i) <= bound * b^E (a prefix that fits extends by zeros,
    so none is a dead end), and stops at the end of the level-0 frame that
    takes it past `budget`: a partial scan costs about what its rows cost.
    The digit sum is the min length; the max length is the down normal
    form's, run along the walk: at level i >= 1 the count carry + d_i keeps
    its remainder mod b and passes a copies per b down; level 0 keeps all.
    """
    a, b, bound = base.a, base.b, Fraction(bound)
    top = max(max_atom_exponent(base, bound), 0)
    scale = b**top
    limit = bound.numerator * scale // bound.denominator
    weight, rows = a**top, []
    # Frames hold the prefix above level i = top + 1 - len(stack) (scaled value, digit sum,
    # carry in, length fixed above) and up to budget + 1 digits of i; weight is a^i b^(E-i).
    stack = [(0, 0, 0, 0, iter(range(min(a, limit // weight + 1, budget + 1))))]
    while stack and len(rows) <= budget:
        value, low, carry, high, digits = stack[-1]
        for d in digits:
            if len(stack) <= top:
                moves, rest = divmod(carry + d, b)
                value, weight = value + d * weight, weight // a * b
                most = min(a, (limit - value) // weight + 1, budget + 1)
                stack.append((value, low + d, moves * a, high + rest, iter(range(most))))
                break
            rows.append((value + d * weight, low + d, high + carry + d))
        else:
            stack.pop()
            weight = weight // b * a
    return scale, sorted(rows[:budget], key=itemgetter(0)), len(rows) <= budget


def monoid_elements_up_to(
    base: RationalBase, bound: Fraction, budget: int = DEFAULT_ORACLE_CAP
) -> tuple[list[Fraction], bool]:
    """All monoid elements <= bound (zero included), sorted, and completeness.

    Past `budget` elements, only those of the first `budget` canonical digit
    strings in lexicographic order from the top digit (see elasticity_scan).
    """
    scale, forms, complete = _canonical_forms(base, bound, budget)
    return [Fraction(value, scale) for value, _, _ in forms], complete


def elasticity_scan(
    base: RationalBase, value_bound: Fraction, budget: int = DEFAULT_ORACLE_CAP
) -> ElasticityScan:
    """Tabulate (x, min length, max length) over the elements up to the bound.

    The rows are the integer triples (x b^E, min, max) of the nonzero
    elements, sorted by value, with the scale b^E; no Fraction is built.
    Min and max are the lengths of the up and down normal forms, read off
    one depth-first digit walk.  Past `budget` elements (zero counted) the
    scan is partial: its budget - 1 rows are the nonzero elements whose
    strings d_E..d_0 come first in lexicographic order (zero high digits,
    not the smallest values), and the walk stops just past them.
    """
    if base.is_integer:
        raise ValueError("the density scan requires a non-integer base")
    scale, rows, complete = _canonical_forms(base, value_bound, budget)
    return ElasticityScan(scale, tuple(rows[1:]), complete)
