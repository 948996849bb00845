"""Elasticity at a rational base: forced atoms, full-elasticity certificates
and density scans.  (The algebraic-valuation half, the lower-bound sequence
and the finitely generated formula, lives in ``algebraic``.)

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
from typing import NamedTuple, Optional

from .polynomials import NatPoly
from .semiring import DEFAULT_ORACLE_CAP, OracleBudgetExceeded, RationalBase, _ladder_estimate, max_atom_exponent

DEFAULT_SCAN_CAP = 200
MATERIALIZE_CAP = 2_000


class ScanCapExceeded(RuntimeError):
    """A bounded scan ran out before the construction could complete."""

    def __init__(self, message: str, partial_log: list | None = None):
        super().__init__(message)
        self.partial_log = partial_log or []


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


def forced_atom_shift(
    base: RationalBase, beta: Fraction, presentation: NatPoly, shifts: int
) -> ForcedShift:
    """Add `shifts` forced atoms to beta, each bumping (min, max) by (1, 1).

    The exponent of each added atom is the smallest n exceeding the degree
    of the current presentation with q^n(q-1) > current value; both checks
    are exact.  Exponents are strictly increasing, so the added atoms are
    pairwise distinct.

    The loop runs on integers: value = v/b^n and q^n = a^n/b^n, so the
    test is a^n*(a-b) > v*b.

    Once the gap settles, the remaining atoms come in closed form.  After
    an atom at q^n, with value V = v/b^n, let rho = V/q^n = v/a^n.  The next
    gap is the smallest g >= 1 with q^g(q-1) > rho, so rho picks g exactly
    on I_g = [q^(g-1)(q-1), q^g(q-1)) (I_1 = (0, q(q-1))), and the
    atom maps rho to f(rho) = 1 + rho (b/a)^g.  f is increasing with slope
    (b/a)^g < 1 and fixed point rho* = a^g/(a^g - b^g), so f(x) lies between
    x and rho*.  If rho and rho* both lie in the interval I_g, so does every
    later rho, and every later gap is g (``_settled_gap`` finds the one g
    whose rho* can lie in I_g; 8/5 and 21/13 have none).  The j atoms left
    then sit at n+g, ..., n+jg, and the value's numerator over b^(n+jg) is
    v b^(gj) + sum_(i=1..j) a^(n+ig) b^(g(j-i))
    = v b^(gj) + a^(n+g) (a^(gj) - b^(gj)) / (a^g - b^g).
    """
    if base.is_integer:
        raise ValueError("forced atoms require a non-integer base (q not an algebraic integer)")
    beta = Fraction(beta)
    if beta <= 0 or presentation.is_zero:
        raise ValueError("forced shifts start from a nonzero element")
    if presentation.eval(base.q) != beta:
        raise ValueError("presentation does not evaluate to beta")
    if shifts < 0:
        raise ValueError("shift count must be nonnegative")
    a, b = base.a, base.b
    terms = presentation.terms
    forced: list[int] = []
    n = presentation.degree() + 1
    # beta's denominator divides b^degree, so v = beta * b^n is an integer.
    v = beta.numerator * (b**n // beta.denominator)
    an = a**n
    g = _settled_gap(a, b)
    for left in reversed(range(shifts)):
        while not an * (a - b) > v * b:
            n += 1
            an *= a
            v *= b
        terms[n] = terms.get(n, 0) + 1
        v += an
        forced.append(n)
        # rho = v/a^n lies in I_g: q^g(q-1) > rho, and rho >= q^(g-1)(q-1) for g > 1.
        if g and v * b ** (g + 1) < an * a**g * (a - b) and (
            g == 1 or v * b**g >= an * a ** (g - 1) * (a - b)
        ):
            ag, bg = a**g, b**g
            settled = range(n + g, n + left * g + 1, g)
            terms.update(dict.fromkeys(settled, 1))
            forced.extend(settled)
            v = v * bg**left + an * ag * ((ag**left - bg**left) // (ag - bg))
            n += left * g
            break
        n += 1
        an *= a
        v *= b
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

    Raises ValueError for a target below 1, and ScanCapExceeded (with the
    partial residue table) if no candidate within scan_cap is selected.
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
            f"{scan_cap} for target {s}/{t} at q={base}",
            partial_log=log,
        )
    log.append({"step": "select", **fields, "residue": 0, "element": str(n), "shift_count": c})

    shifted = forced_atom_shift(base, Fraction(n), NatPoly({0: n}), c)
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
    i <= E = max_atom_exponent(bound).  The strings are grown from d_E down in
    lexicographic order, as integers sum d_i a^i b^(E-i) <= bound * b^E; a
    prefix that fits extends by zeros, so no prefix is a dead end.  Keeping
    only the first `budget` prefixes of each level keeps the first `budget`
    strings; a level stops at budget + 1 children, enough to tell it was cut.
    The digit sum is the min length; the max length is the down normal
    form's, run along the walk: at level i >= 1 the count carry + d_i keeps
    its remainder mod b and passes a copies per b down; level 0 keeps all.
    """
    bound = Fraction(bound)
    a, b = base.a, base.b
    top = max_atom_exponent(base, bound)
    scale = b ** max(top, 0)
    limit = bound.numerator * scale // bound.denominator
    # (scaled value, digit sum, carry into this level, length fixed above it)
    prefixes = [(0, 0, 0, 0)]
    complete = True
    for i in range(top, -1, -1):
        weight = a**i * b ** (top - i)
        longer, room = [], budget + 1
        for value, low, carry, high in prefixes:
            digits = min(a, (limit - value) // weight + 1, room)
            room -= digits
            for d in range(digits):
                moves, rest = divmod(carry + d, b) if i else (0, carry + d)
                longer.append((value + d * weight, low + d, moves * a, high + rest))
        complete = complete and len(longer) <= budget
        prefixes = longer[:budget]
    prefixes.sort()
    return scale, [(value, low, high) for value, low, _, high in prefixes], complete


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
    An element's canonical digit string is its up normal form: the digit
    sum is the minimum length, and the down normal form, carried down the
    same digit walk, gives the maximum.  Past
    `budget` elements (zero counted) the scan is partial: its budget - 1 rows
    are the nonzero elements whose strings d_E..d_0 (E the top exponent under
    the bound) come first in lexicographic order, i.e. those with zero high
    digits, not the smallest values.
    """
    if base.is_integer:
        raise ValueError("the density scan requires a non-integer base")
    scale, rows, complete = _canonical_forms(base, value_bound, budget)
    return ElasticityScan(scale, tuple(rows[1:]), complete)
