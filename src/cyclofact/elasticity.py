"""Elasticity machinery: bounds, the finitely-generated formula, forced
atoms, full-elasticity certificates and density scans.

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
modulo s-t at fixed magnitude; a materialization cap keeps certificates
explicit.  The residue-window selection over pure powers (geometrically
spaced indices sharing a residue class) is retained as
``residue_window_scan`` for inspection; its shift counts are astronomically
large whenever single powers fail, so certificates never route through it.

Density scans need no search: each element is read off its unique digit
string with all digits below a, its up normal form (the min length); the
down normal form's length (the max) is carried down the same digit walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebraic import AlgebraicNumber, power_coordinates
from .minimal_pair import MinimalPair, minimal_pair
from .polynomials import NatPoly, RatPoly
from .semiring import (
    Budget,
    OracleBudgetExceeded,
    RationalBase,
    down_normal_form,
    length_stats,
    max_atom_exponent,
    member_witness,
)

DEFAULT_SCAN_CAP = 200
DEFAULT_MATERIALIZE_CAP = 2_000
DEFAULT_ELEMENT_BUDGET = 10**6


class ScanCapExceeded(RuntimeError):
    """A bounded scan ran out before the construction could complete."""

    def __init__(self, message: str, partial_log: list | None = None):
        super().__init__(message)
        self.partial_log = partial_log or []


@dataclass(frozen=True)
class ElasticityTarget:
    """Target ratio s/t in lowest terms, s >= t >= 1."""

    s: int
    t: int

    def __post_init__(self):
        if self.t < 1 or self.s < self.t:
            raise ValueError("target requires s >= t >= 1")
        if math.gcd(self.s, self.t) != 1:
            raise ValueError("target s/t must be in lowest terms")

    @classmethod
    def from_rational(cls, ratio: Fraction) -> "ElasticityTarget":
        ratio = Fraction(ratio)
        return cls(ratio.numerator, ratio.denominator)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.s, self.t)


# ---------------------------------------------------------------------------
# Lower-bound sequence (the powers of the minimal-pair element)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundStep:
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
    q0(1); its n-th power has elasticity at least (larger/smaller)**n.  When
    alpha is a non-integer rational > 1 the exact elasticity is computed for
    comparison; otherwise only the bound is returned.
    """
    if n < 1:
        raise ValueError("power n must be positive")
    lp, lq = pair.p.length(), pair.q0.length()
    if lp == lq:
        raise ValueError("1 is a root; minimal pair degenerate")
    low, high = (pair.p, pair.q0) if lp < lq else (pair.q0, pair.p)
    presentation = low**n
    bound = Fraction(high.length(), low.length()) ** n
    element = None
    exact = None
    if alpha is not None:
        alpha = Fraction(alpha)
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


@dataclass(frozen=True)
class FormulaResult:
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
    coords: Sequence[tuple[Fraction, ...]],
    k: int,
    budget: Budget,
) -> bool:
    """Does root^k equal a nonnegative-integer combination of lower powers?

    Searches coefficients for degrees k-1 down to n (depth-first, residual
    kept as exact power-basis coordinates, pruned by sign), then demands the
    remaining residual be a nonnegative integer vector, i.e. a combination
    of 1..root^(n-1).  Each search node costs one unit of the budget.
    """
    n = len(coords[0])
    uppers = list(range(k - 1, n - 1, -1))

    def rec(idx: int, residual: tuple[Fraction, ...]) -> bool:
        budget.spend()
        if idx == len(uppers):
            return all(c >= 0 and c.denominator == 1 for c in residual)
        i = uppers[idx]
        step = coords[i]
        current = residual
        while True:
            if rec(idx + 1, current):
                return True
            current = tuple(r - s for r, s in zip(current, step))
            if alpha.sign_of_coords(current) < 0:
                return False

    return rec(0, coords[k])


def elasticity_formula(
    minpoly: RatPoly,
    root_interval: tuple[Fraction, Fraction],
    atom_budget: int,
    node_budget: int = 100_000,
) -> FormulaResult:
    """Monoid elasticity from the minimal pair, gated by an atom census.

    The formula max{p(1)/q0(1), q0(1)/p(1)} requires the atom set to be
    exactly {1, root, ..., root^deg}.  The census decides, for each power up
    to atom_budget, whether it decomposes into lower powers (exact linear
    algebra in the power basis).  Decomposability of root^(deg+1) propagates
    to all higher powers, so a census that finds atoms exactly at 0..deg is
    conclusive.  Outcomes other than a verified hypothesis are reported as
    inapplicable (with the refuting evidence) or inconclusive (budget).
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
    coords = power_coordinates(minpoly, atom_budget)
    budget = Budget(node_budget)
    atoms = list(range(n))
    decomposed: list[int] = []
    for k in range(n, atom_budget + 1):
        try:
            verdict = _decomposes(alpha, coords, k, budget)
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


# ---------------------------------------------------------------------------
# Forced atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForcedShift:
    """Result of adding forced atoms: every factorization must contain them."""

    element: Fraction
    presentation: NatPoly
    forced_exponents: tuple[int, ...]


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
    for _ in range(shifts):
        while not an * (a - b) > v * b:
            n += 1
            an *= a
            v *= b
        terms[n] = terms.get(n, 0) + 1
        v += an
        forced.append(n)
        n += 1
        an *= a
        v *= b
    return ForcedShift(Fraction(v, b**n), NatPoly(terms), tuple(forced))


# ---------------------------------------------------------------------------
# Full-elasticity certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElasticityCertificate:
    """An element realizing a target elasticity, with its construction log."""

    element: Fraction
    presentation: NatPoly
    min_len: int
    max_len: int
    achieved: Fraction
    construction_log: tuple[dict, ...]

    def __post_init__(self):
        if Fraction(self.max_len, self.min_len) != self.achieved:
            raise ValueError("tracked lengths do not realize the claimed ratio")


def _power_stats(base: RationalBase, k: int) -> tuple[int, int, int]:
    """(min_len, max_len, top_degree_of_min_factorization) for a^k."""
    x = Fraction(base.a**k)
    witness = member_witness(base, x)
    assert witness is not None
    return witness.length(), base.a**k, witness.degree()


def construct_elasticity(
    base: RationalBase,
    target: ElasticityTarget,
    scan_cap: int = DEFAULT_SCAN_CAP,
    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
) -> ElasticityCertificate:
    """Build an element with elasticity exactly target.s/target.t.

    Scans powers a^k from the threshold exponent, then integer
    perturbations of a^N, for a base element whose length pair satisfies
    the divisibility condition with a materializable shift count; then adds
    the forced atoms.  Raises ScanCapExceeded (with the partial residue
    table) if the bounded scan finds none.
    """
    if base.is_integer:
        raise ValueError("the construction requires a non-integer base q = a/b, b >= 2")
    s, t = target.s, target.t
    log: list[dict] = []
    if s == t:
        pres = NatPoly.atom(0)
        log.append({"step": "select", "kind": "atom", "element": "1"})
        return ElasticityCertificate(Fraction(1), pres, 1, 1, Fraction(1), tuple(log))

    q = base.q
    d = s - t
    n_exp = 0
    qn = Fraction(1)
    while not qn > target.ratio:
        n_exp += 1
        qn *= q
    log.append({"step": "threshold", "N": n_exp, "condition": f"q^N > {s}/{t}"})

    chosen: Optional[tuple[Fraction, int, int, int, dict]] = None

    # Phase A: single powers a^k.  t*L - s*ell > 0 holds for k >= N; stop
    # once the implied shift count outgrows the materialization cap.
    for k in range(n_exp, n_exp + scan_cap):
        ell, big_l, _ = _power_stats(base, k)
        score = t * big_l - s * ell
        residue = score % d
        log.append(
            {"step": "scan", "k": k, "min_len": ell, "max_len": big_l, "residue": residue}
        )
        if residue == 0 and 0 <= score // d <= materialize_cap:
            chosen = (
                Fraction(base.a**k),
                ell,
                big_l,
                score // d,
                {"step": "select", "kind": "power", "indices": [k], "residue": 0},
            )
            break
        if score // d > materialize_cap:
            log.append({"step": "scan-stop", "reason": "shift count beyond materialization cap"})
            break

    # Phase B: integer perturbations a^N + m.  The offset walks the residue
    # of t*L - s*ell through the classes modulo s-t at bounded magnitude.
    if chosen is None:
        for m in range(1, scan_cap + 1):
            x = Fraction(base.a**n_exp + m)
            st = length_stats(base, x)
            score = t * st.max_len - s * st.min_len
            if score >= 0 and score % d == 0 and score // d <= materialize_cap:
                chosen = (
                    x,
                    st.min_len,
                    st.max_len,
                    score // d,
                    {
                        "step": "select",
                        "kind": "perturbed-power",
                        "indices": [n_exp],
                        "offset": m,
                        "residue": 0,
                    },
                )
                break

    if chosen is None:
        raise ScanCapExceeded(
            f"no base element with (s-t) | tL - s*ell found within scan cap "
            f"{scan_cap} for target {s}/{t} at q={base}",
            partial_log=log,
        )

    x, ell, big_l, c, selection = chosen
    selection = dict(selection, element=str(x.numerator), shift_count=c)
    log.append(selection)

    witness = member_witness(base, x)
    assert witness is not None
    pres = down_normal_form(base, witness)
    shifted = forced_atom_shift(base, x, pres, c)
    log.append(
        {
            "step": "shift",
            "count": c,
            "exponents": list(shifted.forced_exponents),
        }
    )
    min_len = ell + c
    max_len = big_l + c
    achieved = Fraction(max_len, min_len)
    assert achieved == target.ratio
    return ElasticityCertificate(
        shifted.element, shifted.presentation, min_len, max_len, achieved, tuple(log)
    )


# ---------------------------------------------------------------------------
# Residue-window selection over pure powers (kept for inspection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowScanRecord:
    k: int
    min_len: int
    top_degree: int
    residue: int


@dataclass(frozen=True)
class WindowSelection:
    """s-t window-ordered power indices sharing one residue class.

    The element sum(a^k_j) has min length sum(ell_j) because the windows
    [k_j, m_j] are pairwise disjoint and increasing, so its shift count
    (t*L - s*ell)/(s-t) is exact; it is reported symbolically because it is
    generally far beyond materialization.
    """

    residue: int
    indices: tuple[int, ...]
    records: tuple[WindowScanRecord, ...]
    min_len: int
    max_len: int
    shift_count: int


def residue_window_scan(
    base: RationalBase, target: ElasticityTarget, scan_cap: int = 2000
) -> WindowSelection:
    """Scan powers a^k for s-t window-compatible indices with equal residue.

    Indices are accepted greedily: k joins its residue class when it exceeds
    the top degree of the previous member's minimum factorization.  The
    first class to collect s-t members wins (ties cannot occur since each k
    updates a single class).
    """
    if base.is_integer:
        raise ValueError("residue windows require a non-integer base")
    s, t = target.s, target.t
    if s == t:
        raise ValueError("trivial target 1/1 needs no residue matching")
    d = s - t
    q = base.q
    n_exp = 0
    qn = Fraction(1)
    while not qn > target.ratio:
        n_exp += 1
        qn *= q
    records: list[WindowScanRecord] = []
    classes: dict[int, list[WindowScanRecord]] = {}
    for k in range(n_exp, n_exp + scan_cap):
        ell, big_l, top = _power_stats(base, k)
        residue = (t * big_l - s * ell) % d
        rec = WindowScanRecord(k, ell, top, residue)
        records.append(rec)
        members = classes.setdefault(residue, [])
        if not members or k > members[-1].top_degree:
            members.append(rec)
        if len(members) == d:
            ell_x = sum(r.min_len for r in members)
            big_x = sum(base.a**r.k for r in members)
            score = t * big_x - s * ell_x
            assert score % d == 0
            return WindowSelection(
                residue,
                tuple(r.k for r in members),
                tuple(records),
                ell_x,
                big_x,
                score // d,
            )
    raise ScanCapExceeded(
        f"residue windows incomplete after {scan_cap} powers for target {s}/{t}",
        partial_log=[r.__dict__ for r in records],
    )


# ---------------------------------------------------------------------------
# Density scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    value: Fraction
    min_len: int
    max_len: int
    elasticity: Fraction


@dataclass(frozen=True)
class ElasticityScan:
    rows: tuple[ScanRow, ...]
    complete: bool


def _canonical_forms(
    base: RationalBase, bound: Fraction, budget: int
) -> tuple[list[tuple[Fraction, int, int]], bool]:
    """([(x, min length, max length)] sorted by x, complete) over the elements x <= bound.

    Each x has exactly one factorization sum d_i q^i with all d_i < a, and
    i <= E = max_atom_exponent(bound).  The strings are grown from d_E down in
    lexicographic order, as integers sum d_i a^i b^(E-i) <= bound * b^E; a
    prefix that fits extends by zeros, so no prefix is a dead end.  Keeping
    only the first `budget` prefixes of each level keeps the first `budget`
    strings.  The digit sum is the min length; the max length is the down
    normal form's, run along the walk: at level i >= 1 the count carry + d_i
    keeps its remainder mod b and passes a copies per b down; level 0 keeps all.
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
        longer = []
        for value, low, carry, high in prefixes:
            for d in range(min(a, (limit - value) // weight + 1)):
                moves, rest = divmod(carry + d, b) if i else (0, carry + d)
                longer.append((value + d * weight, low + d, moves * a, high + rest))
        complete = complete and len(longer) <= budget
        prefixes = longer[:budget]
    prefixes.sort()
    return [(Fraction(value, scale), low, high) for value, low, _, high in prefixes], complete


def monoid_elements_up_to(
    base: RationalBase, bound: Fraction, budget: int = DEFAULT_ELEMENT_BUDGET
) -> tuple[list[Fraction], bool]:
    """All monoid elements <= bound (zero included), sorted, and completeness.

    Past `budget` elements, only those of the first `budget` canonical digit
    strings in lexicographic order from the top digit (see elasticity_scan).
    """
    forms, complete = _canonical_forms(base, bound, budget)
    return [value for value, _, _ in forms], complete


def elasticity_scan(
    base: RationalBase, value_bound: Fraction, budget: int = DEFAULT_ELEMENT_BUDGET
) -> ElasticityScan:
    """Tabulate (x, min, max, elasticity) over all elements up to the bound.

    Rows are sorted by value.  An element's canonical digit string is its up
    normal form: the digit sum is the minimum length, and the down normal
    form, carried down the same digit walk, gives the maximum.  Past
    `budget` elements (zero counted) the scan is partial: its budget - 1 rows
    are the nonzero elements whose strings d_E..d_0 (E the top exponent under
    the bound) come first in lexicographic order, i.e. those with zero high
    digits, not the smallest values.
    """
    if base.is_integer:
        raise ValueError("the density scan requires a non-integer base")
    forms, complete = _canonical_forms(base, value_bound, budget)
    rows = (ScanRow(value, low, high, Fraction(high, low)) for value, low, high in forms[1:])
    return ElasticityScan(tuple(rows), complete)
