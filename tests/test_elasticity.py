import io
import json
import math
import time
from fractions import Fraction
from fractions import Fraction as F
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import cyclofact.elasticity as elasticity
from cyclofact.cli import write_scan_csv
from cyclofact.elasticity import (
    ScanCapExceeded,
    construct_elasticity,
    elasticity_scan,
    forced_atom_shift,
    monoid_elements_up_to,
)
from cyclofact.polynomials import NatPoly
from cyclofact.rationals import parse_rat
from cyclofact.semiring import (
    DEFAULT_ORACLE_CAP,
    RationalBase,
    down_normal_form,
    iter_factorizations,
    length_stats,
    max_atom_exponent,
    member_witness,
    up_normal_form,
)
from test_contract import pinned_outcomes
from test_semiring import BASES, brute_force_members

B32 = RationalBase(3, 2)
# The first four settle at once; 7/5, 11/10, 13/6 and 9/7 settle after a
# transient or at gap 1; 8/5 and 21/13 never settle.
SHIFT_BASES = [
    RationalBase(a, b)
    for a, b in ((3, 2), (5, 3), (7, 4), (5, 2), (7, 5), (11, 10), (13, 6), (9, 7), (8, 5), (21, 13))
]
# Every coprime a/b with 2 <= b < a <= 30: 248 bases, 35 of which never settle
# (8/5, 11/6, 13/12, 19/10, ...); the others settle at gaps up to 101.
COPRIME_BASES = [RationalBase(a, b) for a in range(3, 31) for b in range(2, a) if math.gcd(a, b) == 1]
GRID_BASES = [RationalBase(3, 2), RationalBase(5, 3), RationalBase(5, 2), RationalBase(7, 4)]


def coprime_targets(smax=9):
    return [
        F(s, t)
        for s in range(2, smax + 1)
        for t in range(1, s)
        if math.gcd(s, t) == 1
    ]


def fraction_forced_shift(q, beta, presentation, shifts):
    """Reference: the forced-atom loop on Fractions, value and q^n exact."""
    value = beta
    terms = presentation.terms
    forced = []
    n = presentation.degree() + 1
    qn = q**n
    for _ in range(shifts):
        while not qn * (q - 1) > value:
            n += 1
            qn *= q
        terms[n] = terms.get(n, 0) + 1
        value += qn
        forced.append(n)
        n += 1
        qn *= q
    return value, NatPoly(terms), tuple(forced)


def forced_atom_shift_walk(base, beta, presentation, shifts):
    """Reference for forced_atom_shift: the integer loop, one atom at a time.

    value = v/b^n and q^n = a^n/b^n, so q^n(q-1) > value is a^n(a-b) > v b.
    """
    a, b = base.a, base.b
    terms = presentation.terms
    forced = []
    n = presentation.degree() + 1
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
    return F(v, b**n), NatPoly(terms), tuple(forced)


class TestForcedAtomShift:
    @given(
        st.sampled_from(SHIFT_BASES),
        st.dictionaries(st.integers(0, 8), st.integers(1, 12), min_size=1, max_size=5),
        st.integers(0, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_loop(self, base, terms, shifts):
        pres = NatPoly(terms)
        beta = pres.eval(base.q)
        shift = forced_atom_shift(base, pres, shifts)
        expected = fraction_forced_shift(base.q, beta, pres, shifts)
        assert (shift.element, shift.presentation, shift.forced_exponents) == expected

    # A base of SHIFT_BASES with up to the materialization cap of shifts, or any coprime base with up to 300.
    base_and_shifts = st.shared(
        st.one_of(
            st.tuples(st.sampled_from(SHIFT_BASES), st.integers(0, 2000)),
            st.tuples(st.sampled_from(COPRIME_BASES), st.integers(0, 300)),
        ),
        key="base and shifts",
    )

    @given(
        base_and_shifts.map(itemgetter(0)),
        st.dictionaries(st.integers(0, 8), st.integers(1, 12), min_size=1, max_size=5),
        base_and_shifts.map(itemgetter(1)),
    )
    @example(RationalBase(11, 10), {0: 1}, 2000)  # the longest transient
    @example(RationalBase(21, 13), {3: 2}, 2000)  # never settles
    @settings(max_examples=20, deadline=None)
    def test_matches_the_per_atom_walk_up_to_the_materialization_cap(self, base, terms, shifts):
        pres = NatPoly(terms)
        beta = pres.eval(base.q)
        shift = forced_atom_shift(base, pres, shifts)
        expected = forced_atom_shift_walk(base, beta, pres, shifts)
        assert (shift.element, shift.presentation, shift.forced_exponents) == expected

    def test_closed_form_takes_over_once_settled(self):
        # At 11/10 the 2,000 atoms settle at gap 26 after a transient; placed
        # one at a time they take over ten times as long.
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            forced_atom_shift(RationalBase(11, 10), NatPoly({0: 1}), 2000)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.25, f"2,000 forced atoms at 11/10 took {min(elapsed):.2f}s"

    def test_settled_gap_per_base(self):
        gaps = {base: elasticity._settled_gap(base.a, base.b) for base in SHIFT_BASES}
        assert {str(base): g for base, g in gaps.items()} == {
            "3/2": 3, "5/3": 2, "7/4": 2, "5/2": 1, "7/5": 4, "11/10": 26,
            "13/6": 1, "9/7": 6, "8/5": None, "21/13": None,
        }
        # Once settled, a long shift ends in steps of that gap.
        for base, g in gaps.items():
            tail = forced_atom_shift(base, NatPoly({0: 1}), 300).forced_exponents[-50:]
            steps = {y - x for x, y in zip(tail, tail[1:])}
            assert (steps == {g}) if g else (len(steps) > 1), base

    def test_single_shift_example(self):
        shift = forced_atom_shift(B32, NatPoly({0: 3}), 1)
        assert shift.forced_exponents == (5,)
        assert shift.element == F(339, 32)
        zs = {NatPoly(z) for z in iter_factorizations(B32, shift.element)}
        zs_base = list(iter_factorizations(B32, F(3)))
        lifted = {NatPoly(z) + NatPoly.atom(5) for z in zs_base}
        assert zs == lifted
        assert sorted(z.length() for z in zs) == [3, 4]
        stats = length_stats(B32, shift.element)
        assert stats.elasticity == F(4, 3)

    def test_zero_shifts_identity(self):
        shift = forced_atom_shift(B32, NatPoly({0: 3}), 0)
        assert shift.element == F(3)
        assert shift.presentation == NatPoly({0: 3})
        assert shift.forced_exponents == ()

    def test_six_shifts_from_nine(self):
        shift = forced_atom_shift(B32, NatPoly({0: 9}), 6)
        assert len(shift.forced_exponents) == 6
        assert len(set(shift.forced_exponents)) == 6
        stats = length_stats(B32, shift.element)
        assert (stats.min_len, stats.max_len) == (9, 15)
        assert stats.elasticity == F(5, 3)

    def test_every_factorization_contains_the_forced_atom(self):
        for pres in (NatPoly({0: 3}), NatPoly({0: 1, 2: 1})):
            shift = forced_atom_shift(B32, pres, 1)
            n = shift.forced_exponents[0]
            for z in iter_factorizations(B32, shift.element):
                assert NatPoly(z).coeff(n) >= 1

    @pytest.mark.parametrize("base", SHIFT_BASES, ids=str)
    def test_element_is_in_lowest_terms_over_b_to_the_last_exponent(self, base):
        # After an atom at q^n the numerator over b^n is a^n plus a multiple
        # of b, so b^n is the reduced denominator.  That n is the last forced
        # exponent, settled or not, and the loop stops on it; with no atom
        # the element is the start.
        for pres in (NatPoly({0: 1}), NatPoly({0: 5}), NatPoly({0: 1, 2: 1}), NatPoly({3: 2})):
            beta = pres.eval(base.q)
            for shifts in (1, 2, 7, 60, 2000):
                shift = forced_atom_shift(base, pres, shifts)
                assert shift.element.denominator == base.b ** shift.forced_exponents[-1]
            assert forced_atom_shift(base, pres, 0).element == beta
        for target in coprime_targets(11):
            try:
                cert = construct_elasticity(base, target)
            except ScanCapExceeded:
                continue
            assert cert.element.denominator == base.b ** cert.construction_log[-1]["exponents"][-1]

    def test_certificate_with_no_forced_atom_is_its_integer(self):
        # 15/1 at 5/2 is selected with shift count 0: the element is the integer itself.
        cert = construct_elasticity(RationalBase(5, 2), F(15))
        assert cert.construction_log[-1] == {"step": "shift", "count": 0, "exponents": []}
        assert cert.element == int(cert.construction_log[-2]["element"]) and cert.element.denominator == 1

    def test_integer_base_rejected(self):
        with pytest.raises(ValueError):
            forced_atom_shift(RationalBase(2, 1), NatPoly({0: 3}), 1)

    def test_zero_presentation_rejected(self):
        with pytest.raises(ValueError, match="forced shifts start from a nonzero element"):
            forced_atom_shift(B32, NatPoly(), 1)

    def test_negative_shift_count_rejected(self):
        with pytest.raises(ValueError, match="shift count must be nonnegative"):
            forced_atom_shift(B32, NatPoly({0: 3}), -1)


class TestConstructElasticity:
    def test_base_element_nine_with_six_shifts(self):
        cert = construct_elasticity(B32, F(5, 3))
        select = next(e for e in cert.construction_log if e["step"] == "select")
        assert select["element"] == "9"
        assert select["shift_count"] == 6
        assert cert.achieved == F(5, 3)
        assert (cert.min_len, cert.max_len) == (9, 15)

    def test_trivial_target(self):
        cert = construct_elasticity(B32, F(1, 1))
        assert cert.element == 1
        assert cert.achieved == F(1)

    def test_inverse_base_target(self):
        cert = construct_elasticity(RationalBase(5, 3), F(3, 2))
        assert cert.achieved == F(3, 2)

    def test_grid_tracked_ratios(self):
        for base in GRID_BASES:
            for target in coprime_targets():
                cert = construct_elasticity(base, target)
                assert F(cert.max_len, cert.min_len) == target

    def test_certificate_lengths_rederivable_by_normal_forms(self):
        for target in coprime_targets(6):
            cert = construct_elasticity(B32, target)
            assert up_normal_form(B32, cert.presentation).length() == cert.min_len
            assert down_normal_form(B32, cert.presentation).length() == cert.max_len
            assert cert.presentation.eval(B32.q) == cert.element

    def test_small_instance_verified_by_oracle(self):
        cert = construct_elasticity(B32, F(4, 3))
        if cert.element <= 10**4:
            lengths = {NatPoly(z).length() for z in iter_factorizations(B32, cert.element)}
            assert min(lengths) == cert.min_len
            assert max(lengths) == cert.max_len

    def test_scan_cap_exhaustion_raises(self):
        with pytest.raises(ScanCapExceeded):
            construct_elasticity(B32, F(9, 1), scan_cap=1)

    def test_integer_base_rejected(self):
        with pytest.raises(ValueError):
            construct_elasticity(RationalBase(3, 1), F(3, 2))


def certificate_failures(q, cap=()):
    """The failures among the corpus's construct-elasticity outcomes at q for the 41 targets s/t, s <= 11.

    The corpus pins their bytes; here a success must be a certificate that verifies, a failure a ScanCapExceeded."""
    base = RationalBase(F(q).numerator, F(q).denominator)
    argvs = [["construct-elasticity", "--q", q, "--target", f"{t.numerator}/{t.denominator}", *cap] for t in coprime_targets(11)]
    failures = 0
    for argv, code, out, err in pinned_outcomes("construct-elasticity", argvs):
        if code:
            assert (code, out, json.loads(err)["error"]["type"]) == (2, "", "ScanCapExceeded"), argv
            failures += 1
            continue
        doc = json.loads(out)
        presentation = NatPoly(dict(doc["presentation"]))
        assert err == "" and presentation.eval(base.q) == F(doc["element"])
        lengths = (up_normal_form(base, presentation).length(), down_normal_form(base, presentation).length())
        assert lengths == (doc["min_length"], doc["max_length"])
        assert F(doc["achieved"]) == F(doc["max_length"], doc["min_length"]) == F(doc["target"]), argv
    return failures


@pytest.mark.parametrize("q", ["3/2", "5/2", "5/3", "7/4"])
def test_certificate_documents_are_pinned(q):
    assert certificate_failures(q) == 0


# Bases where the forced gap settles later or never: 7/5 (gap 4), 11/10 (gap 26), 13/6 (gap 1) and 8/5 (no
# gap).  On all eight, a --scan-cap of 1 cuts the power scan before its own stop, and 7 moves the
# perturbation scan's early exit.
OUTCOME_CASES = [(q, None) for q in ("7/5", "8/5", "11/10", "13/6")]
OUTCOME_CASES += [(q, cap) for cap in (1, 7) for q in ("3/2", "5/3", "5/2", "7/4", "7/5", "8/5", "11/10", "13/6")]


@pytest.mark.parametrize("q, cap", [pytest.param(q, cap, id=f"{q}-cap{cap}" if cap else q) for q, cap in OUTCOME_CASES])
def test_certificate_outcomes_are_pinned_on_more_bases(q, cap):
    certificate_failures(q, ["--scan-cap", str(cap)] if cap else [])


@pytest.mark.parametrize("base", GRID_BASES + [RationalBase(7, 5), RationalBase(11, 10)], ids=str)
@given(n=st.integers(min_value=1, max_value=10**40))
@settings(max_examples=60, deadline=None)
def test_max_form_of_an_integer_is_copies_of_one(base, n):
    # The fact construct_elasticity leans on: an integer's max form is n
    # copies of the atom 1, whatever its min form.
    assert down_normal_form(base, member_witness(base, F(n))) == NatPoly({0: n})


@pytest.mark.parametrize("base", GRID_BASES + [RationalBase(7, 5), RationalBase(11, 10)], ids=str)
@given(n=st.integers(min_value=1, max_value=10**40))
@settings(max_examples=60, deadline=None)
def test_min_length_of_an_integer_is_its_witness_length(base, n):
    # The candidates' min length: the plain up carry against the witness.
    assert next(elasticity._min_lengths(base, n)) == member_witness(base, F(n)).length()


STEPPED_BASES = ["3/2", "5/3", "7/4", "5/2", "7/5", "8/5", "11/10", "13/6", "21/13"]


@pytest.mark.parametrize("q", STEPPED_BASES)
def test_phase_b_steps_match_the_full_carry(q):
    # Phase B carries a^N once and steps one atom per offset; every length
    # it yields is the min length of a^N + m carried from scratch.
    base = RationalBase(F(q).numerator, F(q).denominator)
    for target in (F(2), F(7, 3), F(3, 2), F(11, 10)):
        n_exp = max_atom_exponent(base, target) + 1
        power = base.a**n_exp
        scratch = [member_witness(base, F(power + m)).length() for m in range(201)]
        assert list(islice(elasticity._min_lengths(base, power), 201)) == scratch
        s, t = target.numerator, target.denominator
        for n, ell, fields in elasticity._candidates(base, s, t, n_exp, 200, []):
            if fields["kind"] == "perturbed-power":
                assert (n, ell) == (power + fields["offset"], scratch[fields["offset"]])


class Row(NamedTuple):
    value: F
    min_len: int
    max_len: int
    elasticity: F


def fraction_rows(scan):
    """The scan's integer rows (value * scale, min, max) as Fraction rows."""
    return tuple(Row(F(v, scan.scale), lo, hi, F(hi, lo)) for v, lo, hi in scan.rows)


class TestElasticityScan:
    def test_bound_four_table(self):
        scan = elasticity_scan(B32, F(4))
        table = {row.value: row.elasticity for row in fraction_rows(scan)}
        assert scan.complete
        for v in (F(1), F(3, 2), F(2), F(9, 4), F(5, 2)):
            assert table[v] == F(1)
        assert table[F(3)] == F(3, 2)

    def test_bound_one(self):
        scan = elasticity_scan(B32, F(1))
        assert [(r.value, r.elasticity) for r in fraction_rows(scan)] == [(F(1), F(1))]

    def test_bound_nine_includes_nine(self):
        scan = elasticity_scan(B32, F(9))
        table = {row.value: row.elasticity for row in fraction_rows(scan)}
        assert table[F(9)] == F(3)

    def test_rows_sorted_and_rational(self):
        scan = elasticity_scan(B32, F(6))
        values = [r.value for r in fraction_rows(scan)]
        assert values == sorted(values)
        assert all(r.elasticity >= 1 for r in fraction_rows(scan))

    def test_budget_marks_partial(self):
        _, complete = monoid_elements_up_to(B32, F(20), budget=5)
        assert not complete
        scan = elasticity_scan(B32, F(20), budget=5)
        assert not scan.complete
        # The rows are the budget - 1 nonzero elements whose canonical digit
        # strings d_E..d_0 come first in lexicographic order, sorted by value.
        full = elasticity_scan(B32, F(20))
        top = max_atom_exponent(B32, F(20))

        def digit_string(row):
            w = member_witness(B32, row.value)
            return tuple(w.coeff(i) for i in range(top, -1, -1))

        first = sorted(fraction_rows(full), key=digit_string)[:4]
        assert fraction_rows(scan) == tuple(sorted(first, key=lambda r: r.value))
        assert [r.value for r in fraction_rows(scan)] == [F(1), F(3, 2), F(2), F(5, 2)]

    def test_elements_match_brute_force_closure(self):
        for base in BASES:
            for bound in (F(1), F(5, 2), F(6), F(21, 2)):
                elements, complete = monoid_elements_up_to(base, bound)
                assert complete
                assert elements == sorted(brute_force_members(base, bound, max_terms=math.floor(bound)))

    def test_rows_match_length_stats(self):
        # The max length carried down the digit walk against down_normal_form
        # (via length_stats): small bounds, a bound of about 1,200 rows per
        # base, and partial scans of that bound.
        large = {B32: F(31), RationalBase(5, 3): F(28), RationalBase(5, 2): F(105), RationalBase(7, 4): F(27)}
        for base in BASES:
            scans = [elasticity_scan(base, bound) for bound in (F(1), F(5, 2), F(6), F(21, 2), large[base])]
            assert scans[-1].complete and len(scans[-1].rows) > 1100
            for budget in (5, 50):
                partial = elasticity_scan(base, large[base], budget)
                assert not partial.complete and len(partial.rows) == budget - 1
                scans.append(partial)
            for scan in scans:
                for row in fraction_rows(scan):
                    st = length_stats(base, row.value)
                    assert (row.min_len, row.max_len, row.elasticity) == (st.min_len, st.max_len, st.elasticity)


# The level walk that elasticity._canonical_forms replaced, kept as the
# reference for its depth-first walk: each level carries up to `budget`
# prefixes, and a level cut at budget + 1 children marks the scan partial.
def canonical_forms_by_level(
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


WALK_BASES = ("3/2", "5/3", "7/4", "5/2", "7/5", "8/5", "9/4", "13/6", "21/13", "11/10", "101/100", "1001/1000")
WALK_CAPS = (1, 2, 5, 50, 10**3, 10**6)
# Cells left out because the level walk takes more than 0.25 s on them: every
# cap at 1001/1000 from bound 10 on (it runs 2,304 and 3,691 levels),
# 1001/1000 at bound 3 from cap 10^3 on (1,100 levels), and 11/10 at bound 40
# with cap 10^6, where it carries 10^6 prefixes through 39 levels.
SLOW_LEVEL_WALK_CELLS = {
    ("11/10", "40", 10**6),
    ("1001/1000", "3", 10**3),
    ("1001/1000", "3", 10**6),
    *(("1001/1000", bound, cap) for bound in ("10", "40") for cap in (1, 2, 5, 50)),
}
WALK_CELLS = [
    (q, bound, cap)
    for q in WALK_BASES
    for bound in ("0", "1/2", "1", "3", "10", "40")
    for cap in WALK_CAPS
    # Near 1, bounds 10 and 40 hold far more than 10^3 elements of thousands of bits.
    if not (q in ("101/100", "1001/1000") and bound in ("10", "40") and cap > 50)
    and (q, bound, cap) not in SLOW_LEVEL_WALK_CELLS
]


@pytest.mark.parametrize("q, bound, cap", WALK_CELLS)
def test_depth_first_walk_matches_the_level_walk(q, bound, cap):
    base, bound = RationalBase.from_rational(parse_rat(q)), parse_rat(bound)
    assert elasticity._canonical_forms(base, bound, cap) == canonical_forms_by_level(base, bound, cap)


def scan_csv_reference(scan):
    """The scan CSV written from the Fraction rows, each elasticity by Fraction.__str__."""
    lines = ["value_num,value_den,min_len,max_len,elasticity\n"]
    for row in fraction_rows(scan):
        lines.append(
            f"{row.value.numerator},{row.value.denominator},"
            f"{row.min_len},{row.max_len},{row.elasticity}\n"
        )
    status = "complete" if scan.complete else "partial"
    lines.append(f"# manifest: {status} rows={len(scan.rows)}\n")
    return "".join(lines)


# The benchmark's scan bases, each with a bound of about 400 elements.
SCAN_BOUNDS = {"3/2": "20", "5/3": "19", "7/4": "19", "5/2": "111/2", "7/5": "23/2", "8/5": "31/2"}


def scan_of(q, bound, budget=DEFAULT_ORACLE_CAP):
    return elasticity_scan(RationalBase.from_rational(parse_rat(q)), parse_rat(bound), budget)


def scan_csv(scan):
    out = io.StringIO()
    write_scan_csv(scan, out)
    return out.getvalue()


def test_scan_csv_matches_the_fraction_rows():
    for q, bound in SCAN_BOUNDS.items():
        for budget in (DEFAULT_ORACLE_CAP, 100, 7):
            scan = scan_of(q, bound, budget)
            assert scan.complete == (budget == DEFAULT_ORACLE_CAP)
            assert scan_csv(scan) == scan_csv_reference(scan), (q, budget)
    # The empty scan.
    empty = scan_of("3/2", "1/2")
    assert empty.complete and not empty.rows
    assert scan_csv(empty) == scan_csv_reference(empty)
    # The benchmark's largest scan, where most (min_len, max_len) pairs repeat.
    largest = scan_of("3/2", "80")
    assert largest.complete and len(largest.rows) > 14000
    assert len({(low, high) for _, low, high in largest.rows}) < len(largest.rows) // 20
    assert scan_csv(largest) == scan_csv_reference(largest)
    # A composite b: over the scale 4^4, some values reduce to a denominator
    # that is no power of 4, and some elasticities reduce by 2 but not by 4.
    composite = scan_of("7/4", "10")
    assert composite.complete and composite.scale == 4**4
    dens = {composite.scale // math.gcd(value, composite.scale) for value, _, _ in composite.rows}
    assert dens - {4**k for k in range(5)}
    assert any(math.gcd(low, high) % 4 == 2 for _, low, high in composite.rows)
    assert scan_csv(composite) == scan_csv_reference(composite)


def test_target_validation():
    for target in (F(1, 2), F(2, 4)):
        with pytest.raises(ValueError):
            construct_elasticity(B32, target)
