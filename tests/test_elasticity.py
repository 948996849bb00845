import io
import json
import math
from fractions import Fraction as F
from itertools import islice
from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import cyclofact.algebraic as algebraic
import cyclofact.elasticity as elasticity
from cyclofact.algebraic import elasticity_formula, elasticity_lower_bound_sequence
from cyclofact.cli import write_scan_csv
from cyclofact.elasticity import (
    ScanCapExceeded,
    construct_elasticity,
    elasticity_scan,
    forced_atom_shift,
    monoid_elements_up_to,
)
from cyclofact.minimal_pair import minimal_pair, minimal_pair_of_rational
from cyclofact.polynomials import NatPoly, parse_polynomial
from cyclofact.rationals import format_rat, parse_rat
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
GRID_BASES = [RationalBase(3, 2), RationalBase(5, 3), RationalBase(5, 2), RationalBase(7, 4)]


def coprime_targets(smax=9):
    return [
        F(s, t)
        for s in range(2, smax + 1)
        for t in range(1, s)
        if math.gcd(s, t) == 1
    ]


class TestLowerBoundSequence:
    def test_examples(self):
        pair = minimal_pair_of_rational(F(3, 2))
        step1 = elasticity_lower_bound_sequence(pair, F(3, 2), 1)
        assert step1.element == 3
        assert step1.lower_bound == F(3, 2)
        assert step1.exact_elasticity == F(3, 2)
        step2 = elasticity_lower_bound_sequence(pair, F(3, 2), 2)
        assert step2.element == 9
        assert step2.lower_bound == F(9, 4)
        assert step2.exact_elasticity == F(3)
        assert step2.exact_elasticity >= step2.lower_bound

    def test_degenerate_pair_rejected(self):
        pair = minimal_pair_of_rational(F(1))  # X - 1: p(1) = q0(1) = 1
        with pytest.raises(ValueError):
            elasticity_lower_bound_sequence(pair, F(1), 1)
        # no negative coefficient, so q0 is empty and no positive root exists
        for text in ("X + 1", "X^2 + 3X + 2"):
            pair = minimal_pair(parse_polynomial(text))
            for alpha in (None, F(3, 2), F(2)):
                with pytest.raises(ValueError, match="empty"):
                    elasticity_lower_bound_sequence(pair, alpha, 2)
        # alpha = 5/3 is no root of 3/2's pair: p(5/3) = 10/3 but q0(5/3) = 3,
        # and the bound 9/4 would pass the exact elasticity 2 unnoticed.
        with pytest.raises(ValueError, match="not a root"):
            elasticity_lower_bound_sequence(minimal_pair_of_rational(F(3, 2)), F(5, 3), 2)

    def test_bound_holds_for_several_bases(self):
        for q in (F(3, 2), F(5, 3), F(5, 2), F(7, 4)):
            pair = minimal_pair_of_rational(q)
            for n in (1, 2, 3):
                step = elasticity_lower_bound_sequence(pair, q, n)
                assert step.exact_elasticity >= step.lower_bound
                assert step.presentation.eval(q) == step.element

    def test_integer_base_routed_as_ufm(self):
        pair = minimal_pair_of_rational(F(2))
        step = elasticity_lower_bound_sequence(pair, F(2), 1)
        assert step.exact_elasticity == F(1)


class TestElasticityFormula:
    def test_cbrt2_free_on_three_generators(self):
        res = elasticity_formula(parse_polynomial("X^3 - 2"), (F(1), F(2)), 6)
        assert res.status == "inapplicable"
        assert res.atom_exponents == (0, 1, 2)
        assert 3 in res.decomposed_exponents

    def test_sqrt2_ufm(self):
        res = elasticity_formula(parse_polynomial("X^2 - 2"), (F(1), F(2)), 6)
        assert res.status == "inapplicable"
        assert res.atom_exponents == (0, 1)
        assert "unique factorization" in res.reason

    def test_golden_like_root_not_finitely_generated(self):
        res = elasticity_formula(parse_polynomial("X^2 - 3X + 1"), (F(5, 2), F(3)), 5)
        assert res.status == "inapplicable"
        assert res.atom_exponents == (0, 1, 2, 3, 4, 5)
        assert "not finitely generated" in res.reason

    def test_root_below_one_is_inapplicable(self):
        # the other root of X^2 - 3X + 1 lies in (0, 1)
        res = elasticity_formula(parse_polynomial("X^2 - 3X + 1"), (F(1, 4), F(1, 2)), 5)
        assert res.status == "inapplicable"
        assert "not finitely generated" in res.reason

    def test_budget_too_small_is_inconclusive(self, monkeypatch):
        res = elasticity_formula(parse_polynomial("X^3 - 2"), (F(1), F(2)), 2)
        assert res.status == "inconclusive"
        monkeypatch.setattr(algebraic, "NODE_BUDGET", 3)
        res = elasticity_formula(parse_polynomial("X^2 - 3X + 1"), (F(5, 2), F(3)), 5)
        assert res.status == "inconclusive"


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
        shift = forced_atom_shift(base, beta, pres, shifts)
        expected = fraction_forced_shift(base.q, beta, pres, shifts)
        assert (shift.element, shift.presentation, shift.forced_exponents) == expected

    @given(
        st.sampled_from(SHIFT_BASES),
        st.dictionaries(st.integers(0, 8), st.integers(1, 12), min_size=1, max_size=5),
        st.integers(0, 2000),
    )
    @example(RationalBase(11, 10), {0: 1}, 2000)  # the longest transient
    @example(RationalBase(21, 13), {3: 2}, 2000)  # never settles
    @settings(max_examples=20, deadline=None)
    def test_matches_the_per_atom_walk_up_to_the_materialization_cap(self, base, terms, shifts):
        pres = NatPoly(terms)
        beta = pres.eval(base.q)
        shift = forced_atom_shift(base, beta, pres, shifts)
        expected = forced_atom_shift_walk(base, beta, pres, shifts)
        assert (shift.element, shift.presentation, shift.forced_exponents) == expected

    def test_settled_gap_per_base(self):
        gaps = {base: elasticity._settled_gap(base.a, base.b) for base in SHIFT_BASES}
        assert {str(base): g for base, g in gaps.items()} == {
            "3/2": 3, "5/3": 2, "7/4": 2, "5/2": 1, "7/5": 4, "11/10": 26,
            "13/6": 1, "9/7": 6, "8/5": None, "21/13": None,
        }
        # Once settled, a long shift ends in steps of that gap.
        for base, g in gaps.items():
            tail = forced_atom_shift(base, F(1), NatPoly({0: 1}), 300).forced_exponents[-50:]
            steps = {y - x for x, y in zip(tail, tail[1:])}
            assert (steps == {g}) if g else (len(steps) > 1), base

    def test_single_shift_example(self):
        shift = forced_atom_shift(B32, F(3), NatPoly({0: 3}), 1)
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
        shift = forced_atom_shift(B32, F(3), NatPoly({0: 3}), 0)
        assert shift.element == F(3)
        assert shift.presentation == NatPoly({0: 3})
        assert shift.forced_exponents == ()

    def test_six_shifts_from_nine(self):
        shift = forced_atom_shift(B32, F(9), NatPoly({0: 9}), 6)
        assert len(shift.forced_exponents) == 6
        assert len(set(shift.forced_exponents)) == 6
        stats = length_stats(B32, shift.element)
        assert (stats.min_len, stats.max_len) == (9, 15)
        assert stats.elasticity == F(5, 3)

    def test_every_factorization_contains_the_forced_atom(self):
        for beta, pres in ((F(3), NatPoly({0: 3})), (F(13, 4), NatPoly({0: 1, 2: 1}))):
            shift = forced_atom_shift(B32, beta, pres, 1)
            n = shift.forced_exponents[0]
            for z in iter_factorizations(B32, shift.element):
                assert NatPoly(z).coeff(n) >= 1

    @pytest.mark.parametrize("base", SHIFT_BASES, ids=str)
    def test_element_is_in_lowest_terms_over_b_to_the_last_exponent(self, base):
        # After an atom at q^n the numerator over b^n is a^n plus a multiple
        # of b, so b^n is the reduced denominator.  That n is the last forced
        # exponent, settled or not (8/5 and 21/13 leave the loop one level
        # higher); with no atom the element is the start.
        for pres in (NatPoly({0: 1}), NatPoly({0: 5}), NatPoly({0: 1, 2: 1}), NatPoly({3: 2})):
            beta = pres.eval(base.q)
            for shifts in (1, 2, 7, 60, 2000):
                shift = forced_atom_shift(base, beta, pres, shifts)
                assert shift.element.denominator == base.b ** shift.forced_exponents[-1]
            assert forced_atom_shift(base, beta, pres, 0).element == beta
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
            forced_atom_shift(RationalBase(2, 1), F(3), NatPoly({0: 3}), 1)


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

    def test_scan_cap_exhaustion_carries_partial_log(self):
        with pytest.raises(ScanCapExceeded) as err:
            construct_elasticity(B32, F(9, 1), scan_cap=1)
        assert err.value.partial_log

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


def scan_csv_reference(scan):
    """The scan CSV written from the Fraction rows, one format_rat per Fraction."""
    lines = ["value_num,value_den,min_len,max_len,elasticity\n"]
    for row in fraction_rows(scan):
        lines.append(
            f"{row.value.numerator},{row.value.denominator},"
            f"{row.min_len},{row.max_len},{format_rat(row.elasticity)}\n"
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
