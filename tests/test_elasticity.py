import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cyclofact.elasticity import (
    ElasticityTarget,
    ScanCapExceeded,
    construct_elasticity,
    elasticity_formula,
    elasticity_lower_bound_sequence,
    elasticity_scan,
    forced_atom_shift,
    monoid_elements_up_to,
    residue_window_scan,
)
from cyclofact.minimal_pair import minimal_pair_of_rational
from cyclofact.polynomials import NatPoly, parse_polynomial
from cyclofact.semiring import (
    RationalBase,
    down_normal_form,
    enumerate_factorizations,
    length_stats,
    max_atom_exponent,
    member_witness,
    up_normal_form,
)
from test_semiring import BASES, brute_force_members

B32 = RationalBase(3, 2)
SHIFT_BASES = [RationalBase(3, 2), RationalBase(5, 3), RationalBase(7, 4), RationalBase(5, 2)]
GRID_BASES = [RationalBase(3, 2), RationalBase(5, 3), RationalBase(5, 2), RationalBase(7, 4)]


def coprime_targets(smax=9):
    return [
        ElasticityTarget(s, t)
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

    def test_budget_too_small_is_inconclusive(self):
        res = elasticity_formula(parse_polynomial("X^3 - 2"), (F(1), F(2)), 2)
        assert res.status == "inconclusive"
        res = elasticity_formula(parse_polynomial("X^2 - 3X + 1"), (F(5, 2), F(3)), 5, node_budget=3)
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

    def test_single_shift_example(self):
        shift = forced_atom_shift(B32, F(3), NatPoly({0: 3}), 1)
        assert shift.forced_exponents == (5,)
        assert shift.element == F(339, 32)
        zs = set(enumerate_factorizations(B32, shift.element))
        zs_base = enumerate_factorizations(B32, F(3))
        lifted = {z + NatPoly.atom(5) for z in zs_base}
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
            for z in enumerate_factorizations(B32, shift.element):
                assert z.coeff(n) >= 1

    def test_integer_base_rejected(self):
        with pytest.raises(ValueError):
            forced_atom_shift(RationalBase(2, 1), F(3), NatPoly({0: 3}), 1)


class TestConstructElasticity:
    def test_base_element_nine_with_six_shifts(self):
        cert = construct_elasticity(B32, ElasticityTarget(5, 3))
        select = next(e for e in cert.construction_log if e["step"] == "select")
        assert select["element"] == "9"
        assert select["shift_count"] == 6
        assert cert.achieved == F(5, 3)
        assert (cert.min_len, cert.max_len) == (9, 15)

    def test_trivial_target(self):
        cert = construct_elasticity(B32, ElasticityTarget(1, 1))
        assert cert.element == 1
        assert cert.achieved == F(1)

    def test_inverse_base_target(self):
        cert = construct_elasticity(RationalBase(5, 3), ElasticityTarget(3, 2))
        assert cert.achieved == F(3, 2)

    def test_grid_tracked_ratios(self):
        for base in GRID_BASES:
            for target in coprime_targets():
                cert = construct_elasticity(base, target)
                assert F(cert.max_len, cert.min_len) == target.ratio

    def test_certificate_lengths_rederivable_by_normal_forms(self):
        for target in coprime_targets(6):
            cert = construct_elasticity(B32, target)
            assert up_normal_form(B32, cert.presentation).length() == cert.min_len
            assert down_normal_form(B32, cert.presentation).length() == cert.max_len
            assert cert.presentation.eval(B32.q) == cert.element

    def test_small_instance_verified_by_oracle(self):
        cert = construct_elasticity(B32, ElasticityTarget(4, 3))
        if cert.element <= 10**4:
            lengths = {z.length() for z in enumerate_factorizations(B32, cert.element)}
            assert min(lengths) == cert.min_len
            assert max(lengths) == cert.max_len

    def test_scan_cap_exhaustion_carries_partial_log(self):
        with pytest.raises(ScanCapExceeded) as err:
            construct_elasticity(B32, ElasticityTarget(9, 1), scan_cap=1, materialize_cap=1)
        assert err.value.partial_log

    def test_integer_base_rejected(self):
        with pytest.raises(ValueError):
            construct_elasticity(RationalBase(3, 1), ElasticityTarget(3, 2))


class TestResidueWindows:
    def test_residues_in_range_and_windows_ordered(self):
        for base in (B32, RationalBase(5, 2)):
            for target in (ElasticityTarget(5, 3), ElasticityTarget(5, 2), ElasticityTarget(7, 4)):
                sel = residue_window_scan(base, target)
                d = target.s - target.t
                assert 0 <= sel.residue < d
                assert len(sel.indices) == d
                assert all(0 <= r.residue < d for r in sel.records)
                # window condition: each index exceeds the previous top degree
                tops = {r.k: r.top_degree for r in sel.records}
                for prev, nxt in zip(sel.indices, sel.indices[1:]):
                    assert nxt > tops[prev]

    def test_selection_satisfies_divisibility(self):
        sel = residue_window_scan(B32, ElasticityTarget(7, 4))
        t, s = 4, 7
        assert (t * sel.max_len - s * sel.min_len) % (s - t) == 0
        assert sel.shift_count >= 0

    def test_pigeonhole_on_scan_log(self):
        # within any window of (s-t)*(max gap)+1 consecutive scanned indices
        # some residue class repeats s-t times
        sel = residue_window_scan(B32, ElasticityTarget(5, 2))
        d = 3
        residues = [r.residue for r in sel.records]
        from collections import Counter

        counts = Counter(residues)
        assert max(counts.values()) >= min(d, len(residues) // d + (1 if len(residues) % d else 0))


class TestElasticityScan:
    def test_bound_four_table(self):
        scan = elasticity_scan(B32, F(4))
        table = {row.value: row.elasticity for row in scan.rows}
        assert scan.complete
        for v in (F(1), F(3, 2), F(2), F(9, 4), F(5, 2)):
            assert table[v] == F(1)
        assert table[F(3)] == F(3, 2)

    def test_bound_one(self):
        scan = elasticity_scan(B32, F(1))
        assert [(r.value, r.elasticity) for r in scan.rows] == [(F(1), F(1))]

    def test_bound_nine_includes_nine(self):
        scan = elasticity_scan(B32, F(9))
        table = {row.value: row.elasticity for row in scan.rows}
        assert table[F(9)] == F(3)

    def test_rows_sorted_and_rational(self):
        scan = elasticity_scan(B32, F(6))
        values = [r.value for r in scan.rows]
        assert values == sorted(values)
        assert all(r.elasticity >= 1 for r in scan.rows)

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

        first = sorted(full.rows, key=digit_string)[:4]
        assert scan.rows == tuple(sorted(first, key=lambda r: r.value))
        assert [r.value for r in scan.rows] == [F(1), F(3, 2), F(2), F(5, 2)]

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
                for row in scan.rows:
                    st = length_stats(base, row.value)
                    assert (row.min_len, row.max_len, row.elasticity) == (st.min_len, st.max_len, st.elasticity)


def test_target_validation():
    with pytest.raises(ValueError):
        ElasticityTarget(2, 4)
    with pytest.raises(ValueError):
        ElasticityTarget(1, 2)
    with pytest.raises(ValueError):
        ElasticityTarget(3, 0)
    assert ElasticityTarget.from_rational(F(6, 4)) == ElasticityTarget(3, 2)
