"""Trace-table verifiers: conjugation symmetry, generated fields, evenness, charpoly."""

import random
from fractions import Fraction

import pytest

from qcurves.errors import NotTotallyReal, ValueOutsideField
from qcurves.fields import MultiquadraticField, QuadraticElement
from qcurves.quadratic import IMAGINARY, REAL, QuadraticQCurveInput, classify_quadratic
from qcurves.radicals import RadicalElement
from qcurves.traces import (
    EMPTY_GENERATORS,
    DirichletCharacterData,
    TraceEntry,
    TraceTable,
    conjugation_symmetry_report,
    frobenius_charpoly,
    generated_field_e,
    generated_field_f,
)

from helpers import (
    canonical_involution,
    chi_mod4,
    chi_mod5,
    chi_mod8,
    chi_mod16_order4,
    compliant_table_entries,
)

Q = MultiquadraticField.rationals()
Q_I = MultiquadraticField.from_square_classes([-1])
Q_SQRT2 = MultiquadraticField.from_square_classes([2])
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def rational(x):
    return QuadraticElement.from_rational(x)


# -- character data -----------------------------------------------------------------


def test_character_validation():
    with pytest.raises(ValueError):
        DirichletCharacterData(4, {1: RadicalElement.one()})  # missing residue 3
    with pytest.raises(ValueError):
        DirichletCharacterData(
            4, {1: RadicalElement.one(), 3: RadicalElement.prime_power(2, Fraction(1, 2))}
        )
    with pytest.raises(ValueError):
        # declared parity disagreeing with the table
        DirichletCharacterData(
            4,
            {1: RadicalElement.one(), 3: RadicalElement.minus_one()},
            value_at_minus_one=RadicalElement.one(),
        )


def test_character_evaluation_and_order():
    chi = chi_mod8()
    assert chi(3) == RadicalElement.minus_one()
    assert chi(11) == RadicalElement.minus_one()  # 11 = 3 mod 8
    assert chi(2) is None
    assert chi.order == 2
    assert chi_mod16_order4().order == 4
    assert DirichletCharacterData.trivial().order == 1


def test_evenness():
    assert DirichletCharacterData.trivial().is_even
    assert not chi_mod4().is_even
    assert chi_mod8().is_even
    assert chi_mod5().is_even
    assert chi_mod16_order4().is_even


def test_evenness_consistent_with_quadratic_classifier():
    # the character attached to the quadratic base field is even exactly when
    # the signature constraint holds, across the m-sweep
    for m in range(-50, 51):
        if m == 0:
            continue
        for signature in (REAL, IMAGINARY):
            report = classify_quadratic(QuadraticQCurveInput(m, signature))
            if report.epsilon_order == 1:
                avatar = DirichletCharacterData.trivial()
            elif signature == REAL:
                avatar = chi_mod8()  # even quadratic: real base field
            else:
                avatar = chi_mod4()  # odd quadratic: imaginary base field
            assert avatar.is_even == report.signature_constraint_ok


# -- tables and conjugation ------------------------------------------------------------


def test_totally_real_trivial_character_all_pass():
    entries = [TraceEntry(p, QuadraticElement(Fraction(p % 5), Fraction(1), 2)) for p in PRIMES]
    table = TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries)
    assert all(r.ok for r in conjugation_symmetry_report(table))


def test_gaussian_field_quadratic_character():
    eps = chi_mod8()
    rng = random.Random(2)
    entries = compliant_table_entries(rng, False, -1, eps, PRIMES)
    table = TraceTable(Q_I, eps, entries)
    report = conjugation_symmetry_report(table)
    assert report and all(r.ok for r in report)
    # non-compliant value is detected: swap real for imaginary at one prime
    bad = [
        TraceEntry(e.p, QuadraticElement(e.a_p.b, e.a_p.a, -1) if e.a_p.b else e.a_p, e.good)
        for e in entries
    ]
    flipped = TraceTable(Q_I, eps, bad)
    assert not all(r.ok for r in conjugation_symmetry_report(flipped))


def test_gaussian_field_order_four_character():
    eps = chi_mod16_order4()
    rng = random.Random(3)
    entries = compliant_table_entries(rng, False, -1, eps, PRIMES)
    table = TraceTable(Q_I, eps, entries)
    assert all(r.ok for r in conjugation_symmetry_report(table))
    # the order-4 classes force traces on the ray (1 + i)
    by_p = {e.p: e for e in entries}
    assert by_p[3].a_p.a == by_p[3].a_p.b  # chi(3) = i


def test_zero_trace_always_complies():
    eps = chi_mod8()
    entries = [TraceEntry(3, rational(0)), TraceEntry(5, rational(0))]
    table = TraceTable(Q_I, eps, entries)
    assert all(r.ok for r in conjugation_symmetry_report(table))


def test_single_perturbation_detected():
    rng = random.Random(5)
    eps = chi_mod8()
    entries = compliant_table_entries(rng, False, -1, eps, PRIMES)
    for index in range(len(entries)):
        perturbed = list(entries)
        old = perturbed[index]
        perturbed[index] = TraceEntry(old.p, old.a_p + rational(1), old.good)
        table = TraceTable(Q_I, eps, perturbed)
        report = conjugation_symmetry_report(table)
        flags = {r.p: r.ok for r in report}
        if old.a_p + rational(1) == canonical_involution(Q_I, old.a_p + rational(1)) * QuadraticElement.from_radical(eps(old.p)):
            continue  # the shift happened to stay on the compliant ray
        assert not flags[old.p]
        assert all(flags[r.p] for r in report if r.p != old.p)


def test_value_outside_declared_field_rejected():
    entries = [TraceEntry(3, QuadraticElement(Fraction(0), Fraction(1), 3))]
    with pytest.raises(ValueOutsideField):
        TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries)


def test_field_membership_decided_once_per_class(monkeypatch):
    calls = []
    contains = MultiquadraticField.contains_class
    monkeypatch.setattr(
        MultiquadraticField, "contains_class", lambda f, d: calls.append(d) or contains(f, d)
    )
    sqrt2 = QuadraticElement(Fraction(1), Fraction(1), 2)
    sqrt3 = QuadraticElement(Fraction(0), Fraction(2), 3)
    a_ps = [sqrt2, rational(1), sqrt2, sqrt2, sqrt3, sqrt2, sqrt3]
    entries = [TraceEntry(p, a) for p, a in zip(PRIMES, a_ps)]
    TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries[:4])
    assert calls == [2]
    # the first entry outside the field is still the one named
    calls.clear()
    with pytest.raises(ValueOutsideField, match=r"^a_13 = "):
        TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries)
    assert calls == [2, 3]


def test_bad_entries_excluded_and_collected():
    entries = [
        TraceEntry(3, rational(1)),
        TraceEntry(5, QuadraticElement(Fraction(1), Fraction(1), 2), good=False),
    ]
    table = TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries, bad_primes={7})
    assert table.bad_primes == frozenset({5, 7})
    assert [r.p for r in conjugation_symmetry_report(table)] == [3]


def test_character_must_not_vanish_at_good_primes():
    with pytest.raises(ValueError):
        TraceTable(Q, chi_mod8(), [TraceEntry(2, rational(1))])


# -- generated fields ----------------------------------------------------------------


def test_generated_field_e():
    entries = [TraceEntry(3, rational(1)), TraceEntry(5, rational(-7))]
    field, warnings = generated_field_e(
        TraceTable(Q, DirichletCharacterData.trivial(), entries)
    )
    assert field.is_rational and not warnings

    mixed = [
        TraceEntry(3, QuadraticElement(Fraction(0), Fraction(1), 2)),
        TraceEntry(5, QuadraticElement(Fraction(1), Fraction(2), 3)),
    ]
    field, _ = generated_field_e(
        TraceTable(MultiquadraticField.from_square_classes([2, 3]),
                   DirichletCharacterData.trivial(), mixed)
    )
    assert field == MultiquadraticField.from_square_classes([2, 3])
    assert field.degree == 4


def test_generated_field_e_empty_warning():
    table = TraceTable(Q, DirichletCharacterData.trivial(), [])
    field, warnings = generated_field_e(table)
    assert field.is_rational
    assert warnings == [EMPTY_GENERATORS]


def test_inner_field_rational_for_sqrt2_multiples():
    entries = [
        TraceEntry(3, QuadraticElement(Fraction(0), Fraction(2), 2)),
        TraceEntry(5, rational(3)),
    ]
    table = TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries)
    inner = generated_field_f(table)
    assert inner.field_f.is_rational
    assert inner.containment_ok  # sqrt(t_p) recovers sqrt 2 up to rationals


def test_inner_field_for_gaussian_table():
    eps = chi_mod8()
    rng = random.Random(8)
    entries = compliant_table_entries(rng, False, -1, eps, PRIMES)
    table = TraceTable(Q_I, eps, entries)
    inner = generated_field_f(table)
    assert inner.field_f.is_rational
    assert inner.containment_ok  # E = Q(i) inside F(sqrt t_p, mu_4)


def test_inner_field_generated_by_irrational_squares():
    entries = [TraceEntry(3, QuadraticElement(Fraction(1), Fraction(1), 2))]
    table = TraceTable(Q_SQRT2, DirichletCharacterData.trivial(), entries)
    inner = generated_field_f(table)
    assert inner.field_f == Q_SQRT2  # (1 + sqrt 2)^2 = 3 + 2 sqrt 2
    assert inner.field_f.totally_real
    assert inner.containment_ok


def test_inner_field_not_totally_real_raises():
    entries = [TraceEntry(3, QuadraticElement(Fraction(1), Fraction(1), -1))]
    table = TraceTable(Q_I, DirichletCharacterData.trivial(), entries)
    with pytest.raises(NotTotallyReal):
        generated_field_f(table)


def test_inner_field_contained_in_e():
    rng = random.Random(21)
    for eps, d in ((chi_mod8(), -1), (DirichletCharacterData.trivial(), 2)):
        entries = compliant_table_entries(rng, d > 0, d, eps, PRIMES)
        field_e = MultiquadraticField.from_square_classes([d])
        table = TraceTable(field_e, eps, entries)
        inner = generated_field_f(table)
        for basis_class in inner.field_f.basis:
            assert field_e.contains_class(basis_class)


# -- characteristic polynomials -----------------------------------------------------------


def test_charpoly_rational_trace():
    report = frobenius_charpoly(TraceEntry(5, rational(2)), DirichletCharacterData.trivial())
    assert report.trace == rational(2)
    assert report.determinant == rational(5)
    assert report.coefficients == (rational(1), rational(-2), rational(5))
    assert report.weil_bound_ok


def test_charpoly_quadratic_trace():
    entry = TraceEntry(5, QuadraticElement(Fraction(1), Fraction(1), 2))
    report = frobenius_charpoly(entry, DirichletCharacterData.trivial())
    assert report.determinant == rational(5)
    assert report.weil_bound_ok  # |1 +- sqrt 2| <= 2 sqrt 5


def test_charpoly_weil_advisory_failure():
    report = frobenius_charpoly(TraceEntry(2, rational(10)), DirichletCharacterData.trivial())
    assert not report.weil_bound_ok  # 10 > 2 sqrt 2
    assert report.determinant == rational(2)


def test_charpoly_nontrivial_character_determinant():
    eps = chi_mod8()
    report = frobenius_charpoly(TraceEntry(3, rational(0)), eps)
    assert report.determinant == rational(-3)  # eps(3) = -1
