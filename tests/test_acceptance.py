"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; every assertion is exact
(zero tolerance) and each criterion carries its stated wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from sympy import primerange

from qcurves.algebra import TwistedGroupAlgebra, hom_from_splitting, kernel_projector
from qcurves.cohomology import OneCochain, TwoCocycle, split_cocycle, power_splits_over_rationals
from qcurves.fields import MultiquadraticField, QuadraticElement
from qcurves.groups import FiniteAbelianGroup
from qcurves.pipeline import (
    OK,
    SKIPPED,
    FrobeniusAssignment,
    FrobeniusEntry,
    construct_gl2_type,
    frobenius_congruences,
    alpha_epsilon_congruent,
    brauer_order,
)
from qcurves.quadratic import (
    IMAGINARY,
    REAL,
    QuadraticQCurveInput,
    classify_quadratic,
    order_two_datum,
)
from qcurves.descent import build_restriction, eta_descent, iota_equivariance_violation
from qcurves.radicals import RadicalElement
from qcurves.traces import (
    DirichletCharacterData,
    TraceEntry,
    TraceTable,
    conjugation_symmetry_report,
    generated_field_e,
    generated_field_f,
)

from helpers import (
    chi_mod8,
    chi_mod16_order4,
    compliant_table_entries,
    klein_alternating_cocycle,
    pairing_is_alternating,
    pairing_is_bimultiplicative,
    random_cochain,
    random_descent_datum,
)


def timed(budget_seconds):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s over {budget_seconds}s budget"
        return elapsed

    return check


def is_square(m):
    return m > 0 and math.isqrt(m) ** 2 == m


def test_acceptance_01_cocycle_round_trip():
    check = timed(5.0)
    rng = random.Random(2024)
    groups = [FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2))]
    count = 0
    while count < 200:
        group = groups[count % len(groups)]
        a = random_cochain(rng, group, exponent_dens=(1, 2, 3, 4))
        c = a.coboundary()
        assert c.violation() is None
        result = split_cocycle(c)
        assert result.split
        assert result.cochain.coboundary() == c
        count += 1
    elapsed = check("criterion 1")
    print(f"ACCEPTANCE 1 (cocycle round trip, {count} cochains): PASS in {elapsed:.2f}s")


def test_acceptance_02_quadratic_sweep():
    check = timed(1.0)
    for m in range(-50, 51):
        if m == 0:
            continue
        for signature in (REAL, IMAGINARY):
            report = classify_quadratic(QuadraticQCurveInput(m, signature))
            assert (report.theta_order == 1) == (m > 0)
            assert (report.e_signature == IMAGINARY) == (m < 0 and not is_square(m))
            assert report.model_over_q == is_square(m)
            assert report.theta_order == report.epsilon_order
            violation_expected = m < 0 and signature == IMAGINARY
            assert report.signature_constraint_ok == (not violation_expected)
    elapsed = check("criterion 2")
    print(f"ACCEPTANCE 2 (quadratic sweep [-50, 50]): PASS in {elapsed:.2f}s")


def test_acceptance_03_pipeline_quadratic_consistency():
    check = timed(1.0)
    checked = 0
    for m in range(-50, 51):
        if m == 0 or is_square(m):
            continue
        report = classify_quadratic(QuadraticQCurveInput(m, REAL))
        descriptor = construct_gl2_type(order_two_datum(m))
        assert descriptor.field_e == MultiquadraticField.from_square_classes([report.field_class])
        assert descriptor.epsilon.order == report.epsilon_order
        checked += 1
    elapsed = check("criterion 3")
    print(f"ACCEPTANCE 3 (pipeline consistency, {checked} values of m): PASS in {elapsed:.2f}s")


def test_acceptance_04_twisted_algebra_structure():
    check = timed(1.0)
    sigma = (1,)
    group = FiniteAbelianGroup((2,))
    for d in (2, 3, 5, -1, -2, -6):
        cocycle = TwoCocycle(group, {(sigma, sigma): RadicalElement.from_rational(d)})
        algebra = TwistedGroupAlgebra(group, cocycle)
        b = algebra.basis(sigma)
        assert b * b == algebra.one().scale(d)          # minimal polynomial X^2 - d
        assert group.identity not in b.coefficients     # not a scalar, so degree 2
        splitting = OneCochain(
            group,
            {group.identity: RadicalElement.one(), sigma: RadicalElement.from_rational(d).nth_root(2)},
        )
        hom = hom_from_splitting(algebra, splitting)
        assert hom.field == MultiquadraticField.from_square_classes([d])
    for d in (4, 9):
        cocycle = TwoCocycle(group, {(sigma, sigma): RadicalElement.from_rational(d)})
        algebra = TwistedGroupAlgebra(group, cocycle)
        splitting = OneCochain(
            group,
            {group.identity: RadicalElement.one(), sigma: RadicalElement.from_rational(d).nth_root(2)},
        )
        hom = hom_from_splitting(algebra, splitting)
        assert hom.field.is_rational                    # the algebra splits as Q x Q
        projector = kernel_projector(algebra, hom)
        assert projector * projector == projector
        assert projector != algebra.one() and not projector.is_zero
    elapsed = check("criterion 4")
    print(f"ACCEPTANCE 4 (twisted algebra structure): PASS in {elapsed:.2f}s")


def test_acceptance_05_congruences():
    check = timed(1.0)
    group = FiniteAbelianGroup((2,))
    i = RadicalElement.root_of_unity(Fraction(1, 4))
    primes = list(primerange(3, 60))
    for m in range(-50, 51):
        if m == 0 or is_square(m):
            continue
        datum = order_two_datum(m)
        descriptor = construct_gl2_type(datum)
        assert alpha_epsilon_congruent(descriptor)
        for g in group.elements():
            ratio = descriptor.alpha(g) ** 2 / descriptor.epsilon(g)
            assert ratio.rational_value() == datum.degrees[g]
        q = Fraction(abs(m) % 7 + 1, 3)
        entries = tuple(
            FrobeniusEntry(p, g, descriptor.alpha(g) * RadicalElement.from_rational(q))
            for p, g in zip(primes, [(0,), (1,), (1,), (0,), (1,)])
        )
        reports = frobenius_congruences(descriptor, FrobeniusAssignment(entries))
        assert all(r.status == OK for r in reports)
        twisted = tuple(
            FrobeniusEntry(e.p, e.frobenius_class, e.a_p * i) for e in entries
        )
        reports = frobenius_congruences(descriptor, FrobeniusAssignment(twisted))
        assert all(r.status == "fail" for r in reports)
    elapsed = check("criterion 5")
    print(f"ACCEPTANCE 5 (congruence checks): PASS in {elapsed:.2f}s")


def test_acceptance_06_brauer_order():
    check = timed(1.0)
    for m in range(-50, 51):
        if m == 0:
            continue
        datum = order_two_datum(m)
        assert power_splits_over_rationals(datum.cocycle**2)
        assert brauer_order(datum) in (1, 2)
    two = order_two_datum(2)
    assert brauer_order(two) == 2
    assert not power_splits_over_rationals(two.cocycle)
    four = order_two_datum(4)
    assert brauer_order(four) == 1
    elapsed = check("criterion 6")
    print(f"ACCEPTANCE 6 (Brauer order): PASS in {elapsed:.2f}s")


def test_acceptance_07_descent_suite():
    check = timed(5.0)
    rng = random.Random(777)
    configs = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
    count = 0
    while count < 50:
        order, n = configs[count % len(configs)]
        datum = random_descent_datum(rng, (order,), n)
        operators = build_restriction(datum)
        for s in datum.group.elements():
            for t in datum.group.elements():
                assert operators[s].compose(operators[t]) == operators[datum.group.add(s, t)]
        report = eta_descent(datum)
        assert report.idempotent_ok
        assert report.rank == n
        assert report.fixed_by_all
        assert report.diagonal_image_ok
        count += 1
    for m in (2, -2, -6, 15):
        datum = order_two_datum(m)
        assert iota_equivariance_violation(datum) is None
        for slot in datum.group.elements():
            assert iota_equivariance_violation(datum, {slot: Fraction(2)}) is not None
    elapsed = check("criterion 7")
    print(f"ACCEPTANCE 7 (descent suite, {count} random data): PASS in {elapsed:.2f}s")


def test_acceptance_08_trace_tables():
    check = timed(2.0)
    rng = random.Random(4242)
    q = MultiquadraticField.rationals()
    configs = [
        (q, DirichletCharacterData.trivial(), 1, True),
        (MultiquadraticField.from_square_classes([2]), DirichletCharacterData.trivial(), 2, True),
        (MultiquadraticField.from_square_classes([-1]), chi_mod8(), -1, False),
        (MultiquadraticField.from_square_classes([5]), DirichletCharacterData.trivial(), 5, True),
        (MultiquadraticField.from_square_classes([-1]), chi_mod16_order4(), -1, False),
    ]
    primes = [p for p in primerange(3, 160)][:30]
    tables_checked = 0
    for round_index in range(4):
        for field_e, eps, d, field_real in configs:
            assert eps.is_even
            entries = compliant_table_entries(rng, field_real, d, eps, primes)
            assert len(entries) >= 25
            table = TraceTable(field_e, eps, entries)
            report = conjugation_symmetry_report(table)
            assert all(r.ok for r in report)
            generated, _ = generated_field_e(table)
            assert field_e.contains(generated)
            inner = generated_field_f(table)
            assert inner.field_f.totally_real
            assert inner.containment_ok
            for basis_class in inner.field_f.basis:
                assert field_e.contains_class(basis_class)
            if not field_real:
                # a generic shift leaves every compliant ray in Q(i)
                index = rng.randrange(len(entries))
                old = entries[index]
                shift = QuadraticElement(Fraction(1), Fraction(2), -1)
                perturbed = list(entries)
                perturbed[index] = TraceEntry(old.p, old.a_p + shift, old.good)
                bad_table = TraceTable(field_e, eps, perturbed)
                flags = {r.p: r.ok for r in conjugation_symmetry_report(bad_table)}
                assert not flags[old.p]
                assert all(flags[p] for p in flags if p != old.p)
            tables_checked += 1
    assert tables_checked >= 20
    elapsed = check("criterion 8")
    print(f"ACCEPTANCE 8 (trace tables, {tables_checked} tables): PASS in {elapsed:.2f}s")


def test_acceptance_09_obstruction_soundness():
    check = timed(2.0)
    rng = random.Random(99)
    cocycle = klein_alternating_cocycle()
    group = cocycle.group
    result = split_cocycle(cocycle)
    assert not result.split
    pairing = result.obstruction
    assert pairing((1, 0), (0, 1)) == RadicalElement.minus_one()
    assert pairing_is_alternating(pairing) and pairing_is_bimultiplicative(pairing)
    for _ in range(50):
        b = random_cochain(rng, group)
        modified = cocycle * b.coboundary()
        out = split_cocycle(modified)
        assert not out.split
        assert out.obstruction == pairing
    elapsed = check("criterion 9")
    print(f"ACCEPTANCE 9 (obstruction soundness, 50 modifications): PASS in {elapsed:.2f}s")
