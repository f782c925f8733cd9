"""The construction pipeline: validation, descriptors, congruences, Brauer order."""

import random
from fractions import Fraction

import pytest

from qcurves.cohomology import TwoCocycle
from qcurves.errors import SplittingObstructed
from qcurves.fields import MultiquadraticField
from qcurves.groups import FiniteAbelianGroup
from qcurves.pipeline import (
    FAIL,
    OK,
    SKIPPED,
    CocycleViolation,
    DegreeIdentityViolation,
    FrobeniusAssignment,
    FrobeniusEntry,
    QCurveDatum,
    alpha_epsilon_congruent,
    brauer_order,
    construct_gl2_type,
    frobenius_congruences,
)
from qcurves.quadratic import order_two_datum
from qcurves.radicals import RadicalElement

from helpers import all_characters, klein_alternating_cocycle, maps_to_one, twist

Z2 = FiniteAbelianGroup((2,))
SIGMA = (1,)


def z2_datum(m, deg):
    c = TwoCocycle(Z2, {(SIGMA, SIGMA): RadicalElement.from_rational(m)})
    return QCurveDatum(Z2, {(0,): 1, SIGMA: deg}, c)


# -- validation ---------------------------------------------------------------------


def test_valid_data():
    assert z2_datum(2, 2).violation() is None
    assert z2_datum(-2, 2).violation() is None


def test_degree_identity_violation():
    violation = z2_datum(3, 2).violation()
    assert isinstance(violation, DegreeIdentityViolation)
    assert (violation.g, violation.h) == (SIGMA, SIGMA)


def test_cocycle_violation_reported_first():
    values = {((0,), SIGMA): RadicalElement.from_rational(2)}
    datum = QCurveDatum(Z2, {(0,): 1, SIGMA: 1}, TwoCocycle(Z2, values))
    assert isinstance(datum.violation(), CocycleViolation)


def test_datum_requires_total_degrees():
    c = TwoCocycle.constant_one(Z2)
    with pytest.raises(ValueError):
        QCurveDatum(Z2, {(0,): 1}, c)
    with pytest.raises(ValueError):
        QCurveDatum(Z2, {(0,): 1, SIGMA: 0}, c)


# -- construction --------------------------------------------------------------------


def test_construct_real_quadratic():
    descriptor = construct_gl2_type(z2_datum(2, 2))
    assert descriptor.field_e == MultiquadraticField.from_square_classes([2])
    assert descriptor.dimension == 2
    assert descriptor.epsilon.is_trivial
    assert descriptor.field_f.is_rational
    assert not descriptor.epsilon_inversion_ambiguous


def test_construct_imaginary_quadratic():
    descriptor = construct_gl2_type(z2_datum(-2, 2))
    assert descriptor.field_e == MultiquadraticField.from_square_classes([-2])
    assert descriptor.dimension == 2
    assert descriptor.epsilon.order == 2


def test_construct_square_parameter_gives_dimension_one():
    descriptor = construct_gl2_type(z2_datum(4, 4))
    assert descriptor.field_e.is_rational
    assert descriptor.dimension == 1
    assert descriptor.alpha(SIGMA) == RadicalElement.from_rational(2)


def test_construct_rejects_invalid_datum():
    with pytest.raises(ValueError):
        construct_gl2_type(z2_datum(3, 2))


def test_construct_obstructed():
    group = FiniteAbelianGroup((2, 2))
    datum = QCurveDatum(
        group, {g: 1 for g in group.elements()}, klein_alternating_cocycle()
    )
    assert datum.violation() is None
    with pytest.raises(SplittingObstructed) as err:
        construct_gl2_type(datum)
    assert not err.value.pairing.is_trivial


def test_pipeline_is_deterministic():
    a = construct_gl2_type(z2_datum(-6, 6))
    b = construct_gl2_type(z2_datum(-6, 6))
    assert a.alpha == b.alpha
    assert a.epsilon.values() == b.epsilon.values()
    assert a.field_e == b.field_e
    assert a.projector == b.projector


def test_attachments_are_consistent():
    descriptor = construct_gl2_type(z2_datum(-2, 2))
    assert descriptor.omega.field == descriptor.field_e
    projector = descriptor.projector
    assert projector * projector == projector
    assert maps_to_one(descriptor.omega, projector)


def test_dimension_one_iff_splitting_rational():
    for m, deg in [(4, 4), (9, 9), (2, 2), (-2, 2), (25, 25)]:
        descriptor = construct_gl2_type(z2_datum(m, deg))
        assert (descriptor.dimension == 1) == descriptor.alpha.is_rational_valued


# -- character properties ---------------------------------------------------------------


@pytest.mark.parametrize("m,deg", [(2, 2), (-2, 2), (-1, 1), (6, 6), (-30, 30)])
def test_epsilon_is_a_character_with_rational_even_powers(m, deg):
    descriptor = construct_gl2_type(z2_datum(m, deg))
    eps = descriptor.epsilon
    assert eps(Z2.identity).is_one
    # alpha^4 / eps^2 is rational-valued
    for g in Z2.elements():
        value = descriptor.alpha(g) ** 4 / (eps(g) ** 2)
        assert value.is_rational


def test_twist_covariance_z2():
    datum = z2_datum(2, 2)
    base = construct_gl2_type(datum)
    for chi in all_characters(Z2):
        twisted = twist(base.alpha, chi)
        assert twisted.coboundary() == datum.cocycle
        # the induced character picks up chi^2
        for g in Z2.elements():
            eps_twisted = twisted(g) ** 2 / RadicalElement.from_rational(datum.degrees[g])
            assert eps_twisted == base.epsilon(g) * chi(g) * chi(g)


def test_twist_covariance_v4():
    group = FiniteAbelianGroup((2, 2))
    degrees = {g: 1 for g in group.elements()}
    datum = QCurveDatum(group, degrees, TwoCocycle.constant_one(group))
    base = construct_gl2_type(datum)
    for chi in all_characters(group):
        twisted = twist(base.alpha, chi)
        assert twisted.coboundary() == datum.cocycle
        for g in group.elements():
            eps_twisted = twisted(g) ** 2 / RadicalElement.from_rational(degrees[g])
            assert eps_twisted == base.epsilon(g) * chi(g) * chi(g)


# -- congruences --------------------------------------------------------------------------


def test_alpha_epsilon_congruence_holds_by_construction():
    for m, deg in [(2, 2), (-2, 2), (4, 4), (-6, 6)]:
        datum = z2_datum(m, deg)
        descriptor = construct_gl2_type(datum)
        assert alpha_epsilon_congruent(descriptor)
        for g in Z2.elements():
            ratio = descriptor.alpha(g) ** 2 / descriptor.epsilon(g)
            assert ratio.rational_value() == datum.degrees[g]


def test_alpha_epsilon_congruence_fails_off_character_twists():
    descriptor = construct_gl2_type(z2_datum(2, 2))
    fourth_root_of_3 = RadicalElement.from_rational(3).nth_root(4)
    perturbed_values = descriptor.alpha.values()
    perturbed_values[SIGMA] = perturbed_values[SIGMA] * fourth_root_of_3
    from qcurves.cohomology import OneCochain

    perturbed = OneCochain(Z2, perturbed_values)
    fake = type(descriptor)(
        field_e=descriptor.field_e,
        epsilon=descriptor.epsilon,
        alpha=perturbed,
        dimension=descriptor.dimension,
        field_f=descriptor.field_f,
        algebra=descriptor.algebra,
        omega=descriptor.omega,
        projector=descriptor.projector,
    )
    assert not alpha_epsilon_congruent(fake)


def test_frobenius_congruence_statuses():
    descriptor = construct_gl2_type(z2_datum(2, 2))
    alpha_sigma = descriptor.alpha(SIGMA)
    i = RadicalElement.root_of_unity(Fraction(1, 4))
    assignment = FrobeniusAssignment(
        (
            FrobeniusEntry(3, SIGMA, alpha_sigma),
            FrobeniusEntry(5, SIGMA, alpha_sigma * RadicalElement.from_rational(Fraction(7, 2))),
            FrobeniusEntry(7, SIGMA, alpha_sigma * i),
            FrobeniusEntry(11, SIGMA, None),
            FrobeniusEntry(13, SIGMA, alpha_sigma, good_reduction=False),
        )
    )
    reports = {r.p: r for r in frobenius_congruences(descriptor, assignment)}
    assert reports[3].status == OK and reports[3].ratio == 1
    assert reports[5].status == OK and reports[5].ratio == Fraction(2, 7)
    assert reports[7].status == FAIL
    assert reports[11].status == SKIPPED
    assert reports[13].status == SKIPPED
    # canonical ascending order
    assert [r.p for r in frobenius_congruences(descriptor, assignment)] == [3, 5, 7, 11, 13]


def test_frobenius_entries_must_have_distinct_primes():
    with pytest.raises(ValueError):
        FrobeniusAssignment(
            (FrobeniusEntry(3, SIGMA, None), FrobeniusEntry(3, SIGMA, None))
        )


# -- Brauer order ---------------------------------------------------------------------------


def test_brauer_order_examples():
    trivial = QCurveDatum(Z2, {(0,): 1, SIGMA: 1}, TwoCocycle.constant_one(Z2))
    assert brauer_order(trivial) == 1
    assert brauer_order(z2_datum(2, 2)) == 2
    assert brauer_order(z2_datum(4, 4)) == 1


def test_brauer_order_always_divides_two():
    rng = random.Random(19)
    for _ in range(20):
        m = rng.choice([x for x in range(-30, 31) if x])
        datum = order_two_datum(m)
        assert brauer_order(datum) in (1, 2)
