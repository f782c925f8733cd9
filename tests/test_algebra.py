"""Structure constants, quotient maps, projectors, and descriptor classification."""

import random
from fractions import Fraction

import pytest

from qcurves.algebra import (
    MATRIX_OVER_FIELD,
    PRIMITIVE,
    QUATERNIONIC,
    EndAlgebraDescriptor,
    TwistedGroupAlgebra,
    classify_end_algebra,
    hom_from_splitting,
    kernel_projector,
)
from qcurves.cohomology import OneCochain, TwoCocycle
from qcurves.errors import InconsistentDescriptor, InvalidCocycle, NotASplitting
from qcurves.fields import MultiquadraticField
from qcurves.groups import FiniteAbelianGroup
from qcurves.radicals import RadicalElement

from helpers import character_twists, kernel_basis, linear_projector, maps_to_one, random_cochain

Z2 = FiniteAbelianGroup((2,))
V4 = FiniteAbelianGroup((2, 2))
SIGMA = (1,)


def z2_algebra(m) -> TwistedGroupAlgebra:
    c = TwoCocycle(Z2, {(SIGMA, SIGMA): RadicalElement.from_rational(m)})
    return TwistedGroupAlgebra(Z2, c)


def z2_splitting(m) -> OneCochain:
    return OneCochain(
        Z2, {(0,): RadicalElement.one(), SIGMA: RadicalElement.from_rational(m).nth_root(2)}
    )


# -- multiplication ---------------------------------------------------------------


def test_identity_element():
    algebra = z2_algebra(2)
    x = algebra.element({(0,): Fraction(3), SIGMA: Fraction(-1, 2)})
    assert algebra.one() * x == x
    assert x * algebra.one() == x


@pytest.mark.parametrize("m", [2, 3, 5, -1, -2, -6, 4])
def test_basis_square_is_m(m):
    algebra = z2_algebra(m)
    b = algebra.basis(SIGMA)
    assert b * b == algebra.one().scale(m)


def test_expansion_example():
    algebra = z2_algebra(2)
    one, b = algebra.one(), algebra.basis(SIGMA)
    assert (one + b) * (one - b) == one.scale(-1)


def test_associativity_on_random_triples():
    rng = random.Random(13)
    for group in (Z2, V4, FiniteAbelianGroup((4,))):
        cochain = random_cochain(rng, group, torsion_dens=(1, 2), exponent_dens=(1,))
        algebra = TwistedGroupAlgebra(group, cochain.coboundary())
        for _ in range(20):
            x, y, z = (
                algebra.element(
                    {g: Fraction(rng.randint(-4, 4)) for g in group.elements()}
                )
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)


def test_corrupted_table_rejected():
    # breaking one entry of a valid table breaks the cocycle identity
    values = {
        (g, h): RadicalElement.one() for g in V4.elements() for h in V4.elements()
    }
    values[((1, 0), (0, 1))] = RadicalElement.from_rational(2)
    c = TwoCocycle(V4, values)
    assert c.violation() is not None
    with pytest.raises(InvalidCocycle):
        TwistedGroupAlgebra(V4, c)


def test_commutativity_flag():
    assert z2_algebra(2).is_commutative
    from helpers import klein_alternating_cocycle

    algebra = TwistedGroupAlgebra(V4, klein_alternating_cocycle())
    assert not algebra.is_commutative
    a, b = algebra.basis((1, 0)), algebra.basis((0, 1))
    assert a * b != b * a


# -- quotient homs ------------------------------------------------------------------


def test_hom_onto_sqrt2():
    algebra = z2_algebra(2)
    hom = hom_from_splitting(algebra, z2_splitting(2))
    assert hom.field == MultiquadraticField.from_square_classes([2])
    assert hom.images[SIGMA] == RadicalElement.from_rational(2).nth_root(2)


def test_hom_augmentation():
    algebra = TwistedGroupAlgebra(Z2, TwoCocycle.constant_one(Z2))
    hom = hom_from_splitting(algebra, OneCochain.constant_one(Z2))
    assert hom.field.is_rational


def test_hom_onto_gaussian_field():
    algebra = z2_algebra(-1)
    i = RadicalElement.root_of_unity(Fraction(1, 4))
    hom = hom_from_splitting(algebra, OneCochain(Z2, {(0,): RadicalElement.one(), SIGMA: i}))
    assert hom.field == MultiquadraticField.from_square_classes([-1])
    # multiplicativity over all four basis pairs was verified on construction
    assert hom.images[SIGMA] * hom.images[SIGMA] == RadicalElement.minus_one()


def test_hom_rejects_non_splitting():
    algebra = z2_algebra(2)
    with pytest.raises(NotASplitting):
        hom_from_splitting(algebra, z2_splitting(3))


def test_character_twisted_homs_agree_on_center():
    algebra = z2_algebra(2)
    for twist in character_twists(z2_splitting(2)):
        hom = hom_from_splitting(algebra, twist)
        assert hom.field == MultiquadraticField.from_square_classes([2])
        assert hom.images[(0,)].is_one


# -- projectors ----------------------------------------------------------------------


def test_projector_augmentation_z2():
    algebra = TwistedGroupAlgebra(Z2, TwoCocycle.constant_one(Z2))
    hom = hom_from_splitting(algebra, OneCochain.constant_one(Z2))
    projector = kernel_projector(algebra, hom)
    assert projector == algebra.element({(0,): Fraction(1, 2), SIGMA: Fraction(1, 2)})


def test_projector_is_identity_on_a_field():
    algebra = z2_algebra(2)
    projector = kernel_projector(algebra, hom_from_splitting(algebra, z2_splitting(2)))
    assert projector == algebra.one()


def test_projector_group_average_on_v4():
    algebra = TwistedGroupAlgebra(V4, TwoCocycle.constant_one(V4))
    hom = hom_from_splitting(algebra, OneCochain.constant_one(V4))
    projector = kernel_projector(algebra, hom)
    expected = algebra.element({g: Fraction(1, 4) for g in V4.elements()})
    assert projector == expected


def test_projector_properties():
    rng = random.Random(31)
    for m in (2, -2, 4, 9, -1, 36):
        algebra = z2_algebra(m)
        hom = hom_from_splitting(algebra, z2_splitting(m))
        projector = kernel_projector(algebra, hom)
        assert projector * projector == projector
        assert maps_to_one(hom, projector)
        # central and kernel-annihilating
        for _ in range(5):
            x = algebra.element({g: Fraction(rng.randint(-3, 3)) for g in Z2.elements()})
            assert x * projector == projector * x
        for k in kernel_basis(hom):
            assert (k * projector).is_zero


def ladder_splitting(group: FiniteAbelianGroup, primes) -> OneCochain:
    """a(g) = prod p_i^(g_i/2): a coboundary with rational values, like the CLI ladder."""
    return OneCochain(
        group,
        {
            g: RadicalElement(Fraction(0), {p: Fraction(x, 2) for x, p in zip(g, primes) if x})
            for g in group.elements()
        },
    )


def assert_closed_form_matches_oracle(algebra, splitting):
    hom = hom_from_splitting(algebra, splitting)
    expected = linear_projector(algebra, hom)
    assert expected is not None
    assert kernel_projector(algebra, hom) == expected


@pytest.mark.parametrize("m", [2, -2, 4])
def test_closed_form_projector_matches_linear_oracle_on_z2(m):
    assert_closed_form_matches_oracle(z2_algebra(m), z2_splitting(m))


@pytest.mark.parametrize("orders, primes", [((4,), (3,)), ((2, 2, 2), (2, 3, 5)), ((4, 2), (7, 11))])
def test_closed_form_projector_matches_linear_oracle_on_ladders(orders, primes):
    # every character twist of the ladder splitting: real, imaginary and
    # order-4 twisted values over the same rational cocycle
    group = FiniteAbelianGroup(orders)
    base = ladder_splitting(group, primes)
    algebra = TwistedGroupAlgebra(group, base.coboundary())
    for splitting in character_twists(base):
        assert_closed_form_matches_oracle(algebra, splitting)


def test_closed_form_projector_matches_linear_oracle_over_gaussian_field():
    # b_k -> i^k on the untwisted Z/4 algebra: the quotient is Q(i)
    group = FiniteAbelianGroup((4,))
    splitting = OneCochain(
        group, {(k,): RadicalElement.root_of_unity(Fraction(k, 4)) for k in range(4)}
    )
    algebra = TwistedGroupAlgebra(group, splitting.coboundary())
    hom = hom_from_splitting(algebra, splitting)
    assert hom.field == MultiquadraticField.from_square_classes([-1])
    assert_closed_form_matches_oracle(algebra, splitting)
    assert kernel_projector(algebra, hom) == algebra.element(
        {(0,): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )


def test_split_algebra_q_x_q():
    # square parameter: the algebra splits, the quotient is Q, the projector proper
    for m in (4, 9, 1):
        algebra = z2_algebra(m)
        hom = hom_from_splitting(algebra, z2_splitting(m))
        assert hom.field.is_rational
        projector = kernel_projector(algebra, hom)
        assert projector * projector == projector
        assert projector != algebra.one()
        assert not projector.is_zero


# -- descriptor classification ----------------------------------------------------------


def test_classify_elliptic_curve_over_q():
    d = EndAlgebraDescriptor(1, 1, 1, 1, 1)
    out = classify_end_algebra(d)
    assert out.primitivity == PRIMITIVE
    assert out.kind == MATRIX_OVER_FIELD


def test_classify_matrix_construction():
    d = EndAlgebraDescriptor(2, 1, 1, 2, 2)
    out = classify_end_algebra(d)
    assert out.primitivity == "non_primitive(2)"
    assert out.kind == MATRIX_OVER_FIELD


def test_classify_quaternionic():
    d = EndAlgebraDescriptor(1, 2, 1, 2, 2)
    out = classify_end_algebra(d)
    assert out.primitivity == PRIMITIVE
    assert out.kind == QUATERNIONIC


def test_classify_inconsistent():
    with pytest.raises(InconsistentDescriptor):
        classify_end_algebra(EndAlgebraDescriptor(1, 2, 1, 1, 1))  # nt != [E:F]
    with pytest.raises(InconsistentDescriptor):
        classify_end_algebra(EndAlgebraDescriptor(1, 1, 1, 2, 3))  # [E:Q] does not divide dim
    with pytest.raises(InconsistentDescriptor):
        classify_end_algebra(EndAlgebraDescriptor(0, 1, 1, 1, 1))
