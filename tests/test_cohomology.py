"""Cocycle validation, coboundaries, canonical splitting, and obstructions."""

import itertools
import random
from fractions import Fraction

import pytest

from qcurves.cohomology import (
    OneCochain,
    TwoCocycle,
    power_splits_over_rationals,
    split_cocycle,
)
from qcurves.errors import InvalidCocycle
from qcurves.groups import FiniteAbelianGroup
from qcurves.radicals import RadicalElement

from helpers import (
    all_characters,
    brute_force_splittable,
    character_twists,
    klein_alternating_cocycle,
    mu8_sqrt2_pool,
    pairing_is_alternating,
    pairing_is_bimultiplicative,
    random_cochain,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
V4 = FiniteAbelianGroup((2, 2))
SIGMA = (1,)


def z2_cocycle(m) -> TwoCocycle:
    return TwoCocycle(Z2, {(SIGMA, SIGMA): RadicalElement.from_rational(m)})


def brute_violation(c: TwoCocycle):
    """Exhaustive 8-triple oracle for small groups (independent re-check)."""
    for g, h, k in itertools.product(c.group.elements(), repeat=3):
        add = c.group.add
        if c(g, h) * c(add(g, h), k) != c(h, k) * c(g, add(h, k)):
            return (g, h, k)
    return None


# -- validation ----------------------------------------------------------------


def test_constant_one_is_valid():
    assert TwoCocycle.constant_one(Z2).violation() is None


@pytest.mark.parametrize("m", [1, 2, -2, 5, -6, 36])
def test_z2_diagonal_value_is_valid(m):
    assert z2_cocycle(m).violation() is None


def test_bad_normalization_is_detected():
    c = TwoCocycle(
        Z2, {((0,), SIGMA): RadicalElement.from_rational(2)}
    )
    violation = c.violation()
    assert violation is not None
    assert violation == brute_violation(c)


def test_violation_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        values = {
            (g, h): random_radical_pm(rng)
            for g in V4.elements()
            for h in V4.elements()
        }
        c = TwoCocycle(V4, values)
        assert (c.violation() is None) == (brute_violation(c) is None)


def random_radical_pm(rng):
    from helpers import random_radical

    return random_radical(rng, torsion_dens=(1, 2), exponent_dens=(1,), primes=(2,))


# -- coboundaries ---------------------------------------------------------------


def test_constant_cochain_gives_constant_cocycle():
    assert OneCochain.constant_one(Z2).coboundary() == TwoCocycle.constant_one(Z2)


def test_sqrt2_cochain_coboundary():
    sqrt2 = RadicalElement.from_rational(2).nth_root(2)
    a = OneCochain(Z2, {(0,): RadicalElement.one(), SIGMA: sqrt2})
    assert a.coboundary() == z2_cocycle(2)


@pytest.mark.parametrize("group", [Z2, Z3, Z4, V4])
def test_coboundaries_are_valid_cocycles(group):
    rng = random.Random(5)
    for _ in range(20):
        a = random_cochain(rng, group)
        assert a.coboundary().violation() is None


# -- splitting -------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, -2, 3, -6, 4, 9])
def test_split_z2_takes_canonical_square_root(m):
    result = split_cocycle(z2_cocycle(m))
    assert result.split
    assert result.cochain(SIGMA) == RadicalElement.from_rational(m).nth_root(2)


@pytest.mark.parametrize("group", [Z2, Z3, Z4, V4])
def test_split_round_trip(group):
    rng = random.Random(23)
    for _ in range(25):
        a = random_cochain(rng, group)
        c = a.coboundary()
        result = split_cocycle(c)
        assert result.split
        assert result.cochain.coboundary() == c
        # recovered cochain differs from the input by a character
        ratio = result.cochain / a
        assert any(
            all(ratio(g) == chi(g) for g in group.elements())
            for chi in all_characters(group)
        )


def test_split_requires_valid_cocycle():
    c = TwoCocycle(Z2, {((0,), SIGMA): RadicalElement.from_rational(2)})
    with pytest.raises(InvalidCocycle):
        split_cocycle(c)


def test_klein_alternating_cocycle_is_obstructed():
    c = klein_alternating_cocycle()
    assert c.violation() is None
    result = split_cocycle(c)
    assert not result.split
    pairing = result.obstruction
    assert pairing_is_alternating(pairing)
    assert pairing_is_bimultiplicative(pairing)
    assert not pairing.is_trivial
    assert pairing((1, 0), (0, 1)) == RadicalElement.minus_one()


def test_klein_obstruction_confirmed_by_brute_force():
    # no cochain valued in mu_8 * {1, sqrt 2} splits the alternating cocycle
    assert not brute_force_splittable(klein_alternating_cocycle(), mu8_sqrt2_pool())
    # sanity: the same search does split a genuine coboundary
    sqrt2 = RadicalElement.from_rational(2).nth_root(2)
    a = OneCochain(
        V4,
        {
            (0, 0): RadicalElement.one(),
            (0, 1): sqrt2,
            (1, 0): RadicalElement.minus_one(),
            (1, 1): sqrt2 * RadicalElement.root_of_unity(Fraction(1, 4)),
        },
    )
    assert brute_force_splittable(a.coboundary(), mu8_sqrt2_pool())


def test_obstruction_pairing_is_coboundary_invariant():
    rng = random.Random(3)
    c = klein_alternating_cocycle()
    pairing = split_cocycle(c).obstruction
    for _ in range(25):
        b = random_cochain(rng, V4)
        modified = c * b.coboundary()
        result = split_cocycle(modified)
        assert not result.split
        assert result.obstruction == pairing


def test_cyclic_groups_never_obstruct():
    rng = random.Random(17)
    for group in (Z2, Z3, Z4, FiniteAbelianGroup((6,))):
        for _ in range(10):
            a = random_cochain(rng, group)
            assert split_cocycle(a.coboundary()).split


# -- twists ----------------------------------------------------------------------


def test_twists_on_z2():
    sqrt2 = RadicalElement.from_rational(2).nth_root(2)
    a = OneCochain(Z2, {(0,): RadicalElement.one(), SIGMA: sqrt2})
    twists = character_twists(a)
    assert len(twists) == 2
    assert {t(SIGMA) for t in twists} == {sqrt2, sqrt2 * RadicalElement.minus_one()}


def test_twists_on_z3_identity():
    twists = character_twists(OneCochain.constant_one(Z3))
    assert len(twists) == 3
    values = {t((1,)) for t in twists}
    assert values == {
        RadicalElement.root_of_unity(Fraction(k, 3)) for k in range(3)
    }


@pytest.mark.parametrize("group", [Z2, Z4, V4])
def test_twists_preserve_coboundary(group):
    rng = random.Random(29)
    a = random_cochain(rng, group)
    c = a.coboundary()
    for t in character_twists(a):
        assert t.coboundary() == c


# -- rational class order ----------------------------------------------------------


def z2_rational_order_oracle(m, k) -> bool:
    """On Z/2 the power splits rationally iff m^k is a square of a rational."""
    from qcurves.arith import is_rational_square

    return is_rational_square(Fraction(m) ** k)


def test_rational_coboundary_detected():
    a = OneCochain(Z2, {(0,): RadicalElement.one(), SIGMA: RadicalElement.from_rational(6)})
    assert power_splits_over_rationals(a.coboundary())


@pytest.mark.parametrize("m", [2, -2, 3, 4, -4, 9, 12, -1, 49, -50])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_z2_class_order_matches_square_oracle(m, k):
    assert power_splits_over_rationals(z2_cocycle(m) ** k) == z2_rational_order_oracle(m, k)


def test_z2_value_two_has_order_exactly_two():
    c = z2_cocycle(2)
    assert not power_splits_over_rationals(c)
    assert power_splits_over_rationals(c**2)


def test_klein_alternating_square_splits_rationally():
    c = klein_alternating_cocycle()
    assert not power_splits_over_rationals(c)
    assert power_splits_over_rationals(c**2)


def test_rational_values_required():
    sqrt2 = RadicalElement.from_rational(2).nth_root(2)
    c = TwoCocycle(Z2, {(SIGMA, SIGMA): sqrt2})
    with pytest.raises(ValueError):
        power_splits_over_rationals(c)


def test_rational_splitting_on_z4():
    rng = random.Random(41)
    for _ in range(10):
        values = {g: RadicalElement.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 4))) for g in Z4.elements()}
        values[(0,)] = RadicalElement.one()
        a = OneCochain(Z4, values)
        assert power_splits_over_rationals(a.coboundary())
