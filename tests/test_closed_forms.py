"""Closed forms against the enumerations they replace.

``power_splits_over_rationals`` decides a rational twist by a parity test on
the cyclic generators; ``helpers.power_splits_by_twists`` searches all |G|
character twists.  ``GroupCharacter`` checks multiplicativity on generators;
``helpers.group_character_oracle`` scans every pair.  ``iota_equivariance_violation``
compares slot scales; ``helpers.iota_by_closures`` compares both ways around
the square at every pair.  Each pair must give the same verdict and the same
first witness.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcurves.cohomology import OneCochain, TwoCocycle, power_splits_over_rationals
from qcurves.descent import iota_equivariance_violation
from qcurves.groups import FiniteAbelianGroup, GroupCharacter
from qcurves.pipeline import QCurveDatum
from qcurves.radicals import RadicalElement

from helpers import (
    character,
    group_character_oracle,
    iota_by_closures,
    klein_alternating_cocycle,
    power_splits_by_twists,
    random_descent_datum,
)

SHAPES = [(2,), (3,), (4,), (6,), (8,), (2, 2), (4, 2), (2, 3), (2, 2, 2)]
SMALL_SHAPES = [(2,), (3,), (4,), (2, 2), (2, 3), (4, 2)]


def half_character_coboundary(rng: random.Random, group: FiniteAbelianGroup) -> TwoCocycle:
    """The coboundary of a(g) = q(g) p^phi(g) e(chi(g)/2 + s(g)), with chi
    and phi random homomorphisms G -> Q/Z lifted to [0, 1), s(g) in {0, 1/2}
    and q(g) a nonzero rational.  Its values are rational.  Whether a power
    splits rationally depends on chi (the torsion side, on even factors) and
    on phi (the exponent side, on every factor)."""
    orders = group.cyclic_orders
    index = [rng.randrange(n) for n in orders]
    exponent_index = [rng.randrange(n) if rng.random() < 0.3 else 0 for n in orders]
    prime = rng.choice((2, 3, 5))
    values = {group.identity: RadicalElement.one()}
    for g in group.elements()[1:]:
        chi = sum(Fraction(i * x, n) for i, x, n in zip(index, g, orders)) % 1
        phi = sum(Fraction(b * x, n) for b, x, n in zip(exponent_index, g, orders)) % 1
        sign = Fraction(rng.randrange(2), 2)
        q = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        values[g] = RadicalElement.from_rational(q) * RadicalElement(chi / 2 + sign, {prime: phi})
    return OneCochain(group, values).coboundary()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SHAPES), st.integers(1, 3), st.randoms(use_true_random=False))
def test_rational_twist_closed_form_matches_the_twist_search(shape, k, rng):
    c = half_character_coboundary(rng, FiniteAbelianGroup(shape))
    assert c.is_rational_valued
    assert power_splits_over_rationals(c**k) == power_splits_by_twists(c**k)


def test_both_rational_twist_verdicts_occur_on_every_shape():
    rng = random.Random(7)
    for shape in SHAPES:
        verdicts = set()
        for _ in range(12):
            c = half_character_coboundary(rng, FiniteAbelianGroup(shape))
            for k in (1, 2, 3):
                verdict = power_splits_over_rationals(c**k)
                assert verdict == power_splits_by_twists(c**k)
                verdicts.add(verdict)
        assert verdicts == {True, False}, shape


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rational_twist_of_an_obstructed_cocycle(k):
    c = klein_alternating_cocycle()
    assert power_splits_over_rationals(c**k) == power_splits_by_twists(c**k) == (k == 2)


# -- characters -----------------------------------------------------------------------


@st.composite
def character_tables(draw):
    """A character table of a small group, perturbed at up to three elements.

    Some tables are first shifted by a random function of every coordinate
    but the first, which keeps them multiplicative along the first
    generator only.
    """
    group = FiniteAbelianGroup(draw(st.sampled_from(SHAPES)))
    index = [draw(st.integers(0, n - 1)) for n in group.cyclic_orders]
    values = character(group, index).values()
    if draw(st.booleans()):
        shift = {group.identity[1:]: Fraction(0)}
        for g in group.elements():
            if g[1:] not in shift:
                shift[g[1:]] = Fraction(draw(st.integers(0, 3)), 4)
            values[g] = RadicalElement.root_of_unity(values[g].torsion + shift[g[1:]])
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(group.elements()))
        if g not in values:
            continue
        kind = draw(st.sampled_from(["torsion", "torsion", "missing", "radical"]))
        if kind == "torsion":
            den = draw(st.integers(2, 12))
            shift = Fraction(draw(st.integers(1, den - 1)), den)
            values[g] = RadicalElement.root_of_unity(values[g].torsion + shift)
        elif kind == "missing":
            del values[g]
        else:
            values[g] = RadicalElement.prime_power(2, Fraction(1, 2))
    return group, values


def character_verdict(group, values):
    try:
        GroupCharacter(group, values)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(character_tables())
def test_generator_check_names_the_same_first_pair(table):
    group, values = table
    assert character_verdict(group, values) == group_character_oracle(group, values)


# -- iota -------------------------------------------------------------------------------

RATIONALS = [1, -1, 2, -3, Fraction(1, 2), Fraction(5, 3)]


def scales(group):
    slot_scales = st.dictionaries(
        st.sampled_from(group.elements()), st.integers(-2, 3).map(Fraction), max_size=4
    )
    return st.one_of(st.none(), slot_scales)


@st.composite
def qcurve_iota_cases(draw):
    """A Q-curve datum with a random rational table (not necessarily a
    cocycle: iota reads only its coefficients) and slot scales."""
    group = FiniteAbelianGroup(draw(st.sampled_from(SMALL_SHAPES)))
    elements = group.elements()
    values = {
        (g, h): RadicalElement.from_rational(draw(st.sampled_from(RATIONALS)))
        for g in elements
        for h in elements
    }
    datum = QCurveDatum(group, {g: 1 for g in elements}, TwoCocycle(group, values))
    return datum, draw(scales(group))


@st.composite
def descent_iota_cases(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    datum = random_descent_datum(rng, draw(st.sampled_from(SMALL_SHAPES)), draw(st.integers(1, 2)))
    return datum, draw(scales(datum.group))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(qcurve_iota_cases(), descent_iota_cases()))
def test_closed_form_iota_names_the_closure_witness(case):
    datum, scale = case
    assert iota_equivariance_violation(datum, scale) == iota_by_closures(datum, scale)


def test_irrational_cocycle_rejected_before_any_witness():
    z2 = FiniteAbelianGroup((2,))
    sqrt2 = RadicalElement.prime_power(2, Fraction(1, 2))
    datum = QCurveDatum(z2, {(0,): 1, (1,): 2}, TwoCocycle(z2, {((1,), (1,)): sqrt2}))
    # (1, 0) would be the first witness of this scale, before (1, 1) is read
    with pytest.raises(ValueError, match="rational-valued cocycles only"):
        iota_equivariance_violation(datum, {(1,): Fraction(2)})
