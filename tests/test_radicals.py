"""Group laws and canonical roots in the radical value group."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcurves.errors import UnsupportedDegree
from qcurves.radicals import RadicalElement

from helpers import complex_value, random_radical


def radicals(torsion_dens=(1, 2, 4, 8), exponent_dens=(1, 2, 3, 4)):
    def build(seed):
        return random_radical(random.Random(seed), torsion_dens, exponent_dens)

    return st.integers(min_value=0, max_value=10**9).map(build)


ONE = RadicalElement.one()
MINUS_ONE = RadicalElement.minus_one()
SQRT2 = RadicalElement.prime_power(2, Fraction(1, 2))


def test_minus_one_squares_to_one():
    assert MINUS_ONE * MINUS_ONE == ONE


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == RadicalElement.from_rational(2)


def test_mixed_torsion_product():
    x = RadicalElement(Fraction(1, 4), {3: Fraction(1, 2)})
    y = RadicalElement(Fraction(1, 2), {3: Fraction(1, 2)})
    expected = RadicalElement(Fraction(3, 4), {3: 1})
    assert x * y == expected
    # independent check by complex evaluation
    assert abs(complex_value(x) * complex_value(y) - complex_value(expected)) < 1e-9


@settings(max_examples=150, deadline=None)
@given(radicals(), radicals(), radicals())
def test_group_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * ONE == x
    assert x * x.inverse() == ONE


@settings(max_examples=100, deadline=None)
@given(radicals(), st.integers(min_value=1, max_value=12))
def test_nth_root_inverts_power(x, n):
    root = x.nth_root(n)
    assert root**n == x
    assert 0 <= root.torsion < Fraction(1, n) or x.torsion == 0


def test_canonical_roots():
    assert RadicalElement.from_rational(2).nth_root(2) == SQRT2
    assert RadicalElement.minus_one().nth_root(2) == RadicalElement.root_of_unity(
        Fraction(1, 4)
    )
    six = RadicalElement.from_rational(6)
    assert six.nth_root(2) == RadicalElement(0, {2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert six.nth_root(2) ** 2 == six


@settings(max_examples=60, deadline=None)
@given(st.lists(radicals(), min_size=1, max_size=8))
def test_complex_value_oracle_on_words(word):
    product = ONE
    value = complex(1, 0)
    for x in word:
        product = product * x
        value *= complex_value(x)
    assert cmath.isclose(complex_value(product), value, rel_tol=1e-9, abs_tol=1e-9)


def test_rational_round_trip():
    for q in [Fraction(1), Fraction(-1), Fraction(6, 5), Fraction(-49, 8), Fraction(30)]:
        assert RadicalElement.from_rational(q).rational_value() == q


def test_rationality_predicates():
    assert RadicalElement.from_rational(-12).is_rational
    assert not SQRT2.is_rational
    assert not RadicalElement.root_of_unity(Fraction(1, 4)).is_rational
    assert RadicalElement.root_of_unity(Fraction(1, 4)).is_root_of_unity
    with pytest.raises(ValueError):
        SQRT2.rational_value()


def test_zero_rejected():
    with pytest.raises(ValueError):
        RadicalElement.from_rational(0)


def test_sqrt_multiple_decomposition():
    i = RadicalElement.root_of_unity(Fraction(1, 4))
    assert (i * SQRT2).as_sqrt_multiple() == (Fraction(1), -2)
    assert i.as_sqrt_multiple() == (Fraction(1), -1)
    assert RadicalElement.from_rational(-18).as_sqrt_multiple() == (Fraction(-18), 1)
    x = RadicalElement(Fraction(3, 4), {2: Fraction(3, 2)})  # -i * 2 * sqrt(2)
    assert x.as_sqrt_multiple() == (Fraction(-2), -2)
    with pytest.raises(UnsupportedDegree):
        RadicalElement.from_rational(2).nth_root(3).as_sqrt_multiple()


def test_exponent_table_is_canonical():
    x = RadicalElement(0, {2: Fraction(1, 2), 3: Fraction(0)})
    assert x.exponents == {2: Fraction(1, 2)}
    assert x == SQRT2
    assert hash(x) == hash(SQRT2)
