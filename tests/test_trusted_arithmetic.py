"""Quadratic arithmetic results against the public constructor.

Results of + - * /, negation and conjugation are built without the public
constructor's checks.  Each must equal the element the public constructor
builds from the coordinates of the textbook formulas, also when the result
turns rational: the same integer coordinates (x, y, n, d), with d = 1 for a
rational result, the same rational coordinates a, b and the same hash.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcurves.errors import ValueOutsideField
from qcurves.fields import QuadraticElement, root_of_unity_as_quadratic
from qcurves.radicals import RadicalElement

CLASSES = [-30, -15, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 15, 30]
ROOTS_OF_UNITY = [Fraction(k, n) for n in (1, 2, 3, 4, 6) for k in range(n)]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero = rationals.filter(bool)


@st.composite
def pairs(draw):
    """Two publicly built elements of one quadratic field; either may be rational."""
    d = draw(st.sampled_from(CLASSES))
    x, y = (
        QuadraticElement(draw(rationals), draw(rationals), draw(st.sampled_from([d, 1])))
        for _ in range(2)
    )
    return x, y


def join(x, y) -> int:
    return x.d if x.d == y.d or y.b == 0 else y.d


def product(x, y) -> tuple:
    d = join(x, y)
    return (x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)


def quotient(x, y) -> tuple:
    norm = y.a * y.a - y.b * y.b * y.d
    return product(x, QuadraticElement(y.a / norm, -y.b / norm, y.d))


def assert_public(result, coordinates):
    """result equals, coordinate by coordinate, the public constructor's element."""
    expected = QuadraticElement(*coordinates)
    integers = (expected.x, expected.y, expected.n, expected.d)
    assert (result.x, result.y, result.n, result.d) == integers
    assert (result.a, result.b, result.d) == (expected.a, expected.b, expected.d)
    assert type(result.a) is Fraction and type(result.b) is Fraction
    assert result == expected and hash(result) == hash(expected)
    assert (result.d == 1) == (result.b == 0)


@given(pairs())
def test_arithmetic_results_equal_publicly_built_elements(pair):
    x, y = pair
    assert_public(x + y, (x.a + y.a, x.b + y.b, join(x, y)))
    assert_public(x - y, (x.a - y.a, x.b - y.b, join(x, y)))
    assert_public(x * y, product(x, y))
    assert_public(x.square(), product(x, x))
    assert_public(-x, (-x.a, -x.b, x.d))
    assert_public(x.conjugate(), (x.a, -x.b, x.d))
    if not y.is_zero:
        assert_public(x / y, quotient(x, y))


@given(pairs(), nonzero)
def test_results_that_turn_rational(pair, q):
    x, _ = pair
    assert_public(x - x, (Fraction(0), Fraction(0), 1))
    assert_public(x + (-x), (Fraction(0), Fraction(0), 1))
    assert_public(x * x.conjugate(), product(x, x.conjugate()))
    assert (x * x.conjugate()).is_rational
    assert_public(x / q, quotient(x, QuadraticElement.from_rational(q)))
    assert_public(x * q, product(x, QuadraticElement.from_rational(q)))


@given(st.sampled_from(ROOTS_OF_UNITY), nonzero)
def test_division_by_a_root_of_unity(torsion, q):
    u = root_of_unity_as_quadratic(RadicalElement.root_of_unity(torsion))
    assert_public(u, (u.a, u.b, u.d))
    y = u * q
    assert_public(y / u, (q, Fraction(0), 1))
    assert_public(u * u.conjugate(), (Fraction(1), Fraction(0), 1))


@given(st.sampled_from(CLASSES), st.sampled_from(CLASSES), nonzero, nonzero)
def test_mixed_fields_still_raise(d, e, b, c):
    if d == e:
        return
    x, y = QuadraticElement(0, b, d), QuadraticElement(1, c, e)
    for op in (x.__add__, x.__sub__, x.__mul__, x.__truediv__):
        with pytest.raises(ValueOutsideField):
            op(y)
