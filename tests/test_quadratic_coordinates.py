"""Integer coordinates of quadratic elements against the Fraction-pair oracle.

Every operation must give the element the oracle gives, also on 512-bit
coordinates, and every result must be in normal form: (x + y sqrt(d)) / n
with n > 0, gcd(x, y, n) = 1 and d = 1 exactly when y = 0.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcurves.arith import INPUT_BITS
from qcurves.errors import ValueOutsideField
from qcurves.fields import QuadraticElement

from helpers import FractionQuadratic, weil_bound_oracle

CLASSES = [-30, -7, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 30]
LIMIT = 2**INPUT_BITS - 1

small = st.integers(-50, 50)
large = st.integers(-LIMIT, LIMIT)
rationals = st.builds(
    Fraction,
    st.one_of(small, large),
    st.one_of(st.integers(1, 12), st.integers(1, LIMIT)),
)


@st.composite
def elements(draw, d):
    """A publicly built element of Q(sqrt(d)), rational about a third of the time."""
    a = draw(rationals)
    b = draw(st.one_of(st.just(Fraction(0)), rationals))
    return QuadraticElement(a, b, draw(st.sampled_from([d, d, 1])))


@st.composite
def pairs(draw):
    d = draw(st.sampled_from(CLASSES))
    return draw(elements(d)), draw(elements(d))


def assert_normal(r):
    assert all(type(v) is int for v in (r.x, r.y, r.n, r.d))
    assert r.n > 0
    assert math.gcd(r.x, r.y, r.n) == 1
    assert (r.d == 1) == (r.y == 0)


def assert_matches(result, expected: FractionQuadratic):
    """result is the oracle's element, in normal form."""
    assert_normal(result)
    assert (result.a, result.b, result.d) == (expected.a, expected.b, expected.d)
    assert result == QuadraticElement(expected.a, expected.b, expected.d)


@given(pairs())
def test_operations_match_the_oracle(pair):
    x, y = pair
    ox, oy = FractionQuadratic.of(x), FractionQuadratic.of(y)
    assert_normal(x)
    assert_matches(x + y, ox + oy)
    assert_matches(x - y, ox - oy)
    assert_matches(x * y, ox * oy)
    assert_matches(-x, -ox)
    assert_matches(x.conjugate(), ox.conjugate())
    assert_matches(x.square(), ox * ox)
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_matches(x / y, ox / oy)


@given(pairs(), st.one_of(small, large))
def test_rational_operands_match_the_oracle(pair, k):
    x, _ = pair
    ox = FractionQuadratic.of(x)
    ok = FractionQuadratic(k, 0, 1)
    assert_matches(x * k, ox * ok)
    assert_matches(x + k, ox + ok)
    assert_matches(x - Fraction(k, 7), ox - FractionQuadratic(Fraction(k, 7), 0, 1))
    if k:
        assert_matches(x / k, ox / ok)


@given(st.sampled_from(CLASSES), st.sampled_from(CLASSES), rationals, rationals)
def test_mixed_fields_raise_like_the_oracle(d, e, b, c):
    if d == e or not b or not c:
        return
    x, y = QuadraticElement(0, b, d), QuadraticElement(1, c, e)
    ox, oy = FractionQuadratic.of(x), FractionQuadratic.of(y)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(ValueOutsideField) as ours:
            getattr(x, op)(y)
        with pytest.raises(ValueOutsideField) as oracle:
            getattr(ox, op)(oy)
        assert str(ours.value) == str(oracle.value)


@given(st.sampled_from(CLASSES), rationals, rationals, st.sampled_from([2, 3, 5, 7, 1009]))
def test_weil_bound_matches_a_high_precision_oracle(d, a, b, p):
    x = QuadraticElement(a, b, d)
    assert x.moduli_at_most_sqrt(4 * p) == weil_bound_oracle(FractionQuadratic.of(x), p)


@pytest.mark.parametrize(
    "x, p, inside",
    [
        (QuadraticElement(2, 4, -1), 5, True),  # |2 + 4i| = 2 sqrt 5 exactly
        (QuadraticElement(2, Fraction(4 * 10**30 + 1, 10**30), -1), 5, False),
        (QuadraticElement(0, 2, 5), 5, True),  # 2 sqrt 5 itself
        (QuadraticElement(0, Fraction(2 * 10**30 + 1, 10**30), 5), 5, False),
        (QuadraticElement(Fraction(-1, 10**30), 2, 5), 5, False),  # one embedding past it
        (QuadraticElement(1, 1, 2), 1, False),  # 1 + sqrt 2 > 2, while |1 - sqrt 2| < 2
        (QuadraticElement(4, 0, 1), 4, True),
        (QuadraticElement(Fraction(4 * 10**30 + 1, 10**30), 0, 1), 4, False),
    ],
)
def test_weil_bound_is_exact_at_its_boundary(x, p, inside):
    """Values within 10^-30 of 2 sqrt(p), which a float comparison with a
    tolerance of 10^-9 reads as inside."""
    assert x.moduli_at_most_sqrt(4 * p) is inside
    assert weil_bound_oracle(FractionQuadratic.of(x), p) is inside
