"""Integer log coordinates decide the cocycle and splitting identities exactly.

``TwoCocycle``'s identity scan and ``OneCochain.splits`` compare sums of
packed integers instead of multiplying radicals.  These properties hold both
to the radical arithmetic they replace, on values whose denominators and
exponents are far larger than any document's.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcurves.cohomology import OneCochain, TwoCocycle
from qcurves.groups import FiniteAbelianGroup
from qcurves.radicals import RadicalElement, log_coordinates

from helpers import radical_scan

ONE = RadicalElement.one()
BIG_PRIME = 10**9 + 7
TORSION_DENS = (1, 2, 4, 6, 10**12 + 39)
EXPONENT_DENS = (1, 2, 3, 10**15)
SHAPES = sorted(
    orders
    for size in range(1, 5)
    for orders in itertools.product(range(2, 17), repeat=size)
    if math.prod(orders) <= 16
)


@st.composite
def radicals(draw):
    den = draw(st.sampled_from(TORSION_DENS))
    torsion = Fraction(draw(st.integers(0, den - 1)), den)
    exponents = {
        p: Fraction(draw(st.integers(-(10**30), 10**30)), draw(st.sampled_from(EXPONENT_DENS)))
        for p in draw(st.sets(st.sampled_from((2, 3, 5, BIG_PRIME)), max_size=2))
    }
    return RadicalElement(torsion, exponents)


@st.composite
def cochains(draw, group):
    values = {g: draw(radicals()) for g in group.elements()}
    values[group.identity] = ONE
    return OneCochain(group, values)


def bicharacter(group, multipliers):
    """(g, h) -> e(sum_{i<j} m_ij g_i h_j / gcd(n_i, n_j)), a cocycle that is
    not symmetric when some m_ij is nonzero modulo its gcd."""
    orders = group.cyclic_orders
    pairs = [(i, j) for i in range(len(orders)) for j in range(i + 1, len(orders))]

    def value(g, h):
        t = sum(
            Fraction(m * g[i] * h[j], math.gcd(orders[i], orders[j]))
            for m, (i, j) in zip(multipliers, pairs)
        )
        return RadicalElement.root_of_unity(t)

    return value


@st.composite
def perturbed(draw, values, keys, most=3):
    """The table with up to ``most`` entries multiplied by radicals other than 1."""
    values = dict(values)
    for _ in range(draw(st.integers(0, most))):
        key = draw(st.sampled_from(keys))
        values[key] = values[key] * draw(radicals().filter(lambda v: not v.is_one))
    return values


@st.composite
def cocycle_tables(draw):
    """Coboundary times bicharacter, with 0-3 perturbed entries."""
    group = FiniteAbelianGroup(draw(st.sampled_from(SHAPES)))
    c = draw(cochains(group)).coboundary()
    b = bicharacter(group, draw(st.lists(st.integers(0, 7), min_size=6, max_size=6)))
    values = {(g, h): v * b(g, h) for (g, h), v in c.values().items()}
    return TwoCocycle(group, draw(perturbed(values, sorted(values))))


@settings(max_examples=30, deadline=None)
@given(cocycle_tables())
def test_integer_scan_returns_the_radical_scan_triple(c):
    assert c.violation() == radical_scan(c)


@st.composite
def cochain_and_cocycle(draw):
    """A cochain a and the coboundary of a cochain b, where b is a with 0-2
    perturbed values and the coboundary has 0-2 perturbed entries."""
    group = FiniteAbelianGroup(draw(st.sampled_from(SHAPES)))
    a = draw(cochains(group))
    others = group.elements()[1:]
    b = OneCochain(group, draw(perturbed(a.values(), others, most=2)))
    c = b.coboundary().values()
    return a, TwoCocycle(group, draw(perturbed(c, sorted(c), most=2)))


@settings(max_examples=40, deadline=None)
@given(cochain_and_cocycle())
def test_splits_agrees_with_coboundary_equality(pair):
    a, c = pair
    assert a.splits(c) == (a.coboundary() == c)


@settings(max_examples=100, deadline=None)
@given(st.lists(radicals(), min_size=3, max_size=3), st.booleans())
def test_four_term_sum_decides_the_product_identity(triple, balanced):
    v1, v2, v3 = triple
    v4 = v1 * v2 / v3 if balanced else v3
    (x1, x2, x3, x4), zeros = log_coordinates([v1, v2, v3, v4])
    assert (x1 + x2 - x3 - x4 in zeros) == (v1 * v2 == v3 * v4)


@pytest.mark.parametrize("k", [1, 2, 2**99])
def test_slots_do_not_carry_at_the_bound(k):
    """2^m 2^m against 2^-m 3^k * 2^-m, with m = 2^100.  The four-term sum
    has 4m in the slot of 2 and -k in the slot of 3, so a base of 4m / k
    (4m, 2m, or the 8 that D = 1 alone would give) would cancel them."""
    m = 2**100
    v1 = RadicalElement(0, {2: m})
    v3 = RadicalElement(0, {2: -m, 3: k})
    v4 = RadicalElement(0, {2: -m})
    (x1, x3, x4), zeros = log_coordinates([v1, v3, v4])
    assert v1 * v1 != v3 * v4
    assert x1 + x1 - x3 - x4 not in zeros
