"""Descent checks on integer matrices against the Fraction routes they replace.

A ``DescentDatum`` keeps each matrix as integer rows over one common
denominator (``linalg.ScaledMatrix``).  Invertibility is a Bareiss
determinant and the compatibility identity a cross-multiplied integer
product.  Here the verdicts and first failing pairs are compared with
``helpers.compatibility_pair_scan``, which multiplies Fraction matrices on all
|G|^2 pairs, and the determinant with the Fraction rank of ``helpers.rank``
and with the Leibniz formula.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qcurves import linalg, serialize
from qcurves.arith import parse_fraction
from qcurves.descent import DescentDatum, compatibility_violation
from qcurves.groups import FiniteAbelianGroup

from helpers import (
    ORDER_SEEDS,
    compatibility_pair_scan,
    is_invertible,
    mat_scale,
    random_descent_datum,
    rank,
    shapes,
)


SHAPES = shapes(16)
SCALARS = [Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-3, 2)]


def leibniz(a) -> int:
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


def test_order_seeds_have_their_orders():
    for (order, size), seeds in ORDER_SEEDS.items():
        for seed in seeds:
            m, power = linalg.matrix(seed), 1
            acc = m
            while acc != linalg.identity(size):
                acc, power = linalg.mat_mul(acc, m), power + 1
            assert (len(m), power) == (size, order)


# -- the compatibility identity --------------------------------------------------


@st.composite
def descent_matrices(draw, shape):
    """Fraction matrices of a compatible datum on the shape at rank 1-4,
    left as they are, changed at one element other than 0 (scaled, or shifted
    in one entry), or scaled on one cyclic factor by q^(g_i), compatible
    exactly when q^(m_i) = 1."""
    n = draw(st.integers(1, 4))
    datum = random_descent_datum(random.Random(draw(st.integers(0, 2**32))), shape, n)
    group, mu = datum.group, dict(datum.mu)
    mode = draw(st.sampled_from(("compatible", "scalar", "entry", "generator")))
    if mode == "generator":
        i = draw(st.integers(0, len(shape) - 1))
        q = draw(st.sampled_from(SCALARS))
        mu = {g: mat_scale(m, q ** g[i]) for g, m in mu.items()}
    elif mode != "compatible":
        g = draw(st.sampled_from(group.elements()[1:]))
        m = [list(row) for row in mu[g]]
        if mode == "scalar":
            q = draw(st.sampled_from(SCALARS))
            m = [[x * q for x in row] for row in m]
        else:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            m[i][j] += draw(st.sampled_from((-2, -1, 1, Fraction(1, 3))))
        mu[g] = linalg.matrix(m)
    return group, n, mu


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_integer_scan_matches_the_fraction_pair_scan(shape, data):
    group, n, mu = data.draw(descent_matrices(shape))
    assume(all(is_invertible(m) for m in mu.values()))
    datum = DescentDatum(group, n, mu)
    assert datum.mu == mu
    assert compatibility_violation(datum) == compatibility_pair_scan(datum)


def test_integer_scan_names_the_first_pair_in_a_scaled_datum():
    # mu(g) = 2^(g_0) on Z/4 x Z/2: every pair composes until the first
    # coordinates wrap around, first at s = (1, 0), t = (3, 0): 2 * 2^3 != 2^0
    group = FiniteAbelianGroup((4, 2))
    mu = {g: linalg.matrix([[2 ** g[0]]]) for g in group.elements()}
    datum = DescentDatum(group, 1, mu)
    assert compatibility_violation(datum) == ((1, 0), (3, 0)) == compatibility_pair_scan(datum)


def test_integer_scan_multiplies_in_the_order_of_the_pair():
    # A and B do not commute: C = B A, so mu(s) mu(t) = mu(s + t) holds at
    # s = (0, 1), t = (1, 0) and fails first at s = (1, 0), t = (0, 1)
    a, b = [[1, 0], [0, -1]], [[0, 1], [1, 0]]
    c = linalg.mat_mul(linalg.matrix(b), linalg.matrix(a))
    group = FiniteAbelianGroup((2, 2))
    datum = DescentDatum(group, 2, {(0, 0): [[1, 0], [0, 1]], (0, 1): b, (1, 0): a, (1, 1): c})
    assert compatibility_violation(datum) == ((1, 0), (0, 1)) == compatibility_pair_scan(datum)


# -- invertibility ----------------------------------------------------------------------

BITS = 512
entries = st.integers(-(2**BITS), 2**BITS)


@st.composite
def square_matrices(draw):
    """Integer matrices of size 1-5 with entries up to 512 bits, made singular
    in most draws: a zero row or column, a repeated row, or a row that is an
    integer combination of two others."""
    n = draw(st.integers(1, 5))
    small = draw(st.booleans())
    cell = st.integers(-3, 3) if small else entries
    a = [[draw(cell) for _ in range(n)] for _ in range(n)]
    mode = draw(st.sampled_from(("any", "zero_row", "zero_column", "repeat", "combination")))
    if mode == "zero_row":
        a[draw(st.integers(0, n - 1))] = [0] * n
    elif mode == "zero_column":
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = 0
    elif mode == "repeat" and n > 1:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a[i] = list(a[k])
    elif mode == "combination" and n > 2:
        i, k, l = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        x, y = draw(entries), draw(entries)
        a[i] = [x * u + y * v for u, v in zip(a[k], a[l])]
    return a


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_determinant_is_nonzero_exactly_at_full_fraction_rank(a):
    det = linalg.determinant(a)
    assert (det != 0) == (rank(linalg.matrix(a)) == len(a))
    if len(a) <= 4:
        assert det == leibniz(a)


def test_determinant_needs_a_row_swap():
    assert linalg.determinant([[0, 1], [1, 0]]) == -1
    assert linalg.determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert linalg.determinant([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == 30
    assert linalg.determinant([[0, 1], [0, 1]]) == 0


# -- the scaled form ------------------------------------------------------------------------

ratios = st.tuples(st.integers(-(2**70), 2**70), st.one_of(st.just(1), st.integers(1, 2**70)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(ratios, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_matrix_from_json_is_the_least_common_denominator_form(pairs):
    n = len(pairs)
    obj = [[p if q == 1 else f"{p}/{q}" for p, q in row] for row in pairs]
    m = serialize.matrix_from_json(obj, n)
    expected = linalg.matrix([[parse_fraction(x) for x in row] for row in obj])
    assert type(m) is linalg.ScaledMatrix
    assert m.fractions() == expected
    assert m == linalg.scaled(expected)
    assert m.den == math.lcm(*(x.denominator for row in expected for x in row))
    assert all(type(k) is int for row in m.rows for k in row)


def test_datum_keeps_its_messages_on_scaled_matrices():
    z2 = FiniteAbelianGroup((2,))
    identity = linalg.scaled(linalg.identity(2))
    with pytest.raises(ValueError, match=r"matrix at \(1,\) is not invertible"):
        DescentDatum(z2, 2, {(0,): identity, (1,): linalg.ScaledMatrix(((1, 2), (2, 4)), 3)})
    with pytest.raises(ValueError, match="the identity element must carry the identity matrix"):
        DescentDatum(z2, 2, {(0,): linalg.ScaledMatrix(((2, 0), (0, 2)), 1), (1,): identity})
    with pytest.raises(ValueError, match=r"matrix at \(1,\) is not 2 x 2"):
        DescentDatum(z2, 2, {(0,): identity, (1,): linalg.ScaledMatrix(((1, 0),), 1)})
    with pytest.raises(ValueError, match=r"no isogeny matrix assigned at \(1,\)"):
        DescentDatum(z2, 2, {(0,): identity})


def test_datum_reads_scaled_matrices_not_in_lowest_terms():
    z2 = FiniteAbelianGroup((2,))
    identity = linalg.ScaledMatrix(((2, 0), (0, 2)), 2)
    flip = linalg.ScaledMatrix(((0, 3), (3, 0)), 3)
    datum = DescentDatum(z2, 2, {(0,): identity, (1,): flip})
    assert compatibility_violation(datum) is None
    assert datum.mu[(0,)] == linalg.identity(2)
    assert datum.mu[(1,)] == linalg.matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="the identity element must carry the identity matrix"):
        DescentDatum(z2, 2, {(0,): linalg.ScaledMatrix(((2, 0), (0, 2)), 4), (1,): flip})
    assert compatibility_violation(
        DescentDatum(z2, 2, {(0,): identity, (1,): linalg.ScaledMatrix(((0, 3), (6, 0)), 3)})
    ) == ((1,), (1,))


def test_mu_is_built_on_first_read_only():
    z2 = FiniteAbelianGroup((2,))
    datum = DescentDatum(z2, 1, {(0,): [[1]], (1,): [["-1/1"]]})
    assert "mu" not in vars(datum)
    assert compatibility_violation(datum) is None
    assert "mu" not in vars(datum)
    assert datum.mu == {(0,): ((Fraction(1),),), (1,): ((Fraction(-1),),)}
