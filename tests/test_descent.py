"""Compatibility, restriction operators, the eta projector, and equivariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcurves import linalg
from qcurves.descent import (
    BlockMap,
    DescentDatum,
    FactorProduct,
    build_restriction,
    compatibility_violation,
    eta_descent,
    iota_equivariance_violation,
)
from qcurves.errors import CompatibilityRequired
from qcurves.groups import FiniteAbelianGroup
from qcurves.quadratic import order_two_datum

from helpers import (
    compatibility_pair_scan,
    dense,
    eta_oracle,
    mat_scale,
    product_action,
    random_descent_datum,
    scale_block_map,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


def trivial_datum(group, n=1):
    eye = linalg.identity(n)
    return DescentDatum(group, n, {g: eye for g in group.elements()})


# -- compatibility ------------------------------------------------------------------


def test_identity_maps_are_compatible():
    assert compatibility_violation(trivial_datum(Z2)) is None
    assert compatibility_violation(trivial_datum(Z3, 2)) is None


def test_scalar_two_violates():
    datum = DescentDatum(Z2, 1, {(0,): [[1]], (1,): [[2]]})
    assert compatibility_violation(datum) == ((1,), (1,))


def test_antidiagonal_scalar_pair_is_compatible():
    q = Fraction(5, 3)
    mu_sigma = [[0, q], [1 / q, 0]]
    datum = DescentDatum(Z2, 2, {(0,): linalg.identity(2), (1,): mu_sigma})
    assert compatibility_violation(datum) is None


def test_datum_validation():
    with pytest.raises(ValueError):
        DescentDatum(Z2, 1, {(0,): [[2]], (1,): [[1]]})  # mu(1) not the identity
    with pytest.raises(ValueError):
        DescentDatum(Z2, 2, {(0,): linalg.identity(2), (1,): [[1, 0], [2, 0]]})


# -- restriction --------------------------------------------------------------------


def test_trivial_mu_gives_permutations():
    operators = build_restriction(trivial_datum(Z3))
    # [g] has exactly one identity block per row, at column t + g
    for g in Z3.elements():
        for t in Z3.elements():
            assert operators[g].block(t, Z3.add(t, g)) == linalg.identity(1)
    # permutation composition is the group law
    for s in Z3.elements():
        for t in Z3.elements():
            assert operators[s].compose(operators[t]) == operators[Z3.add(s, t)]


def test_z3_operator_has_order_three():
    operators = build_restriction(trivial_datum(Z3))
    g = (1,)
    twice = operators[g].compose(operators[g])
    thrice = twice.compose(operators[g])
    assert thrice == operators[Z3.identity]
    assert twice != operators[Z3.identity]


def test_involution_with_nontrivial_scalar():
    datum = DescentDatum(Z2, 1, {(0,): [[1]], (1,): [[-1]]})
    operators = build_restriction(datum)
    sigma = (1,)
    assert operators[sigma].compose(operators[sigma]) == operators[Z2.identity]


def test_restriction_requires_compatibility():
    datum = DescentDatum(Z2, 1, {(0,): [[1]], (1,): [[2]]})
    with pytest.raises(CompatibilityRequired):
        build_restriction(datum)


def test_group_law_on_random_data():
    rng = random.Random(37)
    for order in (2, 3):
        for n in (1, 2, 3):
            for _ in range(5):
                datum = random_descent_datum(rng, (order,), n)
                operators = build_restriction(datum)
                for s in datum.group.elements():
                    for t in datum.group.elements():
                        assert operators[s].compose(operators[t]) == operators[
                            datum.group.add(s, t)
                        ]


def test_eta_is_the_sum_of_the_operators():
    rng = random.Random(41)
    for order in (2, 3, 4):
        for n in (1, 2):
            datum = random_descent_datum(rng, (order,), n)
            matrices = [dense(op) for op in build_restriction(datum).values()]
            total = matrices[0]
            for m in matrices[1:]:
                total = linalg.mat_add(total, m)
            assert dense(eta_descent(datum).eta) == total


def test_functoriality_on_commuting_data():
    # pointwise product of two diagonal (hence commuting) compatible data
    a = DescentDatum(Z2, 2, {(0,): linalg.identity(2), (1,): [[-1, 0], [0, 1]]})
    b = DescentDatum(Z2, 2, {(0,): linalg.identity(2), (1,): [[1, 0], [0, -1]]})
    product = DescentDatum(
        Z2,
        2,
        {g: linalg.mat_mul(a.mu[g], b.mu[g]) for g in Z2.elements()},
    )
    ops_a, ops_b, ops_ab = (build_restriction(d) for d in (a, b, product))
    for g in Z2.elements():
        for key in ops_ab[g].blocks:
            assert ops_ab[g].blocks[key] == linalg.mat_mul(
                ops_a[g].blocks[key], ops_b[g].blocks[key]
            )


# -- eta ------------------------------------------------------------------------------


def test_eta_on_trivial_z2():
    report = eta_descent(trivial_datum(Z2))
    assert dense(report.eta) == linalg.matrix([[1, 1], [1, 1]])
    assert report.rank == 1
    assert report.idempotent_ok
    assert report.fixed_by_all
    assert report.diagonal_image_ok


def test_eta_on_trivial_z3_rank_two():
    report = eta_descent(trivial_datum(Z3, 2))
    assert report.rank == 2
    assert report.idempotent_ok and report.fixed_by_all and report.diagonal_image_ok


def test_eta_refuses_incompatible_datum():
    datum = DescentDatum(Z2, 1, {(0,): [[1]], (1,): [[2]]})
    with pytest.raises(CompatibilityRequired):
        eta_descent(datum)


def test_eta_random_data():
    rng = random.Random(101)
    for order in (2, 3):
        for n in (1, 2, 3):
            for _ in range(4):
                datum = random_descent_datum(rng, (order,), n)
                report = eta_descent(datum)
                assert report.rank == n
                assert report.idempotent_ok
                assert report.fixed_by_all
                assert report.diagonal_image_ok


# -- closed form against the block-algebra oracle, on cyclic and product groups ----------

SHAPES = [(2,), (3,), (4,), (6,), (2, 2), (2, 3), (4, 2), (2, 2, 2)]
SCALARS = [Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-3, 2)]


@pytest.mark.parametrize("shape", SHAPES)
def test_random_data_move_every_factor(shape):
    # mu = I passes every check, so the generator must give most draws a
    # nontrivial image on each cyclic factor (possible over Q from size 2 on)
    rng = random.Random(sum(shape))
    for n in (2, 3):
        moved = 0
        for _ in range(40):
            datum = random_descent_datum(rng, shape, n)
            group = datum.group
            moved += all(
                datum.mu[group.generator(i)] != linalg.identity(n)
                for i in range(len(shape))
            )
        assert moved >= 24


@st.composite
def compatible_data(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 3))
    return random_descent_datum(random.Random(draw(st.integers(0, 2**32))), shape, n)


@st.composite
def perturbed_data(draw):
    """A compatible datum with mu changed at one element other than 0 (scaled
    by a rational other than 1, or shifted in a single entry), or twisted on
    one cyclic factor: mu(s) q^(s_i), compatible exactly when q^(m_i) = 1."""
    datum = draw(compatible_data())
    group, n = datum.group, datum.block_rank
    mode = draw(st.sampled_from(("scalar", "entry", "twist")))
    if mode == "twist":
        i = draw(st.integers(0, len(group.cyclic_orders) - 1))
        q = draw(st.sampled_from(SCALARS))
        return DescentDatum(
            group, n, {g: mat_scale(m, q ** g[i]) for g, m in datum.mu.items()}
        )
    g = draw(st.sampled_from(group.elements()[1:]))
    m = [list(row) for row in datum.mu[g]]
    if mode == "scalar":
        q = draw(st.sampled_from(SCALARS))
        m = [[x * q for x in row] for row in m]
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] += draw(st.sampled_from((-2, -1, 1, Fraction(1, 3))))
    assume(linalg.is_invertible(linalg.matrix(m)))
    return DescentDatum(group, n, {**datum.mu, g: m})


@settings(max_examples=40, deadline=None)
@given(compatible_data())
def test_closed_form_eta_matches_the_block_algebra_oracle(datum):
    assert compatibility_pair_scan(datum) is None
    assert eta_descent(datum) == eta_oracle(datum)


@settings(max_examples=100, deadline=None)
@given(perturbed_data())
def test_generator_check_names_the_first_failing_pair(datum):
    assert compatibility_violation(datum) == compatibility_pair_scan(datum)


# -- equivariance ---------------------------------------------------------------------


def test_trivial_data_equivariant():
    assert iota_equivariance_violation(trivial_datum(Z3, 2)) is None


def test_qcurve_datum_equivariant():
    assert iota_equivariance_violation(order_two_datum(2)) is None
    assert iota_equivariance_violation(order_two_datum(-6)) is None


def test_single_slot_perturbation_breaks_equivariance():
    datum = order_two_datum(2)
    violation = iota_equivariance_violation(datum, {(1,): Fraction(2)})
    assert violation is not None
    # a global rescaling stays equivariant
    uniform = {g: Fraction(3) for g in Z2.elements()}
    assert iota_equivariance_violation(datum, uniform) is None


def test_matrix_perturbation_breaks_equivariance():
    datum = DescentDatum(Z2, 1, {(0,): [[1]], (1,): [[-1]]})
    assert iota_equivariance_violation(datum) is None
    assert iota_equivariance_violation(datum, {(1,): Fraction(2)}) is not None


def test_equivariance_requires_compatibility():
    datum = DescentDatum(Z2, 1, {(0,): [[1]], (1,): [[2]]})
    with pytest.raises(CompatibilityRequired):
        iota_equivariance_violation(datum)


# -- module structure on the plain product ------------------------------------------------


def test_product_action_satisfies_twisted_multiplication():
    datum = order_two_datum(2)
    action = product_action(datum)
    for g in Z2.elements():
        for h in Z2.elements():
            composite = action[g].compose(action[h])
            scaled = scale_block_map(action[Z2.add(g, h)], datum.cocycle.rational_value(g, h))
            assert composite == scaled


def test_single_slot_orbit_spans():
    # rank-one freeness: the orbit of one slot vector spans the whole space
    datum = order_two_datum(-6)
    action = product_action(datum)
    product = FactorProduct.of_group(Z2, 1)
    for start in Z2.elements():
        base = BlockMap(
            product, product, {(start, start): ((Fraction(1),),)}
        )  # indicator of one slot
        orbit_rows = []
        for g in Z2.elements():
            moved = action[g].compose(base)
            col = [moved.block(t, start)[0][0] for t in Z2.elements()]
            orbit_rows.append(tuple(col))
        assert linalg.rank(tuple(orbit_rows)) == Z2.order
