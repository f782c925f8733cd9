"""Multiquadratic field descriptors, square classes, and quadratic arithmetic."""

import random
from fractions import Fraction

import pytest

from qcurves.errors import UnsupportedDegree, ValueOutsideField
from qcurves.fields import (
    MultiquadraticField,
    QuadraticElement,
    field_of_radicals,
    quadratic_classes_in_cyclotomic,
    reduce_square_classes,
    root_of_unity_as_quadratic,
)
from qcurves.radicals import RadicalElement

SQRT2 = RadicalElement.prime_power(2, Fraction(1, 2))
SQRT3 = RadicalElement.prime_power(3, Fraction(1, 2))
I_UNIT = RadicalElement.root_of_unity(Fraction(1, 4))


def gf2_rank_oracle(classes):
    """Independent rank computation over the index set {-1} union primes."""
    from sympy import factorint

    def key(x):
        return (0, 0) if x == -1 else (1, x)

    basis = []  # (pivot, row) pairs sorted by pivot; row entries all >= pivot
    for d in classes:
        v = set()
        if d < 0:
            v.add(-1)
        v ^= {p for p, e in factorint(abs(d)).items() if e % 2}
        for pivot, row in basis:  # ascending pivots: one pass reduces fully
            if pivot in v:
                v ^= row
        if v:
            basis.append((min(v, key=key), v))
            basis.sort(key=lambda pr: key(pr[0]))
    return len(basis)


def test_single_generator():
    f = field_of_radicals([SQRT2])
    assert f.degree == 2
    assert f.totally_real


def test_duplicate_generators_collapse():
    assert field_of_radicals([SQRT2, SQRT2]).degree == 2


def test_i_sqrt2_and_sqrt3():
    f = field_of_radicals([I_UNIT * SQRT2, SQRT3])
    assert f.degree == 4
    assert not f.totally_real
    assert f.contains_class(-2)
    assert f.contains_class(3)
    assert f.contains_class(-6)
    assert not f.contains_class(2)


def test_signature_examples():
    assert field_of_radicals([RadicalElement.prime_power(5, Fraction(1, 2))]).totally_real
    assert not field_of_radicals([I_UNIT]).totally_real
    f = MultiquadraticField.from_square_classes([-2, 3])
    assert not f.totally_real


def test_degree_invariant_under_permutation_and_duplication():
    rng = random.Random(7)
    pool = [-1, 2, 3, 5, -6, 10, -30, 15]
    for _ in range(50):
        classes = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        f = MultiquadraticField.from_square_classes(classes)
        shuffled = classes[:]
        rng.shuffle(shuffled)
        assert MultiquadraticField.from_square_classes(shuffled) == f
        assert MultiquadraticField.from_square_classes(classes + classes) == f
        assert f.degree == 2 ** gf2_rank_oracle(classes)


def test_reduce_canonicalizes_non_squarefree_input():
    assert reduce_square_classes([8]) == (2,)
    assert reduce_square_classes([4]) == ()
    assert reduce_square_classes([-4]) == (-1,)


def test_unsupported_degree():
    cube = RadicalElement.from_rational(2).nth_root(3)
    with pytest.raises(UnsupportedDegree):
        field_of_radicals([cube])
    eighth = RadicalElement.root_of_unity(Fraction(1, 8))
    with pytest.raises(UnsupportedDegree):
        field_of_radicals([eighth])


def test_compositum_and_containment():
    f = MultiquadraticField.from_square_classes([2])
    g = MultiquadraticField.from_square_classes([3])
    fg = MultiquadraticField.from_square_classes(f.basis + g.basis)
    assert fg.degree == 4
    assert fg.contains(f) and fg.contains(g)
    assert not f.contains(fg)


def test_cyclotomic_quadratic_subfields():
    assert quadratic_classes_in_cyclotomic(1) == ()
    assert quadratic_classes_in_cyclotomic(2) == ()
    assert quadratic_classes_in_cyclotomic(4) == (-1,)
    assert quadratic_classes_in_cyclotomic(8) == (-1, -2, 2)
    assert quadratic_classes_in_cyclotomic(3) == (-3,)
    assert quadratic_classes_in_cyclotomic(5) == (5,)
    assert quadratic_classes_in_cyclotomic(12) == (-1, -3, 3)


# -- quadratic elements -------------------------------------------------------


def test_quadratic_arithmetic():
    x = QuadraticElement(Fraction(1), Fraction(1), 2)  # 1 + sqrt 2
    assert x.square() == QuadraticElement(Fraction(3), Fraction(2), 2)
    assert x * x.conjugate() == QuadraticElement.from_rational(-1)
    assert (x / x) == QuadraticElement.from_rational(1)
    y = QuadraticElement(Fraction(0), Fraction(1), -1)
    assert y * y == QuadraticElement.from_rational(-1)


def test_quadratic_mixed_fields_rejected():
    x = QuadraticElement(Fraction(0), Fraction(1), 2)
    y = QuadraticElement(Fraction(0), Fraction(1), 3)
    with pytest.raises(ValueOutsideField):
        _ = x * y
    # rational operands are fine on either side
    assert x * QuadraticElement.from_rational(3) == QuadraticElement(0, 3, 2)


def test_quadratic_canonicalization():
    assert QuadraticElement(Fraction(1), Fraction(0), 7).d == 1
    assert QuadraticElement(Fraction(1), Fraction(2), 1) == QuadraticElement.from_rational(3)
    with pytest.raises(ValueError):
        QuadraticElement(Fraction(0), Fraction(1), 8)


def test_roots_of_unity_as_quadratic():
    i = root_of_unity_as_quadratic(RadicalElement.root_of_unity(Fraction(1, 4)))
    assert i == QuadraticElement(Fraction(0), Fraction(1), -1)
    zeta3 = root_of_unity_as_quadratic(RadicalElement.root_of_unity(Fraction(1, 3)))
    assert zeta3 == QuadraticElement(Fraction(-1, 2), Fraction(1, 2), -3)
    assert zeta3 * zeta3 * zeta3 == QuadraticElement.from_rational(1)
    with pytest.raises(ValueOutsideField):
        root_of_unity_as_quadratic(RadicalElement.root_of_unity(Fraction(1, 8)))
    with pytest.raises(ValueOutsideField):
        root_of_unity_as_quadratic(SQRT2)


def test_from_radical():
    assert QuadraticElement.from_radical(SQRT2) == QuadraticElement(0, 1, 2)
    assert QuadraticElement.from_radical(RadicalElement.from_rational(-6)) == QuadraticElement.from_rational(-6)
    x = RadicalElement(Fraction(1, 4), {2: Fraction(1, 2)})  # i sqrt 2
    assert QuadraticElement.from_radical(x) == QuadraticElement(0, 1, -2)
