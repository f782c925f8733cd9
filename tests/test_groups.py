"""Element arithmetic and character tables on finite abelian groups."""

import pytest

from qcurves.groups import FiniteAbelianGroup, GroupCharacter
from qcurves.radicals import RadicalElement

from helpers import all_characters, character

Z6 = FiniteAbelianGroup((6,))
Z2xZ4 = FiniteAbelianGroup((2, 4))


def test_orders():
    assert Z6.order == 6
    assert Z2xZ4.order == 8
    assert FiniteAbelianGroup(()).order == 1


def test_element_arithmetic():
    assert Z2xZ4.add((1, 3), (1, 2)) == (0, 1)


@pytest.mark.parametrize("orders", [(), (6,), (2, 4), (3, 2, 2), (4, 4)])
def test_addition_table_indexes_the_group_law(orders):
    group = FiniteAbelianGroup(orders)
    elements = group.elements()
    table = group.addition_table()
    assert [[elements[k] for k in row] for row in table] == [
        [group.add(g, h) for h in elements] for g in elements
    ]


def test_membership_checks():
    assert Z6.contains((5,))
    assert not Z6.contains((6,))
    with pytest.raises(ValueError):
        Z6.check_element((7,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))


def test_elements_enumeration_is_deterministic():
    assert Z2xZ4.elements()[:3] == [(0, 0), (0, 1), (0, 2)]
    assert len(Z2xZ4.elements()) == 8


def test_character_count_and_duality():
    chars = all_characters(Z2xZ4)
    assert len(chars) == 8
    assert len({tuple(sorted(c.values().items())) for c in chars}) == 8
    for c in chars:
        assert c(Z2xZ4.identity).is_one
        assert c.order in (1, 2, 4)


def test_character_multiplication_and_order():
    chi = character(Z6, (1,))
    assert chi.order == 6
    assert (chi * chi).order == 3
    trivial = character(Z6, Z6.identity)
    assert (chi * trivial) == chi


def test_character_table_validation():
    values = {g: RadicalElement.one() for g in Z6.elements()}
    values[(3,)] = RadicalElement.minus_one()
    with pytest.raises(ValueError):
        GroupCharacter(Z6, values)  # not multiplicative
    bad = {g: RadicalElement.prime_power(2, 1) for g in Z6.elements()}
    with pytest.raises(ValueError):
        GroupCharacter(Z6, bad)  # values not roots of unity
