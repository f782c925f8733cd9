"""Finite abelian groups as products of cyclic groups, and their characters.

Elements are exponent tuples with componentwise addition modulo the cyclic
orders; the identity is the zero tuple.  Iteration order over elements is
the lexicographic product order, which every deterministic construction in
the package relies on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

from .radicals import RadicalElement

Element = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups of the given orders (each >= 2)."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cyclic_orders", tuple(int(n) for n in self.cyclic_orders))
        if any(n < 2 for n in self.cyclic_orders):
            raise ValueError("cyclic orders must be >= 2")

    @property
    def identity(self) -> Element:
        return (0,) * len(self.cyclic_orders)

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    def elements(self) -> list[Element]:
        return [tuple(g) for g in itertools.product(*(range(n) for n in self.cyclic_orders))]

    @cached_property
    def element_set(self) -> frozenset[Element]:
        """The elements as a set, built once per group, for membership tests."""
        return frozenset(self.elements())

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == len(self.cyclic_orders)
            and all(isinstance(x, int) and 0 <= x < n for x, n in zip(g, self.cyclic_orders))
        )

    def check_element(self, g) -> Element:
        g = tuple(int(x) for x in g)
        if not self.contains(g):
            raise ValueError(f"{g} is not an element of {self}")
        return g

    def add(self, g: Element, h: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.cyclic_orders))

    def addition_table(self) -> list[list[int]]:
        """Position in elements() of g + h, indexed by the positions of g and h.

        Built one cyclic factor at a time: in the lexicographic order the
        position of (g, j) is pos(g) * n + j for j in Z/n.
        """
        table = [[0]]
        for n in self.cyclic_orders:
            cyclic = [[(j + k) % n for k in range(n)] for j in range(n)]
            table = [[s * n + t for s in row for t in col] for row in table for col in cyclic]
        return table

    def generator(self, i: int) -> Element:
        """The canonical generator of the i-th cyclic factor."""
        return tuple(1 if j == i else 0 for j in range(len(self.cyclic_orders)))

    def __repr__(self):
        if not self.cyclic_orders:
            return "Z/1"
        return " x ".join(f"Z/{n}" for n in self.cyclic_orders)


def first_failing_pair(table: dict, generators, op):
    """The first pair (r, s) of keys of a table of roots of unity, in its
    order, with table[op(r, s)] != table[r] table[s], or None.

    Values are compared as integer torsion numerators k = t D over D, the lcm
    of the torsion denominators, and table[identity] = 1 is checked first.
    Then k(op(r, g)) = k(r) + k(g) mod D for every r and every g in a
    generating set suffices: every s is a positive word g_1 ... g_m in the
    generators (the group is finite), so by induction on m, k(op(r, s)) =
    k(r) + k(g_1) + ... + k(g_m) = k(r) + k(s).  Only when that fails does
    the scan over all pairs run, to name the first failing pair.
    """
    den = math.lcm(*(v.torsion.denominator for v in table.values()))
    k = {g: v.torsion.numerator * (den // v.torsion.denominator) for g, v in table.items()}
    if all(k[op(r, g)] == (k[r] + k[g]) % den for g in generators for r in k):
        return None
    return next((r, s) for r in k for s in k if k[op(r, s)] != (k[r] + k[s]) % den)


class GroupCharacter:
    """Multiplicative map from a finite abelian group to roots of unity.

    Multiplicativity is checked on the cyclic generators (first_failing_pair).
    """

    __slots__ = ("group", "_values")

    def __init__(self, group: FiniteAbelianGroup, values: dict[Element, RadicalElement]):
        self.group = group
        table = {}
        for g in group.elements():
            try:
                v = values[g]
            except KeyError:
                raise ValueError(f"character table missing value at {g}") from None
            if not v.is_root_of_unity:
                raise ValueError(f"character value {v!r} at {g} is not a root of unity")
            table[g] = v
        if not table[group.identity].is_one:
            raise ValueError("character must send the identity to 1")
        generators = [group.generator(i) for i in range(len(group.cyclic_orders))]
        pair = first_failing_pair(table, generators, group.add)
        if pair is not None:
            raise ValueError(f"character table not multiplicative at ({pair[0]}, {pair[1]})")
        self._values = table

    def __call__(self, g: Element) -> RadicalElement:
        return self._values[g]

    def values(self) -> dict[Element, RadicalElement]:
        return dict(self._values)

    def __mul__(self, other: "GroupCharacter") -> "GroupCharacter":
        if self.group != other.group:
            raise ValueError("characters live on different groups")
        return GroupCharacter(
            self.group, {g: self._values[g] * other._values[g] for g in self._values}
        )

    @property
    def order(self) -> int:
        return reduce(math.lcm, (v.torsion.denominator for v in self._values.values()), 1)

    @property
    def is_trivial(self) -> bool:
        return all(v.is_one for v in self._values.values())

    def __eq__(self, other):
        if not isinstance(other, GroupCharacter):
            return NotImplemented
        return self.group == other.group and self._values == other._values

    def __hash__(self):
        return hash((self.group, tuple(sorted(self._values.items()))))

    def __repr__(self):
        return f"GroupCharacter({self.group}, {self._values})"

