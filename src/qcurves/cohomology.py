"""2-cocycles on finite abelian groups with radical values, and their splitting.

Values live in the divisible multiplicative group of radicals with trivial
Galois action.  Over such coefficients a normalized 2-cocycle on a finite
abelian group is a coboundary exactly when it is symmetric; the residual
obstruction on non-symmetric cocycles is the commutator pairing
(g, h) -> c(g, h)/c(h, g), an alternating bimultiplicative invariant of the
cohomology class.

The splitting is constructive and canonical: on a cyclic factor of order n
generated by s, the product P = prod_{i<n} c(s, s^i) determines the value at
the generator as the canonical n-th root of P, the remaining values follow by
telescoping, and factors are combined by peeling coordinates against the
cocycle itself.  The coboundary of any cochain on an abelian group is
symmetric, so only a symmetric table is given a splitting: it is built and
its coboundary compared with the cocycle, which is O(|G|^2), and a
coboundary is always a cocycle, so only on a mismatch does the O(|G|^3)
identity scan run.  A non-symmetric table never splits and builds no
cochain: the scan tells an invalid table (its first failing triple) from an
obstructed one, whose pairing is nontrivial, and the pairing divides once
per distinct pair of value objects.  A cocycle keeps the result of its first
scan and of its first splitting attempt.  Whether it splits over the
rationals is a closed-form test on its canonical splitting, not a search
over character twists.

Both checks run on plain Python ints, not on radicals: the values are mapped
once to their integer log coordinates (``radicals.log_coordinates``), where
a product of radicals is a sum, and group elements are indexed by position
with a precomputed addition table.  Each identity a b = c d is then one
integer sum tested against {-D, 0, D}, D the common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidCocycle
from .groups import Element, FiniteAbelianGroup
from .radicals import RadicalElement, log_coordinates

_ONE = RadicalElement.one()
_UNSCANNED = object()


class OneCochain:
    """Normalized 1-cochain: a total map from a group to radicals with a(1) = 1."""

    __slots__ = ("group", "_values")

    def __init__(self, group: FiniteAbelianGroup, values: dict[Element, RadicalElement]):
        self.group = group
        table = {}
        for g in group.elements():
            try:
                table[g] = values[g]
            except KeyError:
                raise ValueError(f"cochain table missing value at {g}") from None
        if not table[group.identity].is_one:
            raise ValueError("cochain must send the identity to 1")
        self._values = table

    @classmethod
    def constant_one(cls, group: FiniteAbelianGroup) -> "OneCochain":
        return cls(group, {g: _ONE for g in group.elements()})

    def __call__(self, g: Element) -> RadicalElement:
        return self._values[g]

    def values(self) -> dict[Element, RadicalElement]:
        return dict(self._values)

    def coboundary(self) -> "TwoCocycle":
        """The 2-cocycle (g, h) -> a(g) a(h) / a(gh)."""
        table = {}
        for g in self._values:
            for h in self._values:
                table[(g, h)] = self._values[g] * self._values[h] / self._values[self.group.add(g, h)]
        return TwoCocycle(self.group, table)

    def splits(self, c: "TwoCocycle") -> bool:
        """Whether the coboundary of this cochain is c: a(g) a(h) = c(g, h) a(gh)
        for every pair, compared on the integer log coordinates of both tables."""
        if c.group != self.group:
            return False
        elements = self.group.elements()
        n = len(elements)
        add = self.group.addition_table()
        x, zeros = log_coordinates(
            [self._values[g] for g in elements] + [c(g, h) for g in elements for h in elements]
        )
        return all(
            x[g] + x[h] - x[n + g * n + h] - x[gh] in zeros
            for g in range(n)
            for h, gh in enumerate(add[g])
        )

    def __mul__(self, other: "OneCochain") -> "OneCochain":
        if self.group != other.group:
            raise ValueError("cochains live on different groups")
        return OneCochain(self.group, {g: self._values[g] * other._values[g] for g in self._values})

    def __truediv__(self, other: "OneCochain") -> "OneCochain":
        if self.group != other.group:
            raise ValueError("cochains live on different groups")
        return OneCochain(self.group, {g: self._values[g] / other._values[g] for g in self._values})

    @property
    def is_rational_valued(self) -> bool:
        return all(v.is_rational for v in self._values.values())

    def __eq__(self, other):
        if not isinstance(other, OneCochain):
            return NotImplemented
        return self.group == other.group and self._values == other._values

    def __hash__(self):
        return hash((self.group, tuple(sorted(self._values.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"OneCochain({self.group}, {self._values})"


class TwoCocycle:
    """Total table (g, h) -> radical, normalized on construction by c(1,1)."""

    __slots__ = ("group", "_values", "_violation", "_split")

    def __init__(self, group: FiniteAbelianGroup, values: dict[tuple[Element, Element], RadicalElement]):
        self.group = group
        elements = group.elements()
        scale = values.get((group.identity, group.identity), _ONE)
        table = {(g, h): values.get((g, h), _ONE) for g in elements for h in elements}
        if not scale.is_one:
            # one division per distinct value object, so values that share an
            # object (as parsed tables do) still share their quotient
            quotients = {}
            for key, v in table.items():
                q = quotients.get(id(v))
                if q is None:
                    q = quotients[id(v)] = v / scale
                table[key] = q
        self._values = table
        self._violation = _UNSCANNED
        self._split = _UNSCANNED

    @classmethod
    def constant_one(cls, group: FiniteAbelianGroup) -> "TwoCocycle":
        return cls(group, {})

    def __call__(self, g: Element, h: Element) -> RadicalElement:
        return self._values[(g, h)]

    def values(self) -> dict[tuple[Element, Element], RadicalElement]:
        return dict(self._values)

    def violation(self) -> Optional[tuple[Element, Element, Element]]:
        """First triple breaking the cocycle identity, or None when valid.

        With c(1,1) = 1 (enforced on construction), the identity over all
        triples also forces the normalization c(1,g) = c(g,1) = 1.  The table
        is immutable, so the O(|G|^3) scan runs on the first call only.
        """
        if self._violation is _UNSCANNED:
            self._violation = self._scan()
        return self._violation

    def _scan(self) -> Optional[tuple[Element, Element, Element]]:
        """The identity c(g,h) c(gh,k) = c(h,k) c(g,hk) on integer log
        coordinates, in the lexicographic order of (g, h, k)."""
        elements = self.group.elements()
        n = len(elements)
        add = self.group.addition_table()
        x, zeros = log_coordinates([self._values[(g, h)] for g in elements for h in elements])
        rows = [x[i * n : (i + 1) * n] for i in range(n)]
        for g, row_g in enumerate(rows):
            for h, c_gh in enumerate(row_g):
                row_gh = rows[add[g][h]]
                row_h = rows[h]
                for k, hk in enumerate(add[h]):
                    if c_gh + row_gh[k] - row_h[k] - row_g[hk] not in zeros:
                        return (elements[g], elements[h], elements[k])
        return None

    @property
    def is_symmetric(self) -> bool:
        values = self._values
        for (g, h), v in values.items():
            w = values[(h, g)]
            if v is not w and v != w:
                return False
        return True

    @property
    def is_rational_valued(self) -> bool:
        return all(v.is_rational for v in self._values.values())

    def rational_value(self, g: Element, h: Element) -> Fraction:
        return self._values[(g, h)].rational_value()

    def __mul__(self, other: "TwoCocycle") -> "TwoCocycle":
        if self.group != other.group:
            raise ValueError("cocycles live on different groups")
        return TwoCocycle(self.group, {k: self._values[k] * other._values[k] for k in self._values})

    def __pow__(self, k: int) -> "TwoCocycle":
        return TwoCocycle(self.group, {key: v**k for key, v in self._values.items()})

    def commutator_pairing(self) -> "CommutatorPairing":
        """The pairing (g, h) -> c(g, h)/c(h, g), with one division per
        distinct pair of value objects: parsed tables share one object per
        distinct value, so there are few such pairs."""
        values = self._values
        quotients: dict[tuple[int, int], RadicalElement] = {}
        table = {}
        for (g, h), v in values.items():
            w = values[(h, g)]
            if v is w:
                table[(g, h)] = _ONE
                continue
            key = (id(v), id(w))
            q = quotients.get(key)
            if q is None:
                q = quotients[key] = v / w
            table[(g, h)] = q
        return CommutatorPairing(self.group, table)

    def __eq__(self, other):
        if not isinstance(other, TwoCocycle):
            return NotImplemented
        return self.group == other.group and self._values == other._values

    def __repr__(self):
        return f"TwoCocycle({self.group}, {self._values})"


@dataclass(frozen=True)
class CommutatorPairing:
    """The alternating pairing (g, h) -> c(g, h)/c(h, g) of a 2-cocycle."""

    group: FiniteAbelianGroup
    table: tuple

    def __init__(self, group, table):
        object.__setattr__(self, "group", group)
        if isinstance(table, dict):
            table = tuple(sorted(table.items()))
        object.__setattr__(self, "table", table)
        # built once for __call__; not a field, so equality and hash see only the table
        object.__setattr__(self, "_lookup", dict(table))

    def __call__(self, g: Element, h: Element) -> RadicalElement:
        return self._lookup[(g, h)]

    @property
    def is_trivial(self) -> bool:
        return all(v.is_one for _, v in self.table)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a splitting attempt: a cochain, or the obstruction pairing."""

    cochain: Optional[OneCochain]
    obstruction: Optional[CommutatorPairing]

    @property
    def split(self) -> bool:
        return self.cochain is not None


def split_cocycle(c: TwoCocycle) -> SplitResult:
    """Split a valid cocycle, or report its commutator pairing as obstruction.

    On each cyclic factor the generator value is the canonical n-th root of
    P = prod_i c(s, s^i), so the construction (and everything downstream of
    it) is deterministic.  Coefficient divisibility makes the construction
    complete: verification can only fail when the pairing is nontrivial, or
    when c is not a cocycle at all, which raises InvalidCocycle naming the
    first failing triple.  Symmetry is tested first: a coboundary
    a(g) a(h) / a(gh) is symmetric in g and h, so a non-symmetric table can
    never split, and it goes straight to the identity scan and the pairing
    without building a cochain.  The table is immutable, so a split or
    obstructed result is kept on the cocycle and later calls read it.
    """
    if c._split is _UNSCANNED:
        c._split = _attempt_split(c)
    return c._split


def _attempt_split(c: TwoCocycle) -> SplitResult:
    symmetric = c.is_symmetric
    if symmetric:
        cochain = _canonical_cochain(c)
        if cochain.splits(c):
            return SplitResult(cochain, None)
    violation = c.violation()
    if violation is not None:
        raise InvalidCocycle(f"cocycle identity fails at {violation}")
    if symmetric:
        raise InvalidCocycle("symmetric cocycle failed to split (internal error)")
    # a non-symmetric table has c(g, h) != c(h, g) somewhere: a nontrivial pairing
    return SplitResult(None, c.commutator_pairing())


def _canonical_cochain(c: TwoCocycle) -> OneCochain:
    """The canonical cochain of c, which splits c whenever c splits at all."""
    group = c.group
    orders = group.cyclic_orders

    # values on each cyclic factor by telescoping from the canonical root
    factor_values: list[dict[int, RadicalElement]] = []
    for i, n in enumerate(orders):
        s = group.generator(i)
        big_p = _ONE
        power = group.identity
        for _ in range(n):
            big_p = big_p * c(s, power)
            power = group.add(power, s)
        beta = big_p.nth_root(n)
        vals = {0: _ONE}
        power = group.identity
        for k in range(1, n):
            vals[k] = beta * vals[k - 1] / c(s, power)
            power = group.add(power, s)
        factor_values.append(vals)

    # peel coordinates: a(g) = a_i(s^k) * a(rest) / c(s^k, rest)
    values: dict[Element, RadicalElement] = {}
    for g in group.elements():
        acc = _ONE
        for i in range(len(orders) - 1, -1, -1):
            k = g[i]
            head = tuple(0 if j != i else k for j in range(len(orders)))
            rest = tuple(0 if j <= i else g[j] for j in range(len(orders)))
            acc = factor_values[i][k] * acc / c(head, rest)
        values[g] = acc
    return OneCochain(group, values)


def power_splits_over_rationals(c: TwoCocycle) -> bool:
    """Whether c is the coboundary of a cochain with purely rational values;
    for a power c^k, pass ``c ** k``.

    Let a be the canonical splitting of c, t = torsion(a), and e_i the
    generator of the i-th cyclic factor, of order n_i.  Then c splits
    rationally iff every exponent of a is an integer and n_i t(e_i) is an
    integer for every even n_i.  The splittings are the twists a chi by
    characters chi, which change torsion only: so they share the exponents
    of a, and a chi is rational iff those are integers and 2t + 2chi = 0 in
    Q/Z.  Here 2t is a homomorphism (c is rational, so a(g) a(h) / a(gh)
    has torsion in {0, 1/2}), and chi is free on each generator, where
    2 chi(e_i) reaches every value in (1/n_i)Z/Z for odd n_i but only those
    in (2/n_i)Z/Z for even n_i.
    """
    if not c.is_rational_valued:
        raise ValueError("rational class order is defined for rational cocycles only")
    result = split_cocycle(c)
    if not result.split:
        return False
    a = result.cochain
    if any(r.denominator != 1 for v in a.values().values() for r in v.exponents.values()):
        return False
    group = c.group
    return all(
        (n * a(group.generator(i)).torsion).denominator == 1
        for i, n in enumerate(group.cyclic_orders)
        if n % 2 == 0
    )
