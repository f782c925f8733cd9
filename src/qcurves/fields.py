"""Multiquadratic number fields and exact arithmetic in quadratic subfields.

A multiquadratic field Q(sqrt(d_1), ..., sqrt(d_k)) is described by the
F_2-subspace its generators span inside the square-class group Q*/(Q*)^2,
whose natural coordinates are indexed by -1 and the primes.  The descriptor
stores a canonical reduced basis (row echelon over F_2, indices ordered
-1 < 2 < 3 < 5 < ...), each basis vector rendered as a squarefree integer.
The degree over Q is 2^rank, and the field is totally real iff no basis class
carries the -1 component (a basis-independent condition).

Elements of a quadratic subfield Q(sqrt(d)) are kept exactly, in integers, as
(x + y*sqrt(d)) / n with squarefree d, in a normal form (n > 0,
gcd(x, y, n) = 1, d = 1 exactly when y = 0); sqrt(d) for d < 0 denotes
i*sqrt(|d|).  The rational coordinates a = x/n and b = y/n are read as
Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable

from .arith import square_class, squarefree_part
from .errors import ValueOutsideField
from .radicals import RadicalElement

# ---------------------------------------------------------------------------
# Square classes over GF(2)
# ---------------------------------------------------------------------------


def reduce_square_classes(classes: Iterable[Fraction | int]) -> tuple[int, ...]:
    """Canonical reduced basis (RREF over F_2) of the span of the square
    classes of nonzero rationals."""
    rows: list[set[int]] = []
    for q in dict.fromkeys(classes):  # a repeated value adds nothing to the span
        support = set(square_class(q))
        for row in rows:
            if min(row) in support:
                support ^= row
        if support:
            rows.append(support)
    # back-substitute to reach reduced echelon form (-1 is the least index)
    rows.sort(key=min)
    for i in range(len(rows) - 1, -1, -1):
        pivot = min(rows[i])
        for j in range(i):
            if pivot in rows[j]:
                rows[j] ^= rows[i]
    return tuple(math.prod(row) for row in rows)


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiquadraticField:
    """Descriptor of Q(sqrt(d) for d in basis), with basis in canonical RREF."""

    basis: tuple[int, ...]

    @classmethod
    def rationals(cls) -> "MultiquadraticField":
        return cls(())

    @classmethod
    def from_square_classes(cls, classes: Iterable[Fraction | int]) -> "MultiquadraticField":
        return cls(reduce_square_classes(classes))

    @property
    def degree(self) -> int:
        return 2 ** len(self.basis)

    @property
    def totally_real(self) -> bool:
        return all(d > 0 for d in self.basis)

    @property
    def is_rational(self) -> bool:
        return not self.basis

    def contains_class(self, d: int) -> bool:
        """Whether the square class of d lies in the span: adding it leaves
        the reduced basis the same size."""
        return len(reduce_square_classes((*self.basis, d))) == len(self.basis)

    def contains(self, other: "MultiquadraticField") -> bool:
        return all(self.contains_class(d) for d in other.basis)

    def __repr__(self):
        if not self.basis:
            return "Q"
        return "Q(" + ", ".join(f"sqrt({d})" for d in self.basis) + ")"


def field_of_radicals(generators: Iterable[RadicalElement]) -> MultiquadraticField:
    """Field generated by radicals in the multiquadratic regime.

    Every generator must satisfy torsion in {0, 1/4, 1/2, 3/4} and exponent
    denominators dividing 2; anything else raises UnsupportedDegree.
    """
    classes = []
    for g in generators:
        _, d = g.as_sqrt_multiple()
        if d != 1:
            classes.append(d)
    return MultiquadraticField.from_square_classes(classes)


def quadratic_classes_in_cyclotomic(n: int) -> tuple[int, ...]:
    """Square classes d with Q(sqrt(d)) contained in the n-th cyclotomic field.

    Q(sqrt(d)) has conductor |disc| = |d| for d = 1 mod 4 and 4|d| otherwise;
    it embeds in Q(zeta_n) iff that conductor divides n.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    found = []
    for m in range(1, n + 1):
        if n % m:
            continue
        for d in (m, -m):
            if d == 1 or squarefree_part(d) != d:
                continue
            conductor = abs(d) if d % 4 == 1 else 4 * abs(d)
            if conductor <= n and n % conductor == 0:
                found.append(d)
    return tuple(sorted(set(found), key=lambda d: (abs(d), d)))


# ---------------------------------------------------------------------------
# Elements of quadratic subfields
# ---------------------------------------------------------------------------


class QuadraticElement:
    """(x + y*sqrt(d)) / n with integers x, y, n and squarefree d.

    The coordinates are in normal form: n > 0, gcd(x, y, n) = 1, and d = 1
    exactly when y = 0.  So equal elements have equal coordinates, which
    equality and hashing read directly.  Elements are values: nothing
    assigns to the coordinates after construction.  The public constructor
    takes rational coordinates a + b*sqrt(d) and checks that d is
    squarefree; arithmetic results are built by ``_reduced``, which only
    divides out the gcd and fixes the sign of n.
    """

    __slots__ = ("x", "y", "n", "d")

    def __init__(self, a, b, d: int):
        a, b = Fraction(a), Fraction(b)
        n = math.lcm(a.denominator, b.denominator)
        r = self.from_coordinates(
            a.numerator * (n // a.denominator), b.numerator * (n // b.denominator), n, d
        )
        self.x, self.y, self.n, self.d = r.x, r.y, r.n, r.d

    @classmethod
    def from_coordinates(
        cls, x: int, y: int, n: int, d: int, squarefree: Container[int] = ()
    ) -> "QuadraticElement":
        """(x + y*sqrt(d)) / n from integers.  d must be a squarefree class
        other than 1 unless y = 0; d = 1 reads sqrt(d) as 1.  A class in
        ``squarefree`` is taken as already checked."""
        if n == 0:
            raise ZeroDivisionError("quadratic element with denominator 0")
        if y == 0:
            d = 1
        elif d == 1:
            x, y = x + y, 0
        elif d not in squarefree and (d == 0 or squarefree_part(d) != d):
            raise ValueError(f"{d} is not a squarefree class")
        return _reduced(x, y, n, d)

    @classmethod
    def from_rational(cls, q) -> "QuadraticElement":
        q = Fraction(q)
        return _reduced(q.numerator, 0, q.denominator, 1)

    @classmethod
    def from_radical(cls, x: RadicalElement) -> "QuadraticElement":
        q, d = x.as_sqrt_multiple()
        if d == 1:
            return cls.from_rational(q)
        return cls(Fraction(0), q, d)

    # -- coordinates and predicates ----------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part x / n."""
        return Fraction(self.x, self.n)

    @property
    def b(self) -> Fraction:
        """The coefficient y / n of sqrt(d)."""
        return Fraction(self.y, self.n)

    def __eq__(self, other):
        if not isinstance(other, QuadraticElement):
            return NotImplemented
        return (
            self.x == other.x and self.y == other.y and self.n == other.n and self.d == other.d
        )

    def __hash__(self):
        return hash((self.x, self.y, self.n, self.d))

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueOutsideField(f"{self} is irrational")
        return self.a

    def generated_class(self) -> int:
        """Square class of the quadratic field Q(self) over Q (1 when rational)."""
        return self.d

    # -- arithmetic (same subfield, or one operand rational) --------------

    def _join(self, other: "QuadraticElement") -> int:
        if self.d == other.d or other.y == 0:
            return self.d
        if self.y == 0:
            return other.d
        raise mixed_fields(self.d, other.d)

    def __add__(self, other):
        other = _as_quadratic(other)
        d = self._join(other)
        n, m = self.n, other.n
        return _reduced(self.x * m + other.x * n, self.y * m + other.y * n, n * m, d)

    def __sub__(self, other):
        other = _as_quadratic(other)
        d = self._join(other)
        n, m = self.n, other.n
        return _reduced(self.x * m - other.x * n, self.y * m - other.y * n, n * m, d)

    def __neg__(self):
        return _reduced(-self.x, -self.y, self.n, self.d)

    def __mul__(self, other):
        if type(other) is int:  # an integer scales the numerators
            return _reduced(self.x * other, self.y * other, self.n, self.d)
        other = _as_quadratic(other)
        d = self._join(other)
        x, y, u, v = self.x, self.y, other.x, other.y
        return _reduced(x * u + y * v * d, x * v + y * u, self.n * other.n, d)

    def __truediv__(self, other):
        other = _as_quadratic(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero quadratic element")
        # self / other = self * conj(other) * m / (u^2 - v^2 d) for other = (u + v sqrt d) / m
        d = self._join(other)
        x, y, u, v, m = self.x, self.y, other.x, other.y, other.n
        return _reduced(
            (x * u - y * v * d) * m, (y * u - x * v) * m, self.n * (u * u - v * v * other.d), d
        )

    def square(self) -> "QuadraticElement":
        x, y = self.x, self.y
        return _reduced(x * x + y * y * self.d, 2 * x * y, self.n * self.n, self.d)

    def conjugate(self) -> "QuadraticElement":
        """The nontrivial automorphism a + b*sqrt(d) -> a - b*sqrt(d)."""
        return _reduced(self.x, -self.y, self.n, self.d)

    def moduli_at_most_sqrt(self, m: int) -> bool:
        """Whether |sigma(self)| <= sqrt(m) under both embeddings sigma of
        Q(sqrt(d)), decided in integers, without a square root."""
        x2, y2d, bound = self.x * self.x, self.y * self.y * self.d, m * self.n * self.n
        if self.d < 0:  # both embeddings have modulus squared (x^2 + y^2 |d|) / n^2
            return x2 - y2d <= bound
        # (x +- y sqrt d)^2 = x^2 + y^2 d +- 2 x y sqrt d, whose larger value is
        # at most m n^2 exactly when 2 |x y| sqrt d <= L = m n^2 - x^2 - y^2 d
        slack = bound - x2 - y2d
        return slack >= 0 and 4 * x2 * y2d <= slack * slack

    def __repr__(self):
        if self.y == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt({self.d})"


def mixed_fields(d: int, e: int) -> ValueOutsideField:
    """The error for combining irrational elements of Q(sqrt(d)) and Q(sqrt(e)), d != e."""
    return ValueOutsideField(f"cannot combine elements of Q(sqrt({d})) and Q(sqrt({e}))")


_new = object.__new__


def _reduced(x: int, y: int, n: int, d: int) -> QuadraticElement:
    """(x + y*sqrt(d)) / n in normal form, for integers with n != 0 and a
    squarefree d (a class some operand was built with, or a literal class).

    The one trusted constructor: it divides out gcd(x, y, n), makes n
    positive and sets d = 1 when y = 0, and checks nothing else.
    """
    g = math.gcd(x, y, n)
    if n < 0:
        g = -g
    r = _new(QuadraticElement)
    r.x, r.y, r.n, r.d = x // g, y // g, n // g, d if y else 1
    return r


def _as_quadratic(x) -> QuadraticElement:
    if isinstance(x, QuadraticElement):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadraticElement.from_rational(x)
    raise TypeError(f"cannot interpret {x!r} as a quadratic element")


# torsion t -> exp(2 pi i t) as (x, y, n, d)
_TORSION_AS_QUADRATIC = {
    Fraction(0): _reduced(1, 0, 1, 1),
    Fraction(1, 2): _reduced(-1, 0, 1, 1),
    Fraction(1, 4): _reduced(0, 1, 1, -1),
    Fraction(3, 4): _reduced(0, -1, 1, -1),
    Fraction(1, 3): _reduced(-1, 1, 2, -3),
    Fraction(2, 3): _reduced(-1, -1, 2, -3),
    Fraction(1, 6): _reduced(1, 1, 2, -3),
    Fraction(5, 6): _reduced(1, -1, 2, -3),
}


def root_of_unity_as_quadratic(value: RadicalElement) -> QuadraticElement:
    """Convert a root of unity of order 1, 2, 3, 4 or 6 to quadratic coordinates."""
    if not value.is_root_of_unity:
        raise ValueOutsideField(f"{value!r} is not a root of unity")
    try:
        return _TORSION_AS_QUADRATIC[value.torsion]
    except KeyError:
        raise ValueOutsideField(
            f"root of unity of order {value.torsion.denominator} is not quadratic"
        ) from None
