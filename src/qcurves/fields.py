"""Multiquadratic number fields and exact arithmetic in quadratic subfields.

A multiquadratic field Q(sqrt(d_1), ..., sqrt(d_k)) is described by the
F_2-subspace its generators span inside the square-class group Q*/(Q*)^2,
whose natural coordinates are indexed by -1 and the primes.  The descriptor
stores a canonical reduced basis (row echelon over F_2, indices ordered
-1 < 2 < 3 < 5 < ...), each basis vector rendered as a squarefree integer.
The degree over Q is 2^rank, and the field is totally real iff no basis class
carries the -1 component (a basis-independent condition).

Elements of a quadratic subfield Q(sqrt(d)) are kept exactly as a + b*sqrt(d)
with rational a, b and squarefree d; sqrt(d) for d < 0 denotes i*sqrt(|d|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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


@dataclass(frozen=True)
class QuadraticElement:
    """a + b*sqrt(d) with rational a, b and squarefree d (d = 1 forces b = 0)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b == 0:
            object.__setattr__(self, "d", 1)
        elif self.d == 1:
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", Fraction(0))
        else:
            if self.d == 0 or squarefree_part(self.d) != self.d:
                raise ValueError(f"{self.d} is not a squarefree class")

    @classmethod
    def from_rational(cls, q) -> "QuadraticElement":
        return _trusted(Fraction(q), _ZERO, 1)

    @classmethod
    def from_radical(cls, x: RadicalElement) -> "QuadraticElement":
        q, d = x.as_sqrt_multiple()
        if d == 1:
            return cls.from_rational(q)
        return cls(Fraction(0), q, d)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueOutsideField(f"{self} is irrational")
        return self.a

    def generated_class(self) -> int:
        """Square class of the quadratic field Q(self) over Q (1 when rational)."""
        return 1 if self.b == 0 else self.d

    # -- arithmetic (same subfield, or one operand rational) --------------

    def _join(self, other: "QuadraticElement") -> int:
        if self.d == other.d or other.b == 0:
            return self.d
        if self.b == 0:
            return other.d
        raise ValueOutsideField(
            f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
        )

    def __add__(self, other):
        other = _as_quadratic(other)
        d = self._join(other)
        return _trusted(self.a + other.a, self.b + other.b, d)

    def __sub__(self, other):
        other = _as_quadratic(other)
        d = self._join(other)
        return _trusted(self.a - other.a, self.b - other.b, d)

    def __neg__(self):
        return _trusted(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = _as_quadratic(other)
        if not other.b:  # a rational factor scales both coordinates
            return _trusted(self.a * other.a, self.b * other.a, self.d)
        if not self.b:
            return _trusted(self.a * other.a, self.a * other.b, other.d)
        d = self._join(other)
        return _trusted(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    def __truediv__(self, other):
        other = _as_quadratic(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero quadratic element")
        if not other.b:
            return _trusted(self.a / other.a, self.b / other.a, self.d)
        norm = other.a * other.a - other.b * other.b * other.d
        inv = _trusted(other.a / norm, -other.b / norm, other.d)
        return self * inv

    def square(self) -> "QuadraticElement":
        return self * self

    def conjugate(self) -> "QuadraticElement":
        """The nontrivial automorphism a + b*sqrt(d) -> a - b*sqrt(d)."""
        return _trusted(self.a, -self.b, self.d)

    def embedding_moduli(self) -> tuple[float, ...]:
        """|sigma(x)| over the embeddings of Q(sqrt(d)); floats, for bounds only."""
        if self.d > 0:
            r = math.sqrt(self.d)
            return (abs(float(self.a) + float(self.b) * r), abs(float(self.a) - float(self.b) * r))
        m = float(self.a) ** 2 + float(self.b) ** 2 * abs(self.d)
        return (math.sqrt(m), math.sqrt(m))

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt({self.d})"


_ZERO = Fraction(0)


def _trusted(a: Fraction, b: Fraction, d: int) -> QuadraticElement:
    """An arithmetic result or a constant, built without the public
    constructor's checks.

    a and b are Fractions already and d is squarefree: a class some operand
    was built with, or a literal class.  Only d = 1 for b = 0 is restored, so
    equality and hashing see the same fields as for a publicly built element.
    """
    x = object.__new__(QuadraticElement)
    x.__dict__.update(a=a, b=b, d=d if b else 1)
    return x


def _as_quadratic(x) -> QuadraticElement:
    if isinstance(x, QuadraticElement):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadraticElement.from_rational(x)
    raise TypeError(f"cannot interpret {x!r} as a quadratic element")


_TORSION_AS_QUADRATIC = {
    Fraction(0): _trusted(Fraction(1), _ZERO, 1),
    Fraction(1, 2): _trusted(Fraction(-1), _ZERO, 1),
    Fraction(1, 4): _trusted(_ZERO, Fraction(1), -1),
    Fraction(3, 4): _trusted(_ZERO, Fraction(-1), -1),
    Fraction(1, 3): _trusted(Fraction(-1, 2), Fraction(1, 2), -3),
    Fraction(2, 3): _trusted(Fraction(-1, 2), Fraction(-1, 2), -3),
    Fraction(1, 6): _trusted(Fraction(1, 2), Fraction(1, 2), -3),
    Fraction(5, 6): _trusted(Fraction(1, 2), Fraction(-1, 2), -3),
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
