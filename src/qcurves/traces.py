"""Verifiers for Frobenius-trace tables against a declared field and character.

A table carries a multiquadratic field E, explicit Dirichlet character data,
and entries (p, a_p) with a good-reduction flag; flagged-bad entries join the
exceptional set and are excluded from every check.  The checks are exact:

* conjugation symmetry: a_p equals its canonical involute times the character
  value at p, where the involution is trivial on a totally real E and is the
  complex conjugation otherwise (it fixes real quadratic subfields);
* the field generated by the traces, and the inner field generated by the
  numbers t_p = a_p^2 / eps(p), which must come out totally real;
* the abelianness witness: E must land inside the field obtained from the
  inner field by adjoining square roots of the t_p and the roots of unity of
  order twice the character order (square roots of character values);
* evenness of the character: value +1 at -1;
* the Frobenius characteristic polynomial x^2 - a_p x + eps(p) p, with an
  advisory (never fatal) archimedean bound |a_p| <= 2 sqrt(p) under every
  embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional

from .arith import is_prime
from .errors import NotTotallyReal, ValueOutsideField
from .fields import (
    MultiquadraticField,
    QuadraticElement,
    quadratic_classes_in_cyclotomic,
    root_of_unity_as_quadratic,
)
from .radicals import RadicalElement


class DirichletCharacterData:
    """Explicit character table modulo N: residue -> root of unity."""

    def __init__(
        self,
        modulus: int,
        values: dict[int, RadicalElement],
        value_at_minus_one: Optional[RadicalElement] = None,
    ):
        self.modulus = int(modulus)
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        units = [r for r in range(self.modulus) if math.gcd(r, self.modulus) == 1]
        if self.modulus == 1:
            units = [0]  # every residue is a unit mod 1
        table = {}
        for r in units:
            v = values.get(r)
            if v is None:
                raise ValueError(f"character table missing residue {r}")
            if not v.is_root_of_unity:
                raise ValueError(f"character value at {r} is not a root of unity")
            table[r] = v
        one = 1 % self.modulus
        if not table[one].is_one:
            raise ValueError("character must take the value 1 at the class of 1")
        for r in units:
            for s in units:
                if table[(r * s) % self.modulus] != table[r] * table[s]:
                    raise ValueError(f"character not multiplicative at ({r}, {s})")
        self.values = table
        expected_m1 = table[(-1) % self.modulus]
        if value_at_minus_one is not None and value_at_minus_one != expected_m1:
            raise ValueError("declared value at -1 disagrees with the table")
        self.value_at_minus_one = expected_m1

    @classmethod
    def trivial(cls) -> "DirichletCharacterData":
        return cls(1, {0: RadicalElement.one()})

    def __call__(self, n: int) -> Optional[RadicalElement]:
        """Value at an integer; None when n shares a factor with the modulus."""
        if self.modulus == 1:
            return RadicalElement.one()
        if math.gcd(n, self.modulus) != 1:
            return None
        return self.values[n % self.modulus]

    @property
    def order(self) -> int:
        return reduce(
            lambda a, b: a * b // math.gcd(a, b),
            (v.torsion.denominator for v in self.values.values()),
            1,
        )

    @property
    def is_even(self) -> bool:
        return self.value_at_minus_one.is_one

    def __repr__(self):
        return f"DirichletCharacterData(mod {self.modulus}, order {self.order})"


@dataclass(frozen=True)
class TraceEntry:
    p: int
    a_p: QuadraticElement
    good: bool = True


class TraceTable:
    """Field, character, trace entries, and the exceptional prime set."""

    def __init__(
        self,
        field_e: MultiquadraticField,
        epsilon: DirichletCharacterData,
        entries: list[TraceEntry],
        bad_primes: Optional[set[int]] = None,
    ):
        primes = [e.p for e in entries]
        if len(set(primes)) != len(primes):
            raise ValueError("entry primes must be distinct")
        for e in entries:
            if not is_prime(e.p):
                raise ValueError(f"{e.p} is not prime")
            if e.a_p.generated_class() != 1 and not field_e.contains_class(e.a_p.generated_class()):
                raise ValueOutsideField(f"a_{e.p} = {e.a_p} does not lie in {field_e}")
            if e.good and epsilon(e.p) is None:
                raise ValueError(f"character vanishes at the good prime {e.p}")
        self.field_e = field_e
        self.epsilon = epsilon
        self.entries = tuple(sorted(entries, key=lambda e: e.p))
        self.bad_primes = frozenset(bad_primes or ()) | {e.p for e in entries if not e.good}

    def good_entries(self) -> list[TraceEntry]:
        return [e for e in self.entries if e.good]


def canonical_involution(field_e: MultiquadraticField, x: QuadraticElement) -> QuadraticElement:
    """Identity on a totally real field, complex conjugation otherwise."""
    if field_e.totally_real or x.is_rational or x.d > 0:
        return x
    return x.conjugate()


@dataclass(frozen=True)
class EntryReport:
    p: int
    ok: bool


def conjugation_symmetry_report(table: TraceTable) -> list[EntryReport]:
    """Check a_p = conj(a_p) * eps(p) for each good entry, in ascending p."""
    reports = []
    for entry in table.good_entries():
        eps_value = root_of_unity_as_quadratic(table.epsilon(entry.p))
        expected = canonical_involution(table.field_e, entry.a_p) * eps_value
        reports.append(EntryReport(entry.p, expected == entry.a_p))
    return reports


EMPTY_GENERATORS = "empty_generators"


def generated_field_e(table: TraceTable) -> tuple[MultiquadraticField, list[str]]:
    """Field generated by the good traces, with degenerate-input warnings."""
    good = table.good_entries()
    warnings = [] if good else [EMPTY_GENERATORS]
    classes = [e.a_p.generated_class() for e in good if not e.a_p.is_rational]
    return MultiquadraticField.from_square_classes(classes), warnings


@dataclass(frozen=True)
class InnerFieldReport:
    field_f: MultiquadraticField
    containment_ok: bool


def generated_field_f(table: TraceTable) -> InnerFieldReport:
    """Inner field Q(a_p^2 / eps(p)) with the abelianness containment check.

    Raises NotTotallyReal when the generated field has an imaginary basis
    class, which cannot happen for conjugation-compliant data.
    """
    t_values: list[QuadraticElement] = []
    for entry in table.good_entries():
        if entry.a_p.is_zero:
            continue
        eps_value = root_of_unity_as_quadratic(table.epsilon(entry.p))
        t_values.append(entry.a_p.square() / eps_value)

    field_f = MultiquadraticField.from_square_classes(
        [t.generated_class() for t in t_values if not t.is_rational]
    )
    if not field_f.totally_real:
        raise NotTotallyReal(f"inner field {field_f} has an imaginary class")

    # E must lie in F(sqrt(t_p), mu_{2 * order}): square roots of rational t_p
    # contribute their square class, square roots of irrational t_p contribute
    # the class of the quadratic field the corresponding trace generates, and
    # the roots of unity contribute the quadratic subfields of the cyclotomic.
    adjoined = list(field_f.basis)
    for t in t_values:
        if t.is_rational:
            value = t.rational_value()
            if value:
                adjoined.append(RadicalElement.from_rational(value).nth_root(2).square_class())
        else:
            adjoined.append(t.generated_class())
    adjoined.extend(quadratic_classes_in_cyclotomic(2 * table.epsilon.order))
    span = MultiquadraticField.from_square_classes(adjoined)
    containment_ok = span.contains(table.field_e)
    return InnerFieldReport(field_f, containment_ok)


@dataclass(frozen=True)
class CharpolyReport:
    """Coefficients (1, -a_p, eps(p) * p) and the advisory archimedean bound."""

    p: int
    trace: QuadraticElement
    determinant: QuadraticElement
    weil_bound_ok: bool

    @property
    def coefficients(self) -> tuple[QuadraticElement, QuadraticElement, QuadraticElement]:
        return (QuadraticElement.from_rational(1), -self.trace, self.determinant)


def frobenius_charpoly(entry: TraceEntry, eps: DirichletCharacterData) -> CharpolyReport:
    if not entry.good:
        raise ValueError(f"characteristic polynomial requested at the bad prime {entry.p}")
    eps_value = root_of_unity_as_quadratic(eps(entry.p))
    determinant = eps_value * Fraction(entry.p)
    bound = 2 * math.sqrt(entry.p) + 1e-9
    weil_ok = all(m <= bound for m in entry.a_p.embedding_moduli())
    return CharpolyReport(entry.p, entry.a_p, determinant, weil_ok)
