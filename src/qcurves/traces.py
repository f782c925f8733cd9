"""Verifiers for Frobenius-trace tables against a declared field and character.

A table carries a multiquadratic field E, explicit Dirichlet character data,
and entries (p, a_p) with a good-reduction flag; flagged-bad entries join the
exceptional set and are excluded from every check.  The character is checked
once, where it enters: every unit must carry a root of unity, and
multiplicativity is checked on generators of (Z/N)^* in integer torsion
coordinates (see DirichletCharacterData).  Its values are converted to
quadratic coordinates once per residue class.

A table repeats few values: a 1000-entry table may spell only 20 distinct
traces, and the character takes at most ``order`` values.  So each verdict
and each t_p below is computed once per distinct (a_p, eps(p)) pair, in the
integer coordinates of the two elements, with no element built; only the
p-dependent work (primality, the determinant eps(p) p and the Weil bound)
runs per entry.  The checks are exact:

* conjugation symmetry: a_p equals its canonical involute times the character
  value at p, where the involution is trivial on a totally real E and is the
  complex conjugation otherwise (it fixes real quadratic subfields);
* the field generated by the traces, and the inner field generated by the
  numbers t_p = a_p^2 / eps(p), which must come out totally real;
* the abelianness witness: E must land inside the field obtained from the
  inner field by adjoining square roots of the t_p and the roots of unity of
  order twice the character order (square roots of character values).  The
  span only grows, so the square classes of rational t_p, one factorization
  each, are added only while E is not yet inside it;
* evenness of the character: value +1 at -1;
* the Frobenius characteristic polynomial x^2 - a_p x + eps(p) p, with an
  advisory (never fatal) archimedean bound |a_p| <= 2 sqrt(p) under every
  embedding, decided exactly in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import is_prime
from .errors import NotTotallyReal, ValueOutsideField
from .fields import (
    MultiquadraticField,
    QuadraticElement,
    mixed_fields,
    quadratic_classes_in_cyclotomic,
    root_of_unity_as_quadratic,
)
from .groups import first_failing_pair
from .radicals import RadicalElement


def _greedy_generators(modulus: int, units: list[int]) -> list[int]:
    """Units that generate (Z/N)^*: each unit, in ascending order, outside the
    subgroup spanned so far.  Each step closes that subgroup H under the new
    generator u as the union of the cosets H u^j, so the closure costs O(phi(N))
    in all."""
    span = {1 % modulus}
    generators = []
    for u in units:
        if u in span:
            continue
        generators.append(u)
        cosets = []
        power = u
        while power not in span:
            cosets.extend(h * power % modulus for h in span)
            power = power * u % modulus
        span.update(cosets)
    return generators


class DirichletCharacterData:
    """Explicit character table modulo N: residue -> root of unity.

    Multiplicativity is checked in integer torsion coordinates on greedy
    generators of (Z/N)^* (``groups.first_failing_pair``): O(phi(N) |S|)
    additions for |S| generators instead of O(phi(N)^2) radical products.
    Only a failing table pays for the pair scan that names its first pair.
    """

    def __init__(
        self,
        modulus: int,
        values: dict[int, RadicalElement],
        value_at_minus_one: Optional[RadicalElement] = None,
    ):
        self.modulus = int(modulus)
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        table = {}
        for r in range(self.modulus):  # lazily: stops at the first missing unit
            if math.gcd(r, self.modulus) != 1:  # gcd(0, 1) = 1: 0 is the unit mod 1
                continue
            v = values.get(r)
            if v is None:
                raise ValueError(f"character table missing residue {r}")
            if not v.is_root_of_unity:
                raise ValueError(f"character value at {r} is not a root of unity")
            table[r] = v
        one = 1 % self.modulus
        if not table[one].is_one:
            raise ValueError("character must take the value 1 at the class of 1")
        self.order = math.lcm(*(v.torsion.denominator for v in table.values()))
        generators = _greedy_generators(self.modulus, list(table))
        pair = first_failing_pair(table, generators, lambda r, s: r * s % self.modulus)
        if pair is not None:
            raise ValueError(f"character not multiplicative at ({pair[0]}, {pair[1]})")
        self.values = table
        self._quadratic: dict[int, QuadraticElement] = {}
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

    def quadratic_value(self, n: int) -> QuadraticElement:
        """The value at an integer prime to N in quadratic coordinates,
        converted once per residue class (see root_of_unity_as_quadratic)."""
        r = n % self.modulus
        try:
            return self._quadratic[r]
        except KeyError:
            value = self._quadratic[r] = root_of_unity_as_quadratic(self(n))
            return value

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
        inside = {1: True}  # square class -> in E, decided once per class
        for e in entries:
            if not is_prime(e.p):
                raise ValueError(f"{e.p} is not prime")
            d = e.a_p.generated_class()
            if d not in inside:
                inside[d] = field_e.contains_class(d)
            if not inside[d]:
                raise ValueOutsideField(f"a_{e.p} = {e.a_p} does not lie in {field_e}")
            if e.good and epsilon(e.p) is None:
                raise ValueError(f"character vanishes at the good prime {e.p}")
        self.field_e = field_e
        self.epsilon = epsilon
        self.entries = tuple(sorted(entries, key=lambda e: e.p))
        self.bad_primes = frozenset(bad_primes or ()) | {e.p for e in entries if not e.good}

    def good_entries(self) -> list[TraceEntry]:
        return [e for e in self.entries if e.good]


@dataclass(frozen=True)
class EntryReport:
    p: int
    ok: bool


def _conjugation_holds(
    field_e: MultiquadraticField, a: QuadraticElement, e: QuadraticElement
) -> bool:
    """a = involution(a) * e for a = (x + y sqrt d) / n and a character value
    e = (u + v sqrt d_e) / k, on their coordinates."""
    x, y, d = a.x, a.y, a.d
    u, v, k = e.x, e.y, e.n
    if y and v and d != e.d:
        raise mixed_fields(d, e.d)
    if field_e.totally_real or not y or d > 0:  # the involution fixes a
        return not (x or y) or (u == k and not v)  # a = 0 or e = 1
    # conj(a) e = ((x u - y v d) + (x v - y u) sqrt d) / (n k); v = 0 or d_e = d
    return x * u - y * v * d == k * x and x * v - y * u == k * y


def conjugation_symmetry_report(table: TraceTable) -> list[EntryReport]:
    """Check a_p = conj(a_p) * eps(p) for each good entry, in ascending p,
    once per distinct (a_p, eps(p)) pair."""
    verdicts: dict[tuple[QuadraticElement, QuadraticElement], bool] = {}
    reports = []
    for entry in table.good_entries():
        pair = (entry.a_p, table.epsilon.quadratic_value(entry.p))
        ok = verdicts.get(pair)
        if ok is None:
            ok = verdicts[pair] = _conjugation_holds(table.field_e, *pair)
        reports.append(EntryReport(entry.p, ok))
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


def _inner_value(a: QuadraticElement, e: QuadraticElement) -> tuple[int, int, int]:
    """t = a^2 / e for a nonzero a = (x + y sqrt d) / n and a character value
    e = (u + v sqrt d_e) / k, as (class, num, den): the class of Q(t) when t
    is irrational, else (1, num, den) with t = num / den.

    e is a root of unity, so dividing by it multiplies by its conjugate, and
    a^2 = (s + r sqrt d) / n^2 with s = x^2 + y^2 d and r = 2 x y."""
    x, y, d, n = a.x, a.y, a.d, a.n
    u, v, k = e.x, e.y, e.n
    s, r, den = x * x + y * y * d, 2 * x * y, n * n * k
    if not r:  # a^2 = s / n^2 is rational and nonzero
        return (e.d, 0, 0) if v else (1, s * u, den)
    if not v:
        return d, 0, 0
    if d != e.d:
        raise mixed_fields(d, e.d)
    # (s + r sqrt d)(u - v sqrt d) = (s u - r v d) + (r u - s v) sqrt d
    return (d, 0, 0) if r * u != s * v else (1, s * u - r * v * d, den)


def generated_field_f(table: TraceTable) -> InnerFieldReport:
    """Inner field Q(a_p^2 / eps(p)) with the abelianness containment check,
    computed once per distinct (a_p, eps(p)) pair with a_p nonzero.

    Raises NotTotallyReal when the generated field has an imaginary basis
    class, which cannot happen for conjugation-compliant data.
    """
    seen = set()
    classes: dict[int, None] = {}  # of the irrational t_p, in order of entry
    rationals: dict[tuple[int, int], None] = {}  # the rational t_p as (num, den)
    for entry in table.good_entries():
        if entry.a_p.is_zero:
            continue
        pair = (entry.a_p, table.epsilon.quadratic_value(entry.p))
        if pair in seen:
            continue
        seen.add(pair)
        d, num, den = _inner_value(*pair)
        if d == 1:
            rationals[num, den] = None
        else:
            classes[d] = None

    field_f = MultiquadraticField.from_square_classes(classes)
    if not field_f.totally_real:
        raise NotTotallyReal(f"inner field {field_f} has an imaginary class")

    # E must lie in F(sqrt(t_p), mu_{2 * order}): square roots of rational t_p
    # contribute their square class, square roots of irrational t_p contribute
    # the class of the quadratic field the corresponding trace generates (in
    # F already), and the roots of unity contribute the quadratic subfields of
    # the cyclotomic.  The span only grows, so the rational t_p are factored
    # only until it holds E.
    span = MultiquadraticField.from_square_classes(
        (*field_f.basis, *quadratic_classes_in_cyclotomic(2 * table.epsilon.order))
    )
    containment_ok = span.contains(table.field_e)
    for num, den in rationals:
        if containment_ok:
            break
        span = MultiquadraticField.from_square_classes((*span.basis, Fraction(num, den)))
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
    eps_value = eps.quadratic_value(entry.p)
    determinant = eps_value * entry.p
    weil_ok = entry.a_p.moduli_at_most_sqrt(4 * entry.p)  # |sigma(a_p)| <= 2 sqrt(p)
    return CharpolyReport(entry.p, entry.a_p, determinant, weil_ok)
