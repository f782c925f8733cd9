"""From abstract isogeny data to a GL2-type descriptor.

The input datum is a finite abelian Galois group, an isogeny-degree assignment
g -> deg(g) with deg(1) = 1, and a rational-valued normalized 2-cocycle tied
to the degrees by c(g, h)^2 = deg(g) deg(h) / deg(gh).  The construction
splits the cocycle canonically, forms the field generated by the splitting
values, reads off the finite-order character g -> a(g)^2 / deg(g), and builds
the twisted group algebra together with its quotient map and projector.

Two congruence checks accompany the descriptor: a(g)^2 / eps(g) must be a
positive rational for every g (it equals deg(g) by construction), and for a
table of Frobenius traces the ratio a(Frob_p) / a_p must be a nonzero
rational at every usable entry.  The Brauer-side invariant is the order of
the cocycle class against rational coboundaries, which is 1 or 2 for every
valid datum (the degree assignment itself splits c^2 rationally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraElement, AlgebraHom, TwistedGroupAlgebra, kernel_projector
from .cohomology import OneCochain, TwoCocycle, power_splits_over_rationals, split_cocycle
from .errors import SplittingObstructed
from .fields import MultiquadraticField
from .groups import Element, FiniteAbelianGroup, GroupCharacter
from .radicals import RadicalElement


@dataclass(frozen=True)
class CocycleViolation:
    g: Element
    h: Element
    k: Element


@dataclass(frozen=True)
class DegreeIdentityViolation:
    g: Element
    h: Element


_UNCHECKED = object()


class QCurveDatum:
    """Galois group, isogeny degrees, and the attached rational 2-cocycle."""

    def __init__(
        self,
        group: FiniteAbelianGroup,
        degrees: dict[Element, int],
        cocycle: TwoCocycle,
    ):
        if cocycle.group != group:
            raise ValueError("cocycle group does not match")
        self.group = group
        table = {}
        for g in group.elements():
            if g not in degrees:
                raise ValueError(f"no degree assigned at {g}")
            deg = int(degrees[g])
            if deg < 1:
                raise ValueError(f"degree at {g} must be a positive integer")
            table[g] = deg
        self.degrees = table
        self.cocycle = cocycle
        self._violation = _UNCHECKED

    def violation(self) -> Optional[CocycleViolation | DegreeIdentityViolation]:
        """First failed invariant: the cocycle identity, deg(1) = 1, or the
        degree identity c(g, h)^2 = deg(g) deg(h) / deg(gh).  The datum is
        immutable, so the checks run on the first call only."""
        if self._violation is _UNCHECKED:
            self._violation = self._check()
        return self._violation

    def _check(self) -> Optional[CocycleViolation | DegreeIdentityViolation]:
        triple = self.cocycle.violation()
        if triple is not None:
            return CocycleViolation(*triple)
        identity = self.group.identity
        if self.degrees[identity] != 1:
            return DegreeIdentityViolation(identity, identity)
        for g in self.group.elements():
            for h in self.group.elements():
                lhs = self.cocycle.rational_value(g, h) ** 2
                rhs = Fraction(
                    self.degrees[g] * self.degrees[h], self.degrees[self.group.add(g, h)]
                )
                if lhs != rhs:
                    return DegreeIdentityViolation(g, h)
        return None


@dataclass(frozen=True)
class GL2TypeDescriptor:
    """Output of the construction: field, character, splitting, and attachments.

    The inner field is Q throughout this construction (a(g)^2 / eps(g) is the
    rational deg(g) for every g).  When the character has order greater than
    two, its normalization against the determinant-side character of the
    resulting abelian variety is not decided here; epsilon_inversion_ambiguous
    flags that case.
    """

    field_e: MultiquadraticField
    epsilon: GroupCharacter
    alpha: OneCochain
    dimension: int
    field_f: MultiquadraticField
    algebra: TwistedGroupAlgebra = field(compare=False)
    omega: AlgebraHom = field(compare=False)
    projector: AlgebraElement = field(compare=False)

    @property
    def epsilon_inversion_ambiguous(self) -> bool:
        return self.epsilon.order > 2


def construct_gl2_type(datum: QCurveDatum) -> GL2TypeDescriptor:
    """Split the cocycle and assemble the GL2-type descriptor.

    Deterministic: the canonical root choice in the splitting fixes every
    downstream value.  Raises SplittingObstructed when the cocycle is not
    symmetric, and UnsupportedDegree when the splitting values fall outside
    the multiquadratic regime.
    """
    violation = datum.violation()
    if violation is not None:
        raise ValueError(f"invalid datum: {violation}")
    result = split_cocycle(datum.cocycle)
    if not result.split:
        raise SplittingObstructed(result.obstruction)
    alpha = result.cochain
    algebra = TwistedGroupAlgebra(datum.group, datum.cocycle)
    # split_cocycle has verified that alpha splits the cocycle
    omega = AlgebraHom(algebra, alpha.values())

    eps_values = {}
    for g in datum.group.elements():
        value = alpha(g) ** 2 / RadicalElement.from_rational(datum.degrees[g])
        if not value.is_root_of_unity:
            raise ValueError(f"character value at {g} is not a root of unity (internal error)")
        eps_values[g] = value
    epsilon = GroupCharacter(datum.group, eps_values)
    projector = kernel_projector(algebra, omega)

    return GL2TypeDescriptor(
        field_e=omega.field,
        epsilon=epsilon,
        alpha=alpha,
        dimension=omega.field.degree,
        field_f=MultiquadraticField.rationals(),
        algebra=algebra,
        omega=omega,
        projector=projector,
    )


def alpha_epsilon_congruent(descriptor: GL2TypeDescriptor) -> bool:
    """Whether a(g)^2 / eps(g) is a positive rational for every g."""
    for g in descriptor.alpha.group.elements():
        ratio = descriptor.alpha(g) ** 2 / descriptor.epsilon(g)
        if not ratio.is_rational or ratio.rational_value() <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Frobenius data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusEntry:
    p: int
    frobenius_class: Element
    a_p: Optional[RadicalElement]  # None encodes a vanishing trace
    good_reduction: bool = True


@dataclass(frozen=True)
class FrobeniusAssignment:
    entries: tuple[FrobeniusEntry, ...]

    def __post_init__(self):
        primes = [e.p for e in self.entries]
        if len(set(primes)) != len(primes):
            raise ValueError("Frobenius entries must have distinct primes")


OK = "ok"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CongruenceReport:
    p: int
    status: str
    ratio: Optional[Fraction] = None


def frobenius_congruences(
    descriptor: GL2TypeDescriptor, assignment: FrobeniusAssignment
) -> list[CongruenceReport]:
    """Check a(Frob_p) = a_p up to a nonzero rational factor, entry by entry.

    Entries with vanishing trace or bad reduction are reported as skipped.
    The report is ordered by ascending p regardless of input order.
    """
    reports = []
    for entry in sorted(assignment.entries, key=lambda e: e.p):
        if not entry.good_reduction or entry.a_p is None:
            reports.append(CongruenceReport(entry.p, SKIPPED))
            continue
        g = descriptor.alpha.group.check_element(entry.frobenius_class)
        ratio = descriptor.alpha(g) / entry.a_p
        if ratio.is_rational:
            reports.append(CongruenceReport(entry.p, OK, ratio.rational_value()))
        else:
            reports.append(CongruenceReport(entry.p, FAIL))
    return reports


ORDER_ONE = 1
ORDER_TWO = 2


def brauer_order(datum: QCurveDatum) -> int:
    """Order (1 or 2) of the cocycle class against rational coboundaries.

    The square of the cocycle always splits rationally: the degree identity
    c^2 = delta(deg), checked by datum.violation(), exhibits the rational
    splitting deg.  Order 1 is the closed form of power_splits_over_rationals
    on the cocycle's kept splitting, the one construct_gl2_type uses.
    """
    violation = datum.violation()
    if violation is not None:
        raise ValueError(f"invalid datum: {violation}")
    if power_splits_over_rationals(datum.cocycle):
        return ORDER_ONE
    return ORDER_TWO
