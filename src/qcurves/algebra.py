"""Twisted group algebras over Q and their field quotients.

The algebra attached to a finite abelian group G and a rational-valued
normalized 2-cocycle c has basis symbols b_g with multiplication
b_g * b_h = c(g, h) * b_{gh}, extended bilinearly; b_1 is the unit and the
dimension over Q is |G|.  Associativity of the structure table is precisely
the cocycle identity.  The algebra is commutative iff c is symmetric.

A splitting cochain a of c induces the quotient map onto the multiquadratic
field E generated by its values (b_g -> a(g)).  The idempotent projecting
onto that quotient has a closed form: the trace over E of the character
idempotent (1/|G|) sum_g a(g)^-1 b_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import OneCochain, TwoCocycle
from .errors import InconsistentDescriptor, InvalidCocycle, NoProjector, NotASplitting
from .fields import field_of_radicals
from .groups import Element, FiniteAbelianGroup
from .radicals import RadicalElement


class TwistedGroupAlgebra:
    """Q-algebra with basis indexed by a finite abelian group, twisted by a cocycle."""

    def __init__(self, group: FiniteAbelianGroup, cocycle: TwoCocycle):
        if cocycle.group != group:
            raise ValueError("cocycle group does not match")
        violation = cocycle.violation()
        if violation is not None:
            raise InvalidCocycle(f"cocycle identity fails at {violation}")
        if not cocycle.is_rational_valued:
            raise ValueError("twisted group algebra requires a rational-valued cocycle")
        self.group = group
        self.cocycle = cocycle
        self._constants = {
            (g, h): cocycle(g, h).rational_value()
            for g in group.elements()
            for h in group.elements()
        }
        self.is_commutative = cocycle.is_symmetric

    @property
    def dimension(self) -> int:
        return self.group.order

    def structure_constant(self, g: Element, h: Element) -> Fraction:
        return self._constants[(g, h)]

    def element(self, coefficients: dict[Element, Fraction]) -> "AlgebraElement":
        return AlgebraElement(self, coefficients)

    def one(self) -> "AlgebraElement":
        return self.basis(self.group.identity)

    def basis(self, g: Element) -> "AlgebraElement":
        return AlgebraElement(self, {self.group.check_element(g): Fraction(1)})

    def __eq__(self, other):
        if not isinstance(other, TwistedGroupAlgebra):
            return NotImplemented
        return self.group == other.group and self.cocycle == other.cocycle

    def __repr__(self):
        return f"TwistedGroupAlgebra({self.group})"


class AlgebraElement:
    """Sparse rational combination of basis symbols of a twisted group algebra."""

    __slots__ = ("algebra", "coefficients")

    def __init__(self, algebra: TwistedGroupAlgebra, coefficients: dict[Element, Fraction]):
        self.algebra = algebra
        cleaned = {}
        for g, q in coefficients.items():
            q = Fraction(q)
            if q:
                cleaned[algebra.group.check_element(g)] = q
        self.coefficients = cleaned

    def _check(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        coeffs = dict(self.coefficients)
        for g, q in other.coefficients.items():
            coeffs[g] = coeffs.get(g, Fraction(0)) + q
        return AlgebraElement(self.algebra, coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {g: -q for g, q in self.coefficients.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, s) -> "AlgebraElement":
        s = Fraction(s)
        return AlgebraElement(self.algebra, {g: q * s for g, q in self.coefficients.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        add = self.algebra.group.add
        constants = self.algebra.structure_constant
        coeffs: dict[Element, Fraction] = {}
        for g, x in self.coefficients.items():
            for h, y in other.coefficients.items():
                gh = add(g, h)
                coeffs[gh] = coeffs.get(gh, Fraction(0)) + x * y * constants(g, h)
        return AlgebraElement(self.algebra, coeffs)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coefficients == other.coefficients

    def __repr__(self):
        if not self.coefficients:
            return "0"
        return " + ".join(f"({q})*b{list(g)}" for g, q in sorted(self.coefficients.items()))


class AlgebraHom:
    """Q-algebra surjection b_g -> a(g) from a twisted group algebra onto a field.

    The constructor trusts that a splits the algebra's cocycle, as for the
    splitting split_cocycle has verified; hom_from_splitting checks a cochain
    from outside.  That check is exactly multiplicativity: a(g) a(h) =
    c(g, h) a(gh) for every pair is the identity delta(a) = c.
    """

    def __init__(self, algebra: TwistedGroupAlgebra, images: dict[Element, RadicalElement]):
        self.algebra = algebra
        self.images = dict(images)
        self.field = field_of_radicals(images.values())
        # coordinates of each image in the square-class basis of the field
        self.coordinates = {g: v.as_sqrt_multiple() for g, v in images.items()}

    def __repr__(self):
        return f"AlgebraHom({self.algebra} -> {self.field})"


def hom_from_splitting(algebra: TwistedGroupAlgebra, a: OneCochain) -> AlgebraHom:
    """The quotient map b_g -> a(g) onto the field generated by the values of a."""
    if a.group != algebra.group:
        raise NotASplitting("cochain group does not match the algebra")
    if not a.splits(algebra.cocycle):
        raise NotASplitting("cochain does not split the algebra's cocycle")
    return AlgebraHom(algebra, a.values())


def kernel_projector(algebra: TwistedGroupAlgebra, hom: AlgebraHom) -> AlgebraElement:
    """The idempotent cutting out the field quotient of a commutative algebra.

    Over an algebraic closure the quotient maps are b_g -> a(g) chi(g), one
    for each character chi of G, and by character orthogonality the
    idempotent of the one for chi is (1/|G|) sum_g (a(g) chi(g))^-1 b_g.
    The [E:Q] embeddings of E carry the map for chi = 1 to the maps that
    factor through E, so the projector is the trace over E of its
    idempotent: the coefficient of b_g is [E:Q]/|G| * a(g)^-1 when a(g) is
    rational, and 0 otherwise.
    """
    scale = Fraction(hom.field.degree, algebra.group.order)
    coefficients = {g: scale / q for g, (q, d) in hom.coordinates.items() if d == 1}
    projector = AlgebraElement(algebra, coefficients)
    if projector * projector != projector:
        raise NoProjector("closed-form element is not idempotent")
    return projector


# ---------------------------------------------------------------------------
# Endomorphism-algebra descriptors
# ---------------------------------------------------------------------------

PRIMITIVE = "primitive"
MATRIX_OVER_FIELD = "matrix_over_field"
QUATERNIONIC = "quaternionic"


@dataclass(frozen=True)
class EndAlgebraDescriptor:
    """Shape data of an endomorphism algebra M(n, D) acting on an abelian variety.

    division_degree is 1 when D is the center and 2 when D is a quaternion
    division algebra over it; maximal_field_degree and center_degree are the
    degrees over Q of a maximal subfield and of the center.
    """

    n: int
    division_degree: int
    center_degree: int
    maximal_field_degree: int
    abelian_variety_dim: int

    def validate(self):
        if self.n < 1 or self.division_degree not in (1, 2):
            raise InconsistentDescriptor("n must be >= 1 and the division degree 1 or 2")
        if self.center_degree < 1 or self.maximal_field_degree % self.center_degree:
            raise InconsistentDescriptor("center degree must divide the maximal field degree")
        if self.n * self.division_degree != self.maximal_field_degree // self.center_degree:
            raise InconsistentDescriptor("n * t must equal the relative degree [E:F]")
        if self.abelian_variety_dim < 1 or self.abelian_variety_dim % self.maximal_field_degree:
            raise InconsistentDescriptor("the maximal field degree must divide the dimension")


@dataclass(frozen=True)
class EndAlgebraClassification:
    primitivity: str  # PRIMITIVE or "non_primitive(n)"
    kind: str  # MATRIX_OVER_FIELD or QUATERNIONIC
    n: int


def classify_end_algebra(descriptor: EndAlgebraDescriptor) -> EndAlgebraClassification:
    """Primitivity (n = 1) and the matrix-versus-quaternion dichotomy (t)."""
    descriptor.validate()
    primitivity = PRIMITIVE if descriptor.n == 1 else f"non_primitive({descriptor.n})"
    kind = MATRIX_OVER_FIELD if descriptor.division_degree == 1 else QUATERNIONIC
    return EndAlgebraClassification(primitivity, kind, descriptor.n)
