"""Exact algebra for isogeny cocycle data on finite abelian Galois groups.

The package mechanizes, over exact rational arithmetic, the chain that leads
from an abstract isogeny datum (a finite abelian Galois group, isogeny
degrees, and the attached rational 2-cocycle) to the descriptor of an abelian
variety whose endomorphism field is as large as its dimension: canonical
cocycle splitting over the radical value group, the multiquadratic field of
splitting values, the finite-order character tying the splitting to the
degrees, the twisted group algebra with its quotient map and projector, the
order of the cocycle class against rational coboundaries, block-matrix
descent through restriction of scalars, and exact verifiers for
Frobenius-trace tables.
"""

from .algebra import (
    AlgebraElement,
    AlgebraHom,
    EndAlgebraClassification,
    EndAlgebraDescriptor,
    TwistedGroupAlgebra,
    classify_end_algebra,
    hom_from_splitting,
    kernel_projector,
)
from .cohomology import (
    CommutatorPairing,
    OneCochain,
    SplitResult,
    TwoCocycle,
    power_splits_over_rationals,
    split_cocycle,
)
from .descent import (
    BlockMap,
    DescentDatum,
    DescentReport,
    FactorProduct,
    build_restriction,
    compatibility_violation,
    eta_descent,
    iota_equivariance_violation,
)
from .errors import (
    CompatibilityRequired,
    InconsistentDescriptor,
    InvalidCocycle,
    NoProjector,
    NotASplitting,
    NotTotallyReal,
    QCurvesError,
    SplittingObstructed,
    UnsupportedDegree,
    ValueOutsideField,
)
from .fields import (
    MultiquadraticField,
    QuadraticElement,
    field_of_radicals,
    root_of_unity_as_quadratic,
)
from .groups import FiniteAbelianGroup, GroupCharacter
from .pipeline import (
    FrobeniusAssignment,
    FrobeniusEntry,
    GL2TypeDescriptor,
    QCurveDatum,
    alpha_epsilon_congruent,
    brauer_order,
    construct_gl2_type,
    frobenius_congruences,
)
from .quadratic import (
    QuadraticQCurveInput,
    QuadraticReport,
    classify_quadratic,
    order_two_datum,
    signature_constraint_ok,
)
from .radicals import RadicalElement
from .traces import (
    DirichletCharacterData,
    TraceEntry,
    TraceTable,
    conjugation_symmetry_report,
    frobenius_charpoly,
    generated_field_e,
    generated_field_f,
)

__version__ = "0.1.0"
