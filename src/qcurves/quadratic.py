"""Closed-form classification for the quadratic-field case.

A single nonzero integer m drives everything: the nontrivial Galois
automorphism s carries an isogeny mu with mu composed with its conjugate
equal to multiplication by m, so the cocycle is 1 off (s, s) and m there, and
the twisted algebra is Q[X]/(X^2 - m).  The classifier reports the algebra
shape, the order of the character theta(g) = a(g)^2/deg(g) for the canonical
splitting a(s) = sqrt(m), the signature of the field generated by sqrt(m),
whether the construction descends to a model over Q (m a perfect square), and
the signature constraint: the two quadratic fields in play cannot both be
imaginary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import is_rational_square, squarefree_part
from .cohomology import TwoCocycle
from .groups import FiniteAbelianGroup
from .pipeline import QCurveDatum
from .radicals import RadicalElement

REAL = "real"
IMAGINARY = "imaginary"
RATIONAL = "rational"

TRIVIAL = 1
ORDER_TWO = 2


@dataclass(frozen=True)
class QuadraticQCurveInput:
    """The integer m and the signature of the quadratic base field."""

    m: int
    k_signature: str

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("m must be a nonzero integer")
        if self.k_signature not in (REAL, IMAGINARY):
            raise ValueError(f"unknown signature {self.k_signature!r}")


@dataclass(frozen=True)
class QuadraticReport:
    m: int
    k_signature: str
    splits_as_q_x_q: bool
    field_class: Optional[int]  # squarefree d with the algebra = Q(sqrt(d)), None if split
    theta_order: int
    epsilon_order: int
    e_signature: str
    model_over_q: bool
    signature_constraint_ok: bool


def signature_constraint_ok(data: QuadraticQCurveInput) -> bool:
    """False exactly when both quadratic fields would be imaginary (m < 0 with
    imaginary base field), which is impossible for genuine isogeny data."""
    return not (data.m < 0 and data.k_signature == IMAGINARY)


def classify_quadratic(data: QuadraticQCurveInput) -> QuadraticReport:
    m = data.m
    square = is_rational_square(m)
    theta = TRIVIAL if m > 0 else ORDER_TWO
    if square:
        e_signature = RATIONAL
    elif m > 0:
        e_signature = REAL
    else:
        e_signature = IMAGINARY
    return QuadraticReport(
        m=m,
        k_signature=data.k_signature,
        splits_as_q_x_q=square,
        field_class=None if square else squarefree_part(m),
        theta_order=theta,
        epsilon_order=theta,  # the two finite-order characters coincide
        e_signature=e_signature,
        model_over_q=square,
        signature_constraint_ok=signature_constraint_ok(data),
    )


def order_two_datum(m: int) -> QCurveDatum:
    """The order-two datum with degree |m| and cocycle value m at (s, s).

    This is the pipeline-facing form of the same input; the classifier and
    the general construction agree on it for every nonsquare m.
    """
    if m == 0:
        raise ValueError("m must be a nonzero integer")
    group = FiniteAbelianGroup((2,))
    sigma = (1,)
    cocycle = TwoCocycle(group, {(sigma, sigma): RadicalElement.from_rational(m)})
    return QCurveDatum(group, {group.identity: 1, sigma: abs(m)}, cocycle)
