"""Exception types shared across the package."""


class QCurvesError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedDegree(QCurvesError):
    """A value falls outside the multiquadratic regime (degree not a power of 2)."""


class InvalidCocycle(QCurvesError):
    """A table fails the 2-cocycle identity or normalization."""


class NotASplitting(QCurvesError):
    """A cochain's coboundary does not equal the required cocycle."""


class NoProjector(QCurvesError):
    """The closed-form projector is not idempotent (internal error)."""


class InconsistentDescriptor(QCurvesError):
    """Endomorphism-algebra descriptor invariants fail."""


class SplittingObstructed(QCurvesError):
    """A cocycle admits no splitting at finite level; carries the obstruction pairing."""

    def __init__(self, pairing):
        super().__init__("cocycle splitting obstructed at finite level")
        self.pairing = pairing


class CompatibilityRequired(QCurvesError):
    """Descent data violate the isogeny compatibility identity."""


class ValueOutsideField(QCurvesError):
    """An element does not lie in (or is not comparable within) the declared field."""


class NotTotallyReal(QCurvesError):
    """The inner field computed from a trace table is not totally real."""


class InputLimit(ValueError):
    """An input lies past a documented size or effort bound; the message names
    the bound.  A ValueError, so the command line exits 2 on it."""
