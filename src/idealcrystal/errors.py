"""Exception types shared across the package."""


class IdealCrystalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IdealCrystalError):
    """A parameter or configuration value is out of its valid range."""


class ParseError(IdealCrystalError):
    """Input stream is not a valid point-set file."""


class DimensionMismatch(IdealCrystalError):
    """Rows of a point-set file disagree on coordinate count."""


class DuplicatePoint(IdealCrystalError):
    """Two points coincide within the equality tolerance."""


class EmptyWindow(IdealCrystalError):
    """A window restriction produced no points."""


class TooFewPoints(IdealCrystalError):
    """The operation needs more points than the set provides."""


class MarginTooLarge(IdealCrystalError):
    """The boundary margin left an empty core."""


class DegenerateGap(IdealCrystalError):
    """Difference vectors are not resolvably separated at this tolerance."""


class WindowTooSmall(IdealCrystalError):
    """The window cannot accommodate the requested translation."""


class NoSnapTarget(IdealCrystalError):
    """No set point lies close enough to the translated anchor."""


class AmbiguousSnap(IdealCrystalError):
    """Two set points compete for the translated anchor; tolerances are
    misconfigured for this data."""


class NotExactPeriod(IdealCrystalError):
    """A snapped candidate failed exact verification on the window."""


class SingularBasis(IdealCrystalError):
    """Basis vectors are linearly dependent at the working tolerance."""


class CosetCollision(IdealCrystalError):
    """Two motif points fall in the same lattice coset."""


class AmplitudeTooLarge(IdealCrystalError):
    """Perturbation amplitude would destroy discreteness of the output."""


class EmptyAcceptanceWindow(IdealCrystalError):
    """Cut-and-project acceptance interval is empty."""
