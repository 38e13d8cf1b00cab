"""Exception hierarchy shared across the toolkit."""


class OdosymError(Exception):
    """Base class for all toolkit errors."""


class MatrixParseError(OdosymError, ValueError):
    """Bad matrix/vector/box text; records the offending token and position."""

    def __init__(self, message, token=None, position=None):
        super().__init__(message)
        self.token = token
        self.position = position


class SingularMatrixError(OdosymError, ValueError):
    """An operation required a nonsingular integer matrix."""


class NotExpansionError(OdosymError, ValueError):
    """The base matrix must have all eigenvalues of modulus > 1."""


class DomainValidationError(OdosymError, ValueError):
    """A candidate fundamental domain failed validation."""


class DomainCardinalityError(DomainValidationError):
    """Wrong number of coset representatives."""


class DomainCosetCollisionError(DomainValidationError):
    """Two representatives fall in the same coset."""


class DomainMissingZeroError(DomainValidationError):
    """The zero vector is required as a representative."""


class DepthError(OdosymError, ValueError):
    """A depth or level below the least one the operation accepts."""


class MissingCertificateError(OdosymError, ValueError):
    """A certificate lacks the integral conjugate some level needs."""


class SizeGuardError(OdosymError, ValueError):
    """A desk-scale size guard tripped (support or search too large)."""


class WrongBranchError(OdosymError, ValueError):
    """Operation called on a base matrix outside its classification branch."""


class MarginError(OdosymError, ValueError):
    """Patch support too small for the sliding-block evaluation requested."""


class WindowError(OdosymError, ValueError):
    """A window pattern that no digit coset writes, so it has no level."""
