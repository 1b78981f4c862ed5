"""Exception hierarchy shared across the package."""


class CkkmsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CkkmsError):
    """Input outside the mathematical domain of an operation."""


class DimensionError(CkkmsError):
    """Mismatched or out-of-range dimensions."""


class ResourceLimitError(CkkmsError):
    """A configured size cap (dimension, enumeration, degree) was exceeded."""


class NumericalFailureError(CkkmsError):
    """An iterative procedure failed to converge within its iteration cap."""


class PreconditionError(CkkmsError):
    """A documented precondition of an operation does not hold."""


class InvalidScalarError(CkkmsError):
    """A scalar value violates its representation invariants."""


class MembershipRejected(PreconditionError):
    """Parameter vector rejected by a spectral membership test: it is not
    on the KMS manifold.

    Carries the computed spectral-radius enclosure as evidence.
    """

    def __init__(self, message: str, enclosure=None):
        super().__init__(message)
        self.enclosure = enclosure
