"""Exception types shared across the package."""


class CredalkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CredalkitError, ValueError):
    """An input object violates a construction invariant."""


class SpaceMismatchError(ValidationError):
    """Two values that must share an outcome space do not, or a value that
    must live on a product space does not."""


class SizeGuardError(CredalkitError, RuntimeError):
    """An enumeration would exceed the configured size budget."""


class NotSeparableError(CredalkitError, RuntimeError):
    """Separation was requested for a point that belongs to the set.

    Signals that the conjugate value at the point is zero.
    """
