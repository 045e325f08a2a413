"""Shared exception types and the default work budget."""

DEFAULT_BUDGET = 10 ** 6


class CsaClassError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CsaClassError):
    """An input specification violates a structural invariant."""


class ExtensionNotSupportedError(CsaClassError):
    """Constant field extension degree is incompatible with the infinite place."""


class InvalidDivisorError(CsaClassError):
    """A level parameter s does not divide the required quantity."""


class IntegralityViolationError(CsaClassError):
    """A quantity that must be a non-negative integer is not."""


class NotPrimeDegreeError(CsaClassError):
    """The closed prime-degree formula was requested for composite degree."""


class BudgetExceededError(CsaClassError):
    """An enumeration exceeded the configured work budget."""
