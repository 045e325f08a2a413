"""Shared exception types, the default work budget and its error text."""

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
    """A computation exceeded the configured work budget."""


def over_budget(layer: str, place, s: int, work: str,
                budget: int) -> BudgetExceededError:
    """The error of a local count at `place` and level `s` whose `work`
    passed `budget`, named for the `layer` that asked for it."""
    return BudgetExceededError(f"{layer}: place {place.label!r}, s = {s}: "
                               f"{work} exceed budget of {budget}")
