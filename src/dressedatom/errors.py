"""Exception types shared across the package."""


class DressedAtomError(Exception):
    """Base class for all package errors."""


class ValidationError(DressedAtomError):
    """A configuration value violates a declared invariant."""


class ParseError(DressedAtomError):
    """A config document could not be parsed; carries key context."""


class DomainError(DressedAtomError):
    """Argument outside the mathematical domain of a special function."""


class StepTooLarge(DressedAtomError):
    """Integrator step exceeds the enforced resolution bound."""


class InsufficientSpan(DressedAtomError):
    """A propagation does not cover enough oscillation periods."""


class UnknownAxis(DressedAtomError):
    """Sweep axis does not name a numeric config field."""
