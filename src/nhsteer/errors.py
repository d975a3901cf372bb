"""Exception types shared across the package."""

import math

__all__ = [
    "NhsteerError",
    "DomainError",
    "CapabilityError",
    "IntegrabilityError",
    "PlannerError",
    "ConvergenceError",
    "AmbiguityError",
    "SingularityError",
    "PlanFileError",
]


class NhsteerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NhsteerError):
    """An evaluation point lies outside the valid domain of an expression."""


def _finite(value: float, what: str, *args) -> float:
    """``value`` if it is finite, else ``DomainError`` naming it as ``what % args``, formatted only then."""
    if math.isfinite(value):
        return value
    raise DomainError(f"{what % args} is not finite: it is {value!r}")


def _finite_ldexp(mantissa: float, exponent: int, what: str, *args) -> float:
    """``_finite(mantissa * 2**exponent)``, exponent <= 2046: two powers of two in range scale it, exact where normal."""
    return _finite(mantissa * 2.0 ** (exponent // 2) * 2.0 ** (exponent - exponent // 2), what, *args)


class CapabilityError(NhsteerError):
    """The request is well-posed but outside what this package supports."""


class IntegrabilityError(NhsteerError):
    """The requested integral diverges (endpoint exponent at or below -1)."""


class PlannerError(NhsteerError):
    """A steering plan cannot be constructed (e.g. zero coupling displacement)."""


class ConvergenceError(NhsteerError):
    """An iterative solver failed to reach its tolerance.

    Carries the best residual norm seen, for diagnostics.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class AmbiguityError(NhsteerError):
    """A rotation logarithm is not unique (rotation angle exactly pi)."""


class SingularityError(NhsteerError):
    """A coefficient function vanishes where the expression divides by it."""


class PlanFileError(NhsteerError, ValueError):
    """A plan file's field is missing or of the wrong JSON type; the message names its path."""
