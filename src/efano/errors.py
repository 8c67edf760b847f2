"""Exception types shared across the package.

Everything raised on purpose derives from ToolkitError so callers can
catch package-level failures with one handler while still telling
domain violations apart from iteration failures.
"""

import math


class ToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(ToolkitError, ValueError):
    """An input lies outside the documented domain of an operation."""


class GammaPoleError(DomainError):
    """The log-gamma function was evaluated at a nonpositive integer."""


class SubcriticalStrengthError(DomainError):
    """Dipole coupling at or below the critical value 1/4.

    Below the critical strength the inverse-square attraction supports
    no infinite bound ladder, so ladder construction is meaningless.
    """


class NoBracketError(ToolkitError, ValueError):
    """Root-finder endpoints do not straddle a sign change."""


class ConvergenceError(ToolkitError, RuntimeError):
    """An iterative solve stopped at its iteration cap without converging."""


class UnreachableTargetError(DomainError):
    """A requested scattering length cannot occur on the requested branch."""


class DegenerateCurveError(DomainError):
    """A cross-section curve lacks the structure needed to seed a fit."""


def require_finite(name: str, value: float) -> None:
    """Raise DomainError naming the argument unless value is finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def require_positive(name: str, value: float) -> None:
    """Raise DomainError naming the argument unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
