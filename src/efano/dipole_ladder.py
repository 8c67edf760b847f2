"""Bound-state ladder of a supercritical inverse-square attraction.

A potential -a/(2 r^2) with coupling a > 1/4 binds an infinite tower of
s-wave states whose wave numbers satisfy

    alpha * ln(scale / kappa) - arg Gamma(1 - i*alpha) = (n + 1/2) * pi,

with alpha = sqrt(a - 1/4) and n = 0, 1, 2, ...  Units are hbar = m = 1,
so a state with wave number kappa has energy epsilon = -kappa**2 / 2.
Successive energies form an exact geometric sequence with ratio
exp(-2*pi/alpha): the anomalous scaling that replaces the usual
power-law level spacing once the coupling passes critical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, SubcriticalStrengthError, require_finite, require_positive
from .numkit import log_gamma

__all__ = [
    "CRITICAL_STRENGTH",
    "alpha_from_strength",
    "arg_gamma_term",
    "kappa_n",
    "ladder_residual",
    "LadderEntry",
    "BoundLadder",
    "build_ladder",
    "geometric_energies",
]

CRITICAL_STRENGTH = 0.25

_TINY = sys.float_info.min  # the smallest positive normal float


def alpha_from_strength(strength_a: float) -> float:
    """Map the coupling a to alpha = sqrt(a - 1/4).

    Raises SubcriticalStrengthError for a <= 1/4, where the attraction
    is too weak to produce the infinite ladder.
    """
    require_finite("coupling", strength_a)
    if strength_a <= CRITICAL_STRENGTH:
        raise SubcriticalStrengthError(
            f"coupling a = {strength_a!r} is at or below the critical value "
            f"{CRITICAL_STRENGTH}; no bound ladder exists"
        )
    return math.sqrt(strength_a - CRITICAL_STRENGTH)


def arg_gamma_term(alpha: float) -> float:
    """arg Gamma(1 - i*alpha) on the branch continuous in alpha from 0."""
    require_positive("alpha", alpha)
    return log_gamma(complex(1.0, -alpha)).imag


def kappa_n(alpha: float, n: int, *, scale: float = 2.0) -> float:
    """Wave number of the n-th ladder state, n = 0 being the deepest.

    Closed-form inversion of the quantization condition:

        kappa_n = scale * exp(-((n + 1/2)*pi + arg Gamma(1 - i*alpha)) / alpha)

    The scale keyword sets the inverse-length prefactor; the default 2.0
    matches the hbar = m = 1 convention used throughout this module.
    A kappa that overflows to inf or underflows to 0 raises DomainError;
    a subnormal one is returned.
    """
    kappa = _kappa(alpha, _checked_arg_gamma(alpha, n, scale, "level index"), n, scale)
    if not 0.0 < kappa < math.inf:
        raise DomainError(
            f"level {n} wave number at scale {scale!r} is {kappa!r}: "
            "it leaves the float range"
        )
    return kappa


def _checked_arg_gamma(alpha: float, n: int, scale: float, n_name: str) -> float:
    """arg Gamma(1 - i*alpha), once alpha, the index n (named n_name) and scale are checked."""
    arg_gamma = arg_gamma_term(alpha)
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"{n_name} must be a nonnegative int, got {n!r}")
    require_positive("scale", scale)
    return arg_gamma


def _kappa(alpha: float, arg_gamma: float, n: int, scale: float) -> float:
    if math.isinf(arg_gamma):
        # Past alpha ~ 3e305 arg Gamma overflows, but Stirling gives
        # -arg Gamma / alpha = ln(alpha) - 1 + pi/(4 alpha), the last
        # term far below rounding.
        x = math.log(alpha) - 1.0 - (n + 0.5) * math.pi / alpha
    else:
        x = -((n + 0.5) * math.pi + arg_gamma) / alpha
    return _scaled_exp(scale, x)


def _scaled_exp(c: float, x: float) -> float:
    """c * exp(x), which may be normal where exp(x) alone is subnormal
    or zero; exp(x) is then taken as two normal halves."""
    e = math.exp(x)
    if e < _TINY:
        half = math.exp(0.5 * x)
        return c * half * half
    return c * e


def ladder_residual(alpha: float, kappa: float, n: int, *, scale: float = 2.0) -> float:
    """Quantization-condition residual for a candidate wave number.

    Returns alpha*ln(scale/kappa) - arg Gamma(1 - i*alpha) - (n + 1/2)*pi,
    which vanishes exactly when kappa is the n-th ladder root.  Past
    alpha ~ 3e305, where arg Gamma overflows, it is taken by Stirling.
    """
    arg_gamma = _checked_arg_gamma(alpha, n, scale, "level index")
    require_positive("kappa", kappa)
    ratio = scale / kappa
    # A ratio that underflows to 0 or overflows takes its log by parts.
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(scale) - math.log(kappa)
    if math.isinf(arg_gamma):
        # Both terms may overflow, though they nearly cancel.  Stirling gives
        # -arg Gamma = alpha*(ln(alpha) - 1) + pi/4, the pi/4 far below rounding.
        return alpha * (log_ratio + math.log(alpha) - 1.0) - (n + 0.5) * math.pi
    return alpha * log_ratio - arg_gamma - (n + 0.5) * math.pi


@dataclass(frozen=True)
class LadderEntry:
    n: int
    kappa: float
    epsilon: float


@dataclass(frozen=True)
class BoundLadder:
    """Ladder states for one coupling, deepest first.

    truncated_at is the first level index whose energy magnitude fell
    below the smallest positive normal float and was therefore omitted;
    None means every requested level is present.
    """

    alpha: float
    scale: float
    entries: tuple[LadderEntry, ...]
    truncated_at: int | None = None

    @property
    def energy_ratio(self) -> float:
        """Theoretical ratio epsilon_{n+1} / epsilon_n = exp(-2*pi/alpha)."""
        return math.exp(-2.0 * math.pi / self.alpha)


def _level_error(n: int, energy: float, prev: float) -> DomainError:
    """DomainError for level n, whose energy is not finite or not strictly
    shallower than prev, the level before it: the ladder's geometric ratio
    no longer survives rounding, so no faithful tower exists."""
    if not math.isfinite(energy):
        return DomainError(f"level {n} energy {energy!r} is not finite")
    return DomainError(
        f"level {n} energy {energy!r} is not shallower than level "
        f"{n - 1} energy {prev!r}; the ladder ratio rounds to 1"
    )


def build_ladder(alpha: float, n_max: int, *, scale: float = 2.0) -> BoundLadder:
    """Levels n = 0 .. n_max, truncated before energies go subnormal.

    Each kappa comes from the closed form in kappa_n, with arg Gamma
    computed once per ladder, so consecutive energies keep the
    geometric ratio exp(-2*pi/alpha) to rounding level.  The ladder stops
    before its first subnormal or zero energy, reported as truncated_at,
    and evaluates no level past it.  An energy that is not finite, or not
    strictly shallower than the level before it, raises DomainError.
    """
    arg_gamma = _checked_arg_gamma(alpha, n_max, scale, "n_max")
    entries = []
    prev = -math.inf
    for n in range(n_max + 1):
        kappa = _kappa(alpha, arg_gamma, n, scale)
        epsilon = -0.5 * kappa * kappa
        if abs(epsilon) < _TINY:
            return BoundLadder(alpha, scale, tuple(entries), n)
        if not prev < epsilon < math.inf:
            raise _level_error(n, epsilon, prev)
        entries.append(LadderEntry(n, kappa, epsilon))
        prev = epsilon
    return BoundLadder(alpha, scale, tuple(entries))


def geometric_energies(ground_energy: float, alpha: float, count: int) -> list[float]:
    """Geometric tower ground_energy * exp(-2*n*pi/alpha), n = 0 .. count-1.

    ground_energy must be negative (a binding energy) and count a
    nonnegative int.  The tower stops before its first subnormal or
    zero energy, so it can hold fewer than count levels, and evaluates no
    level past it; an energy that is not finite, or not strictly shallower
    than the level before it, raises DomainError, as in build_ladder.
    """
    require_positive("alpha", alpha)
    if not (math.isfinite(ground_energy) and ground_energy < 0.0):
        raise DomainError(
            f"ground energy must be finite and negative, got {ground_energy!r}"
        )
    if not isinstance(count, int) or count < 0:
        raise DomainError(f"count must be a nonnegative int, got {count!r}")
    # Below alpha ~ 3.5e-308 the step would be -inf, and level 0
    # exp(-inf * 0) = nan; the float maximum keeps level 0 the ground.
    step = max(-2.0 * math.pi / alpha, -sys.float_info.max)
    energies = []
    prev = -math.inf
    for n in range(count):
        energy = _scaled_exp(ground_energy, step * n)
        if abs(energy) < _TINY:
            break
        if not prev < energy < math.inf:
            raise _level_error(n, energy, prev)
        energies.append(energy)
        prev = energy
    return energies
