"""Counting and building the geometric tower of three-body bound states.

When two particles interact with a scattering length |a| much larger
than the interaction range r0, three such particles feel an effective
attractive 1/R^2 potential in the hyperradius R between the scales r0
and |a|, and that window supports approximately ln(|a|/r0)/pi bound
states.  The tower of energies is geometric, epsilon_n =
ground_energy * exp(-2*n*pi/alpha_eff), exactly as for the single-
particle inverse-square ladder, so ladder construction delegates to
dipole_ladder.geometric_energies.

Everything here assumes zero total angular momentum: any centrifugal
barrier overwhelms the shallow 1/R^2 attraction, so no tower exists for
L > 0.  That restriction is a documented assumption of the model, not a
checked input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dipole_ladder import geometric_energies
from .errors import DomainError, require_positive

__all__ = [
    "UNBOUNDED",
    "count_states",
    "EfimovLadder",
    "build_efimov_ladder",
    "ThresholdPartition",
    "classify_states_vs_threshold",
]


class _UnboundedType:
    """Singleton marker for an infinite number of states (|a| -> inf)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unbounded"


UNBOUNDED = _UnboundedType()

# floor() on exact float arithmetic would turn ln(e^(k*pi))/pi into k - 1
# whenever rounding lands a hair below the integer; nudging by 1e-12
# before flooring keeps boundary ratios |a|/r0 = e^(k*pi) on the count-k
# side without affecting any ratio farther than 1e-12 from a boundary.
_BOUNDARY_SNAP = 1e-12


def count_states(a: float, r0: float) -> int | _UnboundedType:
    """Number of three-body states in the window between r0 and |a|.

    Returns max(0, floor(ln(|a|/r0)/pi)).  An infinite scattering
    length (math.inf of either sign) returns the UNBOUNDED marker, the
    resonant limit where the tower never terminates.  |a| <= r0 gives
    0: no window, no states.
    """
    require_positive("r0", r0)
    if math.isnan(a):
        raise DomainError("scattering length must not be NaN")
    if math.isinf(a):
        return UNBOUNDED
    if abs(a) <= r0:
        return 0
    return math.floor((math.log(abs(a)) - math.log(r0)) / math.pi + _BOUNDARY_SNAP)


@dataclass(frozen=True)
class EfimovLadder:
    """Geometric tower of three-body energies, deepest first.

    entries holds (n, energy) pairs with energy = ground_energy *
    exp(-2*n*pi/alpha_eff), strictly increasing toward zero.
    truncated_at is the first level index whose energy went subnormal
    or zero and was therefore omitted; None means every requested level
    is present.
    """

    alpha_eff: float
    ground_energy: float
    entries: tuple[tuple[int, float], ...]
    truncated_at: int | None = None


def build_efimov_ladder(
    alpha_eff: float, ground_energy: float, count: int
) -> EfimovLadder:
    """Tower of count energies below ground_energy's geometric decay.

    alpha_eff is the dimensionless strength index of the effective
    1/R^2 attraction and must be supplied by the caller; for three
    identical bosons the universal value is close to 1.  count >= 1 is
    required: a zero-state window has no ladder to build.
    """
    if not isinstance(count, int) or count < 1:
        raise DomainError(f"count must be an int >= 1, got {count!r}")
    energies = geometric_energies(ground_energy, alpha_eff, count)
    truncated_at = len(energies) if len(energies) < count else None
    return EfimovLadder(alpha_eff, ground_energy, tuple(enumerate(energies)), truncated_at)


@dataclass(frozen=True)
class ThresholdPartition:
    """Ladder entries split by a two-body breakup threshold.

    bound states lie at or below the threshold and are stable;
    embedded states lie between the threshold and zero, sitting inside
    the particle-plus-dimer continuum where they show up as resonances.
    """

    bound: tuple[tuple[int, float], ...]
    embedded: tuple[tuple[int, float], ...]


def classify_states_vs_threshold(
    ladder: EfimovLadder, two_body_threshold: float
) -> ThresholdPartition:
    """Partition a ladder's entries against a two-body binding energy.

    Entries with energy below the threshold cannot decay into a
    particle plus a two-body bound pair; entries above it (but still
    negative) are embedded in that continuum and are the natural
    candidates for asymmetric resonance profiles.  An entry exactly at
    the threshold counts as bound so the partition is total.
    """
    if not (math.isfinite(two_body_threshold) and two_body_threshold < 0.0):
        raise DomainError(
            f"two-body threshold must be finite and negative, got "
            f"{two_body_threshold!r}"
        )
    entries = ladder.entries
    return ThresholdPartition(
        tuple([e for e in entries if e[1] <= two_body_threshold]),
        tuple([e for e in entries if e[1] > two_body_threshold]),
    )
