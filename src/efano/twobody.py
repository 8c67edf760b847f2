"""Attractive spherical square well: scattering length, shallowest bound
state, and depth tuning.

The well is V(r) = -V0 for r < Rw and 0 outside, treated at zero angular
momentum with hbar = 1.  All formulas depend on the dimensionless
strength x0 = k0 * Rw with k0 = sqrt(2 * mu * V0), so any consistent
unit system works; reduced_mass_mu must be expressed so that
2 * mu * V0 has units of inverse length squared (for V0 in MeV and Rw
in fm that means mu = m c^2 / (hbar c)^2).

The s-wave scattering length is a = Rw * (1 - tan(x0)/x0).  It diverges
at x0 = pi/2, 3*pi/2, ..., where a new bound state crosses threshold,
and sweeps the full real line once per unit interval of x0/pi: the
handle this module exposes for dialing a to any prescribed value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DomainError, NoBracketError, UnreachableTargetError
from .errors import require_positive
from .numkit import find_root

__all__ = [
    "DEFAULT_UNITARITY_TOL",
    "SquareWell",
    "ScatteringLengthResult",
    "scattering_length",
    "binding_energy",
    "tune_to_scattering_length",
]

DEFAULT_UNITARITY_TOL = 1e-12

# Beyond 2**52 consecutive floats lie at least 1 apart, so tan(x0) and
# floor(x0/pi) no longer say anything about the well.
_X0_MAX = 2.0**52


@dataclass(frozen=True)
class SquareWell:
    """Geometry and depth of one attractive square well."""

    depth_V0: float
    range_Rw: float
    reduced_mass_mu: float

    def __post_init__(self) -> None:
        for name in ("depth_V0", "range_Rw", "reduced_mass_mu"):
            require_positive(name, getattr(self, name))

    @property
    def k0(self) -> float:
        """Interior wave number sqrt(2 * mu * V0) at zero energy."""
        return math.sqrt(2.0 * self.reduced_mass_mu * self.depth_V0)

    @property
    def x0(self) -> float:
        """Dimensionless well strength k0 * Rw."""
        return self.k0 * self.range_Rw


@dataclass(frozen=True)
class ScatteringLengthResult:
    """Scattering length plus the bookkeeping around its divergences.

    a is None exactly when unitary is True, meaning x0 sits within the
    unitarity tolerance of an odd multiple of pi/2 where |a| -> inf.
    """

    a: float | None
    unitary: bool
    bound_state_count: int


def _s(x: float) -> float:
    # S(x) = (sin x - x cos x)/x for x < 1, where that form cancels as
    # x -> 0: summed from its series x^2/3 - x^4/30 + ..., whose k-th
    # term is (-1)^(k+1) * 2k * x^(2k) / (2k+1)!.
    x2 = x * x
    term = x2 / 3.0
    s = 0.0
    k = 1
    while s + term != s:
        s += term
        term *= -x2 * (k + 1) / (k * (2 * k + 2) * (2 * k + 3))
        k += 1
    return s


def _a_of_x(x: float, range_rw: float) -> float:
    if x >= 1.0:
        return range_rw * (1.0 - math.tan(x) / x)
    # 1 - tan(x)/x cancels as x -> 0.  It equals -S(x)/cos x.
    return -range_rw * _s(x) / math.cos(x)


def _bound_count(x0: float) -> int:
    return max(0, math.floor(x0 / math.pi + 0.5))


def _strength(well: SquareWell) -> float:
    """x0 of a well whose scattering is representable in floats."""
    x0 = well.x0
    if not 0.0 < x0 <= _X0_MAX:
        raise DomainError(
            f"well strength x0 = sqrt(2*mu*V0)*Rw = {x0!r} lies outside (0, 2**52]"
        )
    return x0


def scattering_length(
    well: SquareWell, *, unitarity_tol: float = DEFAULT_UNITARITY_TOL
) -> ScatteringLengthResult:
    """s-wave scattering length a = Rw * (1 - tan(x0)/x0).

    Within unitarity_tol of a divergence (|cos x0| below the tolerance)
    the result is flagged unitary and a is None instead of a huge,
    sign-ambiguous float.  bound_state_count = floor(x0/pi + 1/2) counts
    the s-wave bound states the well supports: it steps up by one at
    each divergence, where a returns from -inf to +inf.  A well whose x0
    underflows to 0 or exceeds 2**52 raises DomainError.
    """
    if not (math.isfinite(unitarity_tol) and unitarity_tol >= 0.0):
        raise DomainError(f"unitarity_tol must be nonnegative, got {unitarity_tol!r}")
    x0 = _strength(well)
    count = _bound_count(x0)
    if abs(math.cos(x0)) < unitarity_tol:
        return ScatteringLengthResult(a=None, unitary=True, bound_state_count=count)
    return ScatteringLengthResult(
        a=_a_of_x(x0, well.range_Rw), unitary=False, bound_state_count=count
    )


def _solve(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] to rounding level (find_root's 2-ulp floor).

    When f(lo) and f(hi) do not straddle a sign change (a NaN never
    does) the endpoint with the smaller |f| stands in for the root;
    callers judge the result by their own accuracy test.
    """
    try:
        return find_root(f, lo, hi, sys.float_info.min)
    except NoBracketError:
        return lo if abs(f(lo)) <= abs(f(hi)) else hi


def binding_energy(well: SquareWell) -> float | None:
    """Energy of the shallowest bound state, or None if there is none.

    With y = kappa * Rw and x' = sqrt(x0^2 - y^2) the interior wave
    number, the even-parity matching condition x' * cot(x') = -y reads
    x' cos x' + y sin x' = 0, which has no pole.  For a well holding M
    states the outermost root has x' in ((M - 1/2)*pi, min(x0, M*pi)),
    which maps to a closed-form bracket in y.  Solving for y itself
    keeps the relative accuracy of epsilon = -y^2 / (2 * mu * Rw^2) as
    the state becomes weakly bound, where |epsilon| tends to the
    universal value 1/(2 * mu * a^2).
    """
    x0 = _strength(well)
    m = _bound_count(x0)
    if m == 0:
        return None

    def other(u: float) -> float:
        # x'^2 + y^2 = x0^2 maps x' to y and y to x' alike.
        return math.sqrt(max((x0 - u) * (x0 + u), 0.0))

    def matching(y: float) -> float:
        xp = other(y)
        return xp * math.cos(xp) + y * math.sin(xp)

    y = _solve(matching, other(min(x0, m * math.pi)), other((m - 0.5) * math.pi))
    return -y * y / (2.0 * well.reduced_mass_mu * well.range_Rw**2)


def tune_to_scattering_length(
    template: SquareWell, target_a: float, branch: int = 0
) -> SquareWell:
    """Return a copy of template with V0 adjusted so a equals target_a.

    branch m selects the m-th interval x0 in (m*pi, (m+1)*pi), which
    contains the divergence at (m + 1/2)*pi and sweeps a over every
    value it can reach there: all of (-inf, Rw) on the rising side for
    m >= 1 (only negative values for m = 0, where the well has no bound
    state yet) and [Rw, +inf) on the far side of the divergence.  The
    tuned well holds m bound states when the target lies below Rw and
    m + 1 when it lies at or above Rw.

    Raises UnreachableTargetError when target_a cannot occur on the
    requested branch (zero, non-finite, or 0 < target_a < Rw with
    branch 0), DomainError when target_a/Rw or 2*mu*Rw^2 underflows to
    zero or overflows, or is so small or large that the depth leaves
    the float range, and ConvergenceError if the tuned depth is
    subnormal or fails to reproduce target_a to 1e-9 relative, as
    happens once the target is too large for any float64 depth to
    represent.
    """
    if not isinstance(branch, int) or branch < 0:
        raise DomainError(f"branch must be a nonnegative int, got {branch!r}")
    if not math.isfinite(target_a) or target_a == 0.0:
        raise UnreachableTargetError(
            f"target scattering length must be finite and nonzero, got {target_a!r}"
        )
    rw = template.range_Rw
    x0_sq_per_depth = 2.0 * template.reduced_mass_mu * rw * rw
    if x0_sq_per_depth == 0.0:
        raise DomainError(
            f"2*mu*Rw^2 underflows to zero for mu = {template.reduced_mass_mu!r}, "
            f"Rw = {rw!r}; no depth can be tuned"
        )
    if branch == 0 and 0.0 < target_a < rw:
        raise UnreachableTargetError(
            f"branch 0 reaches no scattering length in (0, Rw); "
            f"got target {target_a!r} with Rw = {rw!r}"
        )
    pole = (branch + 0.5) * math.pi
    if target_a >= rw:
        # Falling side: a sweeps +inf down to Rw at (branch+1)*pi; the
        # end sits slightly past it so that a == Rw is bracketed too.
        lo, hi = pole, (branch + 1) * math.pi + 1e-6
    else:
        # Rising side: a sweeps Rw (0 on branch 0) down to -inf.  Branch 0
        # starts as a ~ -Rw*x^2/3, so its root lies below 2*sqrt(3|a|/Rw).
        lo, hi = branch * math.pi, pole
        if branch == 0:
            hi = min(pole, 2.0 * math.sqrt(-3.0 * target_a / rw))

    # a(x) = target  <=>  h(x) = sin x - (1 - t) * x * cos x = 0 with
    # t = target/Rw, which is a(x) - target times -x cos x / Rw: the same
    # roots, no pole.  h cancels as x -> 0, so below x = 1 the solve
    # takes h(x)/x = S(x) + t * cos x instead.
    t = target_a / rw
    if t == 0.0 or not math.isfinite(t):
        raise DomainError(
            f"target/Rw = {target_a!r}/{rw!r} = {t!r} leaves the float range; "
            f"no depth can be tuned"
        )
    c = 1.0 - t

    def h(x: float) -> float:
        if x < 1.0:
            return _s(x) + t * math.cos(x)
        return math.sin(x) - c * x * math.cos(x)

    x = _solve(h, lo, hi)

    # Newton polish on a(x) itself, whose derivative is -Rw*(x - sin x
    # cos x) / (x*cos x)^2: the root of h need not be the float x whose
    # a(x) lies closest to the target.
    for _ in range(3):
        resid = _a_of_x(x, rw) - target_a
        if abs(resid) <= 1e-12 * abs(target_a):
            break
        cx = math.cos(x)
        slope = -rw * (x - math.sin(x) * cx) / (x * x * cx * cx)
        if slope == 0.0:
            break
        step = resid / slope
        if not lo <= x - step <= hi:
            break
        x -= step

    depth = x * x / x0_sq_per_depth
    if not (math.isfinite(depth) and depth > 0.0):
        raise DomainError(
            f"2*mu*Rw^2 = {x0_sq_per_depth!r} for mu = {template.reduced_mass_mu!r}, "
            f"Rw = {rw!r} gives the depth x0^2/(2*mu*Rw^2) = {depth!r} at "
            f"x0 = {x!r}, outside the positive floats; no depth can be tuned"
        )
    if depth < sys.float_info.min:
        raise ConvergenceError(
            f"the depth tuned to target {target_a!r} on branch {branch} would be "
            f"the subnormal float {depth!r}, below {sys.float_info.min!r}; "
            f"no normal float64 depth reaches this target"
        )
    tuned = replace(template, depth_V0=depth)
    achieved = _a_of_x(_strength(tuned), rw)
    if abs(achieved - target_a) > 1e-9 * abs(target_a):
        raise ConvergenceError(
            f"depth solve reached a = {achieved!r} for target {target_a!r} "
            f"on branch {branch}, outside 1e-9 relative: a(x0) has a relative "
            f"condition number of ~|a|*x0^2/Rw = {abs(target_a) * x * x / rw:.3g}, "
            f"so the target is not representable with a float64 depth"
        )
    return tuned
