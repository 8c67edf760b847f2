"""Numerical kernels: complex log-gamma, a safeguarded Newton root
finder, and a reproducible Gaussian deviate source.

These are deliberately self-contained so the physics modules above them
have no dependencies beyond numpy.  Their bits are the same on every
IEEE-754 platform whose C library log returns the same values: IEEE 754
does not require log to be correctly rounded, and glibc 2.36 misrounds
0.078% of the noise stream's logs.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, GammaPoleError, NoBracketError

__all__ = ["log_gamma", "find_root", "seeded_gaussian_noise"]


# Lanczos approximation, g = 7, 9 coefficients.  Accurate to a few ulp
# for Re(z) >= 0.5; the recurrence shift below extends it to the rest of
# the plane while keeping the imaginary part continuous off the cut.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# The shift into Re(w) >= 0.5 takes one step per unit of |Re(z)|, so its
# time grows linearly, and past 2**53 a step no longer moves w.  This
# bound keeps a call to ~2**16 steps, a few tens of ms.
_MIN_REAL = -(2.0**16 + 1.0)


def log_gamma(z: complex | float) -> complex:
    """Principal branch of log Gamma(z) for complex z.

    Returns the analytic continuation from the positive real axis, so
    the imaginary part varies continuously along paths that avoid the
    cut on the nonpositive real axis; it is not reduced mod 2*pi.
    Conjugate symmetry log_gamma(conj(z)) == conj(log_gamma(z)) holds
    exactly because every intermediate operation commutes with
    conjugation in IEEE arithmetic.

    Raises GammaPoleError at the poles z = 0, -1, -2, ... and
    DomainError for non-finite input or for Re(z) < -(2**16 + 1).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"log_gamma requires finite input, got {z!r}")
    if z.real < _MIN_REAL:
        raise DomainError(f"log_gamma requires Re(z) >= -(2**16 + 1), got {z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise GammaPoleError(f"log_gamma pole at z = {z.real!r}")
    # Shift left-half-plane arguments right with log Gamma(z) =
    # log Gamma(z+1) - log z, which is analytic off the cut and
    # preserves the principal branch (no sin-reflection needed, so no
    # branch bookkeeping for the log of an oscillating factor).
    shift = 0 + 0j
    while z.real < 0.5:
        shift += cmath.log(z)
        z += 1.0
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc) - shift


def find_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    tol: float,
    *,
    max_iter: int = 200,
) -> float:
    """Root of f in [lo, hi] by Newton's method safeguarded by bisection
    ("rtsafe", Numerical Recipes 3rd ed., section 9.4).

    f(x) returns (value, slope).  Requires lo <= hi, tol > 0 and
    f(lo) * f(hi) <= 0; an endpoint where f vanishes is returned as is.
    The first iterate is the false-position point of the endpoints.  A
    Newton step that would leave the bracket, would not halve the step
    before the last, or meets a zero or non-finite slope is replaced by
    bisection.  The solve stops once the step falls below tol/2 plus
    2 ulp(1) times the iterate, so a tol at rounding level terminates; a
    collapsed bracket returns its end with the smaller |f|.

    Raises NoBracketError when the endpoint values do not straddle a
    sign change (a NaN value never does) and ConvergenceError after
    max_iter evaluations past the endpoints.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo <= hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    fa, fb = f(lo)[0], f(hi)[0]
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise NoBracketError(
            f"f({lo!r}) = {fa!r} and f({hi!r}) = {fb!r} do not straddle zero"
        )

    # The bracket [a, b] keeps fa = f(a) on the sign of f(lo), and fb = f(b).
    a, b = lo, hi
    x = lo + fa / (fa - fb) * (hi - lo)
    if not a < x < b:
        # hi - lo overflowed, or fa / (fa - fb) rounded onto an end.
        x = 0.5 * a + 0.5 * b
    dx = dx_old = b - a
    eps = math.ulp(1.0)
    for _ in range(max_iter):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        tol1 = 2.0 * eps * abs(x) + 0.5 * tol
        if slope != 0.0 and math.isfinite(slope):
            newton = fx / slope
            if abs(newton) <= tol1:
                return min(max(x - newton, a), b)
            if a < x - newton < b and abs(newton) <= 0.5 * abs(dx_old):
                dx_old, dx = dx, newton
                x -= newton
                continue
        dx_old, dx = dx, 0.5 * b - 0.5 * a
        if dx <= tol1:
            return a if abs(fa) <= abs(fb) else b
        x = a + dx
    raise ConvergenceError(f"root finder did not converge within {max_iter} iterations")


# SplitMix64 increment and mixing constants (Steele, Lea and Flood's
# published parameters).  Chosen over a library generator so the exact
# deviate stream is pinned by this file alone and golden outputs stay
# byte-stable across library upgrades.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF

# A nonzero u or v is at least 2**-53 in magnitude, so an accepted
# s >= 2**-106 (reached with u = 0) and no unit deviate exceeds
# |u|*m <= sqrt(-2 log s) <= sqrt(212 log 2) ~ 12.12: a sigma up to the
# float maximum / 16 keeps every deviate finite.
_SIGMA_MAX = sys.float_info.max / 16.0

# The noise stream, and synthesize after it, work on at most this many
# values at a time, so their scratch stays a few 64 KB arrays whatever
# the length of the output.
_BLOCK = 8192


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int):
        raise DomainError(f"seed must be an int, got {type(seed).__name__}")


def _unit_open(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64 outputs start+1 .. start+count, mapped to (0, 1].

    Below 0.5 each value is an odd multiple of 2**-54; from 0.5 up the
    half-ulp offset is a tie that rounds to even, so 0.5 and 1.0 occur.
    uint64 arrays wrap on overflow, which gives the states' mod 2^64.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _SM64_GAMMA
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _SM64_MIX1
    z ^= z >> np.uint64(27)
    z *= _SM64_MIX2
    z ^= z >> np.uint64(31)
    # Take 53 bits, then offset by 2**-54 so 0.0 is never produced.
    x = (z >> np.uint64(11)).astype(np.float64)
    x *= 1.0 / (1 << 53)
    x += 0.5 / (1 << 53)
    return x


def seeded_gaussian_noise(seed: int, n: int, sigma: float) -> np.ndarray:
    """Return a float64 array of n independent N(0, sigma^2) deviates.

    The stream is SplitMix64 feeding the Marsaglia polar transform,
    both fixed published algorithms using only +, *, sqrt and log, so
    the same seed yields bit-identical output wherever math.log returns
    the same values (glibc 2.36 misrounds 0.078% of the accepted s).
    Equal seeds give equal streams; sigma scales the unit stream exactly.
    sigma may be at most the float maximum / 16, which keeps every
    deviate finite.

    SplitMix64 is counter-based: its k-th output (k = 1, 2, ...) mixes
    the state seed + k*0x9E3779B97F4A7C15 mod 2^64, with the seed taken
    mod 2^64.  Consecutive outputs form (u, v) pairs on (-1, 1], where
    0.0 and 1.0 occur; a pair is accepted when s = u*u + v*v lies in
    (0, 1), which excludes u = v = 0, and gives the two
    deviates sigma*(u*m) and sigma*(v*m), m = sqrt(-2 log(s) / s), in
    that order; an odd n drops the last v.  The output is the first
    ceil(n/2) accepted pairs, so it does not depend on how the stream
    is split: pairs are drawn in blocks of at most _BLOCK // 2, and
    each block's accepted pairs are written straight into the output,
    in order.  log(s) is taken with math.log on the accepted values:
    numpy's vectorised log differs from it in the last bit on some.
    """
    _check_seed(seed)
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"sample count must be a nonnegative int, got {n!r}")
    if not 0.0 <= sigma <= _SIGMA_MAX:
        raise DomainError(f"sigma must lie in [0, {_SIGMA_MAX!r}], got {sigma!r}")
    seed &= _U64
    out = np.empty(((n + 1) // 2, 2))
    done = 0
    drawn = 0
    while done < len(out):
        # About pi/4 of the pairs are accepted; a third more than needed
        # plus a few rarely falls short, and a short block is topped up.
        left = len(out) - done
        size = min(left + left // 3 + 16, _BLOCK // 2)
        uv = _unit_open(seed, drawn, 2 * size).reshape(size, 2)
        drawn += 2 * size
        uv *= 2.0
        uv -= 1.0
        u, v = uv[:, 0], uv[:, 1]
        s = u * u + v * v
        # s != 0.0 screens out the pair u = v = 0, which can occur.
        keep = np.flatnonzero((s < 1.0) & (s != 0.0))[:left]
        s = s[keep]
        log_s = np.fromiter(map(math.log, memoryview(s)), np.float64, s.size)
        block = out[done : done + keep.size]
        np.take(uv, keep, axis=0, out=block)
        block *= np.sqrt(-2.0 * log_s / s)[:, None]
        done += keep.size
    out *= sigma
    return out.ravel()[:n]
