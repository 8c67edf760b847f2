"""Numerical kernels: complex log-gamma, bracketing root finder,
and a reproducible Gaussian deviate source.

These are deliberately self-contained so the physics modules above them
have no dependencies beyond numpy, and so their behavior is identical on
every platform that rounds IEEE-754 doubles correctly.
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


def _lanczos_right(z: complex) -> complex:
    # Valid for Re(z) >= 0.5 only; callers shift into this half-plane.
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


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
    w = z
    while w.real < 0.5:
        shift += cmath.log(w)
        w += 1.0
    return _lanczos_right(w) - shift


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    *,
    max_iter: int = 200,
) -> float:
    """Locate a root of f in [lo, hi] by Brent's method.

    Requires lo <= hi, tol > 0, and f(lo) * f(hi) <= 0.  An endpoint
    where f vanishes exactly is returned as the root.  Convergence is
    declared when the bracket width falls below tol plus a few ulp of
    the iterate, so a tol at rounding level still terminates.

    Raises NoBracketError when the endpoint values do not straddle a
    sign change (a NaN value never does) and ConvergenceError when
    max_iter iterations pass without the bracket collapsing.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo <= hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise NoBracketError(
            f"f({lo!r}) = {fa!r} and f({hi!r}) = {fb!r} do not straddle zero"
        )

    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    eps = math.ulp(1.0)
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = f(b)
    raise ConvergenceError(
        f"root finder did not converge within {max_iter} iterations"
    )


# SplitMix64 increment and mixing constants (Steele, Lea and Flood's
# published parameters).  Chosen over a library generator so the exact
# deviate stream is pinned by this file alone and golden outputs stay
# byte-stable across library upgrades.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF

# u and v are odd multiples of 2**-53, so s >= 2**-105 and no unit
# deviate exceeds |u|*m <= sqrt(-2 log s) ~ 12.07: a sigma up to the
# float maximum / 16 keeps every deviate finite.
_SIGMA_MAX = sys.float_info.max / 16.0


def _unit_open(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64 outputs start+1 .. start+count, mapped to (0, 1).

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
    # Take 53 bits, then offset by half an ulp so 0.0 is never produced
    # (the polar method divides by it).
    x = (z >> np.uint64(11)).astype(np.float64)
    x *= 1.0 / (1 << 53)
    x += 0.5 / (1 << 53)
    return x


def seeded_gaussian_noise(seed: int, n: int, sigma: float) -> np.ndarray:
    """Return a float64 array of n independent N(0, sigma^2) deviates.

    The stream is SplitMix64 feeding the Marsaglia polar transform,
    both fixed published algorithms using only +, *, sqrt and log, so
    the same seed yields bit-identical output on every platform and
    library version.  Equal seeds give equal streams; sigma scales the
    unit stream exactly.  sigma may be at most the float maximum / 16,
    which keeps every deviate finite.

    SplitMix64 is counter-based: its k-th output (k = 1, 2, ...) mixes
    the state seed + k*0x9E3779B97F4A7C15 mod 2^64, with the seed taken
    mod 2^64.  Consecutive outputs form (u, v) pairs on (-1, 1); a pair
    is accepted when s = u*u + v*v lies in (0, 1), and gives the two
    deviates sigma*(u*m) and sigma*(v*m), m = sqrt(-2 log(s) / s), in
    that order; an odd n drops the last v.  The pairs are drawn in
    blocks of the stream and screened with a mask, keeping their order.
    log(s) is taken with math.log on the accepted values: numpy's
    vectorised log is not correctly rounded and would change the last
    bit of some deviates.
    """
    if not isinstance(seed, int):
        raise DomainError(f"seed must be an int, got {type(seed).__name__}")
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"sample count must be a nonnegative int, got {n!r}")
    if not 0.0 <= sigma <= _SIGMA_MAX:
        raise DomainError(f"sigma must lie in [0, {_SIGMA_MAX!r}], got {sigma!r}")
    if n == 0:
        return np.empty(0)
    seed &= _U64
    uv_blocks: list[np.ndarray] = []
    s_blocks: list[np.ndarray] = []
    left = (n + 1) // 2
    drawn = 0
    while left > 0:
        # About pi/4 of the pairs are accepted; a third more than needed
        # plus a few rarely falls short, and a short block is topped up.
        size = left + left // 3 + 16
        uv = _unit_open(seed, drawn, 2 * size).reshape(size, 2)
        drawn += 2 * size
        uv *= 2.0
        uv -= 1.0
        u, v = uv[:, 0], uv[:, 1]
        s = u * u + v * v
        keep = np.flatnonzero((s < 1.0) & (s != 0.0))[:left]
        uv_blocks.append(uv[keep])
        s_blocks.append(s[keep])
        left -= keep.size
    uv = np.concatenate(uv_blocks)
    s = np.concatenate(s_blocks)
    log_s = np.fromiter(map(math.log, s.tolist()), np.float64, s.size)
    m = np.sqrt(-2.0 * log_s / s)
    out = sigma * (uv * m[:, None])
    return out.ravel()[:n]
