"""Numerical kernels: complex log-gamma, a safeguarded Newton root
finder, and a reproducible Gaussian deviate source.

These are deliberately self-contained so the physics modules above them
have no dependencies beyond numpy.  Their bits are the same on every
IEEE-754 platform whose C library log returns the same values: IEEE 754
does not require log to be correctly rounded, and glibc 2.36 misrounds
0.078% of the noise stream's logs.  The stream takes each log in numpy
passes where they certify the correctly rounded value at least
1/16 - 2**-7 ulp from a rounding midpoint, which any log erring by less
than 0.5547 ulp also returns (glibc's errs by at most about 0.54), and
calls math.log on the rest, about 1 in 8, and on blocks of fewer than
512 values: on glibc its bits are those of math.log alone.
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

# Fixed-point bits of the log tables below.  Each atanh(1/d) sum keeps
# floor(2**_FIX / d**(2m + 1)) exactly and truncates its division by
# 2m + 1, so every table value is off by less than 2**-116 before its
# rounding to a double-double.
_FIX = 128


def _atanh_inv(d: int) -> int:
    """atanh(1/d) * 2**_FIX for an integer d > 1, rounded down term by term."""
    x = (1 << _FIX) // d
    total, k = 0, 1
    while x:
        total += x // k
        x //= d * d
        k += 2
    return total


def _log_tables() -> tuple[float, float, np.ndarray, np.ndarray]:
    """ln 2 as L_HI + L_LO, with L_HI on a 2**-43 grid, and -log(j/256)
    as T_HI[j] + T_LO[j] for 186 <= j <= 372 (lower entries unused),
    each pair the double-double nearest the fixed-point value:
    ln 2 = 2 atanh(1/3), and -log(j/256) steps from 0 at j = 256 by
    ln(i/(i - 1)) = 2 atanh(1/(2i - 1)).
    """
    one = 1 << _FIX
    ln2 = 2 * _atanh_inv(3)
    l_hi = (ln2 + (one >> 44)) >> (_FIX - 43)
    t = {256: 0}
    for j in range(257, 373):
        t[j] = t[j - 1] - 2 * _atanh_inv(2 * j - 1)
    for j in range(255, 185, -1):
        t[j] = t[j + 1] + 2 * _atanh_inv(2 * j + 1)
    # Python lists, not numpy item assignment, which left the import's
    # peak RSS 168 KB higher.
    hi, lo = [0.0] * 373, [0.0] * 373
    for j, v in t.items():
        h = v / one
        hi[j], lo[j] = h, (v - int(h * one)) / one
    return l_hi / (1 << 43), (ln2 - (l_hi << (_FIX - 43))) / one, np.array(hi), np.array(lo)


_LN2_HI, _LN2_LO, _T_HI, _T_LO = _log_tables()


def _log_fast(s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log s as y + y_lo for normal s in (0, 1), in numpy passes over the
    workspace w of shape (7, >= s.size); y and y_lo are rows of w.  Also
    returns the indices of the y not certified as the correctly rounded
    log s at least 1/16 - 2**-7 ulp from a rounding midpoint.

    Reduction, exact.  With b the bits of s, t = b - bits(0.6875) gives
    k = t >> 52 and z = s * 2**-k in [0.6875, 1.375) from the bits
    b - (t's top 12 bits), so log s = k ln 2 + log z.  j = rint(256/z)
    lies in [186, 372]; invc = j/256 has 9 bits, and the exact
    r = z*invc - 1, |r| < 1.375 * 2**-9 (1 + 2**-43) < 2**-8.5, is a
    multiple of 2**-61 below 2**-8, so a double.  With z_hi the top 26 bits of z,
    z_hi*invc (35 bits) and z_lo*invc (36 bits) are exact, z_hi*invc - 1
    is exact by Sterbenz's lemma, and their sum is r.  Then
    log z = T_j + log1p(r) with T_j = -log(j/256) from the table.

    Sum.  k L_HI is exact for |k| <= 1022, and Fast2Sum of it and T_HI
    is exact (|k L_HI| > 0.69 > |T_HI| unless k = 0), giving K_hi + e;
    K_lo = (T_LO + k L_LO) + e.  Fast2Sum(K_hi, r) -> hi + e1 is exact
    too: K_hi = 0 (k = 0, j = 256) or |K_hi| >= log(257/256) > |r|.
    q = r**3 P(r) - r**2/2, with P(r) = 1/3 - r/4 + ... - r**5/8 so
    that r + q is Taylor's log1p(r) to r**8; lo = (e1 + K_lo) + q; and
    Fast2Sum(hi, lo) -> y + y_lo = hi + lo exactly.

    Bound: |y + y_lo - log s| < 2**-61.3 |log s|.  With u = 2**-53 the
    error of hi + lo is at most the sum of
      - the series tail, |r|**9 / (9 (1 - |r|));
      - fl(r*r)/2 and the roundings of q and of lo: u r**2/2 and u|q|
        each, |q| < 0.501 r**2, with |lo| <= |q| + |e1| + |K_lo|;
      - the roundings in r**3 P(r), below 3u |r|**3;
      - the table, below 2**-108 + 2**-116; k times ln 2's, with the
        rounding of k L_LO, below |k| 2**-96; and the two roundings of
        K_lo and that of e1 + K_lo, each below u (2**-54 + |k| 2**-44 +
        u |K_hi| + u |hi|).
    If k = 0 and j = 256, K_hi = K_lo = e1 = 0 exactly, lo = q,
    |r| < 2**-8.99 and |log s| >= |r| (1 - |r|/2): the error is below
    1.002 u r**2 + 3u |r|**3 + |r|**9/8 < 2**-61.9 |log s|.  If k = 0
    and j > 256, |r| < 2**-9 and |log s| > log(256.5/256) > 2**-9.002:
    the error is below 1.51 u 2**-18 + 2**-77 < 2**-61.3 |log s|.  If
    k < 0, |log s| > 0.3746 |k| and r**2 < 2**-17: the error is below
    2**-69.3 + |k| 2**-94 < 2**-67.8 |log s|.

    Certificate.  Let 2**e <= |y| < 2**(e + 1) and ulp = 2**(e - 52).
    Where |y_lo| < 7/16 ulp and |y| is not 2**e, whose neighbour toward
    zero is only ulp/2 away, |log s| < 2**(e + 1), so the error is below
    2**-7 ulp, and log s lies inside y's binade, within 7/16 + 2**-7 ulp
    of y: y is the correctly rounded log s, and every other double is
    more than 9/16 - 2**-7 ulp away, so a log with an error below
    0.5547 ulp returns y too.  About 1 in 8 s fails the test.
    """
    f = w[:, : s.size]
    i = f.view(np.int64)
    b = s.view(np.int64)
    t = i[0]
    np.subtract(b, 0x3FE6000000000000, out=t)
    z = f[1]
    np.bitwise_and(t, -1 << 52, out=i[1])
    np.subtract(b, i[1], out=i[1])
    np.right_shift(t, 52, out=t)
    kh, kl = f[2], f[3]
    np.multiply(t, _LN2_HI, out=kh)
    np.multiply(t, _LN2_LO, out=kl)
    c = f[0]
    np.divide(256.0, z, out=c)
    np.rint(c, out=c)
    np.copyto(i[4], c, casting="unsafe")
    th, tl = f[5], f[6]
    np.take(_T_HI, i[4], out=th, mode="clip")
    np.take(_T_LO, i[4], out=tl, mode="clip")
    c *= 1.0 / 256.0
    r = f[4]
    np.bitwise_and(i[1], -1 << 27, out=i[4])
    z -= r
    r *= c
    r -= 1.0
    z *= c
    r += z
    # (K_hi, e) = Fast2Sum(k L_HI, T_HI); K_lo = (T_LO + k L_LO) + e.
    k_hi = f[0]
    np.add(kh, th, out=k_hi)
    np.subtract(k_hi, kh, out=kh)
    np.subtract(th, kh, out=kh)
    tl += kl
    tl += kh
    q = f[1]
    np.multiply(r, -1.0 / 8.0, out=q)
    for a in (1.0 / 7.0, -1.0 / 6.0, 1.0 / 5.0, -1.0 / 4.0):
        q += a
        q *= r
    q += 1.0 / 3.0
    r2 = f[2]
    np.multiply(r, r, out=r2)
    q *= r2
    q *= r
    r2 *= 0.5
    q -= r2
    # (hi, e1) = Fast2Sum(K_hi, r); lo = (e1 + K_lo) + q into k_hi's row.
    hi = f[2]
    np.add(k_hi, r, out=hi)
    np.subtract(hi, k_hi, out=k_hi)
    np.subtract(r, k_hi, out=k_hi)
    lo = k_hi
    lo += tl
    lo += q
    y = f[3]
    np.add(hi, lo, out=y)
    np.subtract(y, hi, out=hi)
    np.subtract(lo, hi, out=lo)
    # lo is now y_lo, and 2**e * 7 * 2**-56 is 7/16 ulp(y).
    np.abs(lo, out=q)
    np.bitwise_and(y.view(np.int64), 0x7FF0000000000000, out=i[2])
    f[2] *= 7.0 * 2.0**-56
    miss = q >= f[2]
    np.bitwise_and(y.view(np.int64), (1 << 52) - 1, out=i[2])
    miss |= i[2] == 0
    return y, lo, np.flatnonzero(miss)


# Below this many values the ~50 passes' fixed cost, ~37 us, exceeds
# math.log's, ~0.1 us a value.
_LOG_PASSES_MIN = 512


def _log(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """math.log of each s on glibc (see _log_fast): from _LOG_PASSES_MIN
    values up through the passes, as a row of w."""
    if s.size < _LOG_PASSES_MIN:
        return np.fromiter(map(math.log, memoryview(s)), np.float64, s.size)
    y, _, miss = _log_fast(s, w)
    y[miss] = np.fromiter(map(math.log, memoryview(s[miss])), np.float64, miss.size)
    return y


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
    in order.  log(s) is the correctly rounded log wherever numpy passes
    certify it at least 1/16 - 2**-7 ulp from a rounding midpoint, and
    math.log elsewhere: about 1 in 8 of the accepted s, and every s of a
    block with fewer than 512 (see _log_fast and _log).  glibc's
    math.log errs by at most about 0.54 ulp, so it returns the same
    double at the certified s, and on glibc the stream is that of
    math.log alone.  numpy's vectorised log differs from math.log in the
    last bit on some s.
    """
    _check_seed(seed)
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"sample count must be a nonnegative int, got {n!r}")
    if not 0.0 <= sigma <= _SIGMA_MAX:
        raise DomainError(f"sigma must lie in [0, {_SIGMA_MAX!r}], got {sigma!r}")
    seed &= _U64
    out = np.empty(((n + 1) // 2, 2))
    w = np.empty((7, min(len(out), _BLOCK // 2)))
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
        m = _log(s, w)
        m *= -2.0
        m /= s
        np.sqrt(m, out=m)
        block = out[done : done + keep.size]
        np.take(uv, keep, axis=0, out=block)
        block *= m[:, None]
        done += keep.size
    out *= sigma
    return out.ravel()[:n]
