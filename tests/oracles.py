"""Independent reference implementations used only by the tests.

The log-gamma reference below shares no algorithm or code with the
package: it evaluates the product definition

    log Gamma(z) = lim_n [z*log n - log z - sum_{k=1..n} log(1 + z/k)]

with every term kept O(1) (complex log1p split into a real log1p and an
atan2), exact pairwise summation via math.fsum, and a three-level
Richardson extrapolation in 1/n.  The truncation coefficients grow with
|z|, so the base n = 2^16 is doubled until it exceeds 2^13 * |z|.
Validated once against an arbitrary-precision library at twenty
scattered points with |z| up to 60: worst error 7e-15 relative.  Valid
on Re(z) >= 0, z != 0, where 1 + z/k never leaves the right half-plane
and the principal branch is automatic.

The Gaussian noise reference is the scalar SplitMix64 + Marsaglia polar
loop that defined the package's deviate stream before it was
vectorised: one Python-int state stepped per draw, one pair at a time.
The block-wise reference is the vectorised stream as it was before its
log was: each block's accepted s go through math.log one at a time.  It
is fast enough to check millions of deviates, and accepted_s gives the
s themselves.

The half-crossing reference is the sample-by-sample scan the fitter's
initializers used to read a feature's width before it was vectorised.

The Fano model/Jacobian reference is the fitter's kernel in its phase
form phi = atan q, as it was before it wrote into a per-fit workspace:
each call allocates f and J afresh and returns (f, J), evaluating the
profile with array divisions.  It marks where the model overflows at
the edge of the parameter clamp.

The minimizer reference is the fitter's Levenberg-Marquardt loop as it
was before it swept the data in blocks: whole-array Jacobians and
residuals for the current and the trial point, with the sse taken in
one BLAS call over all n samples, and the Gram matrix, the gradient and
the sums of any second-order rows in one gemm of the kernel's rows
against [J; r]^T.  It runs the fitter's kernels, which are generators,
to completion at every point, and steps with the kernel's Newton
Hessian where it gives one.  For n up to one block it defines the fit
bits; beyond that the blocked sums may differ from its single-call
ones in the last bits.  With newton=False it is the Gauss-Newton loop,
a reference for the quality of the Newton fits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from efano.fitter import GTOL, MAX_ITERATIONS, SSE_RTOL
from efano.numkit import _BLOCK, _unit_open


def product_log_gamma(z: complex, n: int) -> complex:
    ks = np.arange(1, n + 1, dtype=np.float64)
    u = z.real / ks
    v = z.imag / ks
    re = 0.5 * np.log1p(2.0 * u + u * u + v * v)
    im = np.arctan2(v, 1.0 + u)
    s = complex(math.fsum(re), math.fsum(im))
    return z * math.log(n) - cmath.log(z) - s


def log_gamma_reference(z: complex) -> complex:
    if z.real < 0.0 or z == 0.0:
        raise ValueError(f"reference valid on Re(z) >= 0 only, got {z!r}")
    n = 1 << 16
    while n < abs(z) * (1 << 13):
        n *= 2
    f = [product_log_gamma(z, (1 << i) * n) for i in range(4)]
    r1 = [2.0 * f[i + 1] - f[i] for i in range(3)]
    r2 = [(4.0 * r1[i + 1] - r1[i]) / 3.0 for i in range(2)]
    return (8.0 * r2[1] - r2[0]) / 7.0


def arg_gamma_reference(alpha: float) -> float:
    """arg Gamma(1 - i*alpha) from the product-formula reference."""
    return log_gamma_reference(complex(1.0, -alpha)).imag


_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF


class _SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + _SM64_GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * _SM64_MIX1) & _U64
        z = ((z ^ (z >> 27)) * _SM64_MIX2) & _U64
        return z ^ (z >> 31)

    def next_unit_open(self) -> float:
        # Uniform on (0, 1): take 53 bits, then offset by half an ulp
        # so 0.0 is never produced (the polar method divides by it).
        return (self.next_u64() >> 11) * (1.0 / (1 << 53)) + (0.5 / (1 << 53))


def gaussian_noise_reference(seed: int, n: int, sigma: float) -> list[float]:
    """n deviates of the package's N(0, sigma^2) stream, one pair at a time."""
    rng = _SplitMix64(seed)
    out: list[float] = []
    spare: float | None = None
    while len(out) < n:
        if spare is not None:
            out.append(sigma * spare)
            spare = None
            continue
        u = 2.0 * rng.next_unit_open() - 1.0
        v = 2.0 * rng.next_unit_open() - 1.0
        s = u * u + v * v
        if s >= 1.0 or s == 0.0:
            continue
        m = math.sqrt(-2.0 * math.log(s) / s)
        out.append(sigma * (u * m))
        spare = v * m
    return out


def _polar_blocks(seed: int):
    """Each block's (u, v) pairs and their s, the accepted ones only."""
    drawn = 0
    while True:
        uv = _unit_open(seed & _U64, drawn, _BLOCK).reshape(_BLOCK // 2, 2)
        drawn += _BLOCK
        uv *= 2.0
        uv -= 1.0
        s = uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1]
        keep = (s < 1.0) & (s != 0.0)
        yield uv[keep], s[keep]


def accepted_s(seed: int, count: int) -> np.ndarray:
    """The first count accepted s = u*u + v*v of the stream of seed."""
    parts, got = [], 0
    for _, s in _polar_blocks(seed):
        parts.append(s)
        got += s.size
        if got >= count:
            return np.concatenate(parts)[:count]


def gaussian_noise_math_log(seed: int, n: int, sigma: float) -> np.ndarray:
    """n deviates of the package's stream, each log taken by math.log."""
    parts, got = [], 0
    for uv, s in _polar_blocks(seed):
        if got >= n:
            break
        log_s = np.fromiter(map(math.log, memoryview(s)), np.float64, s.size)
        parts.append((uv * np.sqrt(-2.0 * log_s / s)[:, None]).ravel())
        got += 2 * s.size
    return (np.concatenate(parts)[:n] if parts else np.empty(0)) * sigma


def half_crossings_reference(
    E: np.ndarray, y: np.ndarray, i_ref: int, level: float, rising: bool
) -> float:
    """Full width of the feature at y == level around sample i_ref.

    Scans outward for the first sample past the level (above it when
    rising, below when falling) and interpolates linearly; a side that
    never crosses contributes its grid edge.
    """

    def scan(direction: int) -> float:
        j = i_ref
        while True:
            j2 = j + direction
            if j2 < 0 or j2 >= E.size:
                return float(E[j])
            crossed = y[j2] >= level if rising else y[j2] <= level
            if crossed:
                y0, y1 = y[j], y[j2]
                if y1 == y0:
                    return float(E[j2])
                t = (level - y0) / (y1 - y0)
                return float(E[j] + t * (E[j2] - E[j]))
            j = j2

    left = scan(-1)
    right = scan(+1)
    return right - left


def model_jac_fano_reference(theta: np.ndarray, E: np.ndarray):
    E_r, lgam, phi, lpeak = theta
    gamma = math.exp(lgam)
    peak = math.exp(lpeak)
    s, c = math.sin(phi), math.cos(phi)
    eps = (E - E_r) / (0.5 * gamma)
    denom = 1.0 + eps * eps
    u = s + eps * c
    f = peak * u * u / denom
    core = 2.0 * peak * u * (c - eps * s)
    dfde = core / (denom * denom)
    J = np.empty((E.size, 4))
    J[:, 0] = dfde * (-2.0 / gamma)
    J[:, 1] = -eps * dfde
    J[:, 2] = core / denom
    J[:, 3] = f
    return f, J


def minimize_reference(m, theta0: np.ndarray, E: np.ndarray, y: np.ndarray, newton: bool = True):
    """Damped Newton or Gauss-Newton loop for the fit model m over theta
    clamped to [-m.bound, m.bound].

    Deterministic for fixed inputs.  The kernel's rows and the residual
    of the current point and of the trial point live in one workspace
    allocated up front; an accepted trial swaps the two.
    """
    lo = -m.bound
    theta = np.minimum(np.maximum(theta0, lo), m.bound)
    p = theta.size
    rows = m.rows
    n2 = rows - p
    W, W_c = np.empty((2, rows + 1, E.size))
    t = np.empty((m.scratch, E.size))
    for _ in m.run(theta, E, W[:rows], t):
        pass
    np.subtract(W[rows - 1], y, out=W[rows])
    sse = float(W[rows] @ W[rows])
    lam = 1e-3
    iterations = 0
    converged = False
    for it in range(1, MAX_ITERATIONS + 1):
        iterations = it
        # The Gram matrix, J @ r and the second-order sums from one gemm
        # of the kernel's rows against [J; r]^T.
        GA = W[:rows] @ W[n2:].T
        A = GA[n2:, :p]
        grad = 2.0 * GA[n2:, p]
        diag = np.diag(A).copy()
        # |grad_j| / (2 |r| |J_j|) is the cosine between r and row j.
        # Unsquared, so that no scale of the data overflows the test.
        if np.all(np.abs(grad) <= (2.0 * GTOL * math.sqrt(sse)) * np.sqrt(diag)):
            converged = True
            break
        H = m.newton(theta, GA) if newton else None
        if H is None:
            H = A
        diag[diag <= 0.0] = 1.0
        accepted = False
        rel_drop = 0.0
        while lam <= 1e14:
            try:
                step = np.linalg.solve(H + lam * np.diag(diag), -0.5 * grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and bool(np.all(np.isfinite(step))):
                cand = np.minimum(np.maximum(theta + step, lo), m.bound)
                # Overflowing trials give a non-finite sse and are
                # rejected below; numpy need not warn about them.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for _ in m.run(cand, E, W_c[:rows], t):
                        pass
                    np.subtract(W_c[rows - 1], y, out=W_c[rows])
                    sse_c = float(W_c[rows] @ W_c[rows])
                if math.isfinite(sse_c) and sse_c <= sse:
                    rel_drop = (sse - sse_c) / max(sse, 1e-300)
                    theta, sse = cand, sse_c
                    W, W_c = W_c, W
                    lam = max(lam / 8.0, 1e-12)
                    accepted = True
                    break
            lam *= 8.0
        if not accepted:
            # No damping level yields an improving step: numerically at
            # a minimum, equivalent to a zero sse drop.
            converged = True
            break
        if rel_drop < SSE_RTOL:
            converged = True
            break
    return theta, sse, iterations, converged
