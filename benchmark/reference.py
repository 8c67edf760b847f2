"""Computations made apart from efano, used only to check its outputs.

The physics is recomputed with mpmath at 40 significant digits from the
float inputs and outputs efano returns.  The line shapes are this
file's own formulas.  The noise stream is a separate SplitMix64 +
Marsaglia-polar implementation whose generator states come from one
vectorised numpy pass.  Refits use scipy's MINPACK least squares.
mpmath and scipy are benchmark-only; efano never imports them.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.optimize import least_squares

DIGITS = 40
FLOAT_MIN = 2.2250738585072014e-308  # smallest positive normal double


def _mpf(x: float):
    return mp.mpf(float(x))


# ---------------------------------------------------------------- square well


def well_x0(depth: float, rw: float, mu: float):
    """x0 = sqrt(2*mu*V0)*Rw, exact from the float inputs."""
    with mp.workdps(DIGITS):
        return mp.sqrt(2 * _mpf(mu) * _mpf(depth)) * _mpf(rw)


def scattering_length(depth: float, rw: float, mu: float):
    with mp.workdps(DIGITS):
        x = well_x0(depth, rw, mu)
        return _mpf(rw) * (1 - mp.tan(x) / x)


def scattering_length_condition(depth: float, rw: float, mu: float):
    """|x0 a'(x0) / a(x0)|: how much a relative error in x0 grows in a."""
    with mp.workdps(DIGITS):
        x = well_x0(depth, rw, mu)
        a = _mpf(rw) * (1 - mp.tan(x) / x)
        slope = -_mpf(rw) * (x * mp.sec(x) ** 2 - mp.tan(x)) / x**2
        return abs(x * slope / a)


def bound_count(depth: float, rw: float, mu: float) -> int:
    with mp.workdps(DIGITS):
        return int(mp.floor(well_x0(depth, rw, mu) / mp.pi + mp.mpf(0.5)))


def shallowest_root(depth: float, rw: float, mu: float):
    """Largest root x' of x' cot x' + sqrt(x0^2 - x'^2) = 0, or None.

    With M bound states the root lies in ((M - 1/2) pi, min(x0, M pi)),
    where the function falls from positive to negative.  It is solved
    in y = sqrt(x0^2 - x'^2), in which it stays smooth as the state
    nears threshold: a few bisections, then the secant method.
    """
    with mp.workdps(DIGITS):
        x0 = well_x0(depth, rw, mu)
        m = int(mp.floor(x0 / mp.pi + mp.mpf(0.5)))
        if m == 0:
            return None

        def g(y):
            x = mp.sqrt(x0 * x0 - y * y)
            return x * mp.cot(x) + y

        lo = mp.sqrt(max(x0 * x0 - (m * mp.pi) ** 2, 0)) + mp.mpf(10) ** (-DIGITS + 5)
        hi = mp.sqrt(x0 * x0 - ((m - mp.mpf(0.5)) * mp.pi) ** 2)
        for _ in range(16):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        y = mp.findroot(g, (lo, hi), solver="anderson")
        if not lo <= y <= hi:
            raise ArithmeticError("matching root left its bracket")
        return mp.sqrt(x0 * x0 - y * y)


def root_from_energy(energy: float, depth: float, rw: float, mu: float):
    """The x' that a returned binding energy implies."""
    with mp.workdps(DIGITS):
        x0 = well_x0(depth, rw, mu)
        return mp.sqrt(x0 * x0 + 2 * _mpf(mu) * _mpf(rw) ** 2 * _mpf(energy))


# ---------------------------------------------------------------- three-body


def efimov_count(a: float, r0: float) -> int:
    with mp.workdps(DIGITS):
        return max(0, int(mp.floor(mp.log(abs(_mpf(a)) / _mpf(r0)) / mp.pi)))


def efimov_boundary_distance(a: float, r0: float):
    """Distance of ln(|a|/r0)/pi from the nearest integer."""
    with mp.workdps(DIGITS):
        x = mp.log(abs(_mpf(a)) / _mpf(r0)) / mp.pi
        return abs(x - mp.nint(x))


def geometric_energy(ground: float, alpha: float, n: int):
    with mp.workdps(DIGITS):
        return _mpf(ground) * mp.exp(-2 * mp.pi * n / _mpf(alpha))


# ---------------------------------------------------------------- dipole ladder


def arg_gamma(alpha: float):
    """arg Gamma(1 - i alpha) on the branch continuous from alpha = 0."""
    with mp.workdps(DIGITS):
        return mp.im(mp.loggamma(mp.mpc(1, -_mpf(alpha))))


def ladder_residual(alpha: float, kappa: float, n: int, arg_g, scale: float = 2.0):
    """alpha ln(scale/kappa) - arg_g - (n + 1/2) pi, arg_g from arg_gamma."""
    with mp.workdps(DIGITS):
        return (_mpf(alpha) * mp.log(_mpf(scale) / _mpf(kappa)) - arg_g
                - (n + mp.mpf(0.5)) * mp.pi)


def ladder_energy(alpha: float, n: int, arg_g, scale: float = 2.0):
    with mp.workdps(DIGITS):
        phase = (n + mp.mpf(0.5)) * mp.pi + arg_g
        kappa = _mpf(scale) * mp.exp(-phase / _mpf(alpha))
        return -kappa * kappa / 2


def ladder_ratio(alpha: float):
    with mp.workdps(DIGITS):
        return mp.exp(-2 * mp.pi / _mpf(alpha))


# ---------------------------------------------------------------- line shapes


def fano(E: np.ndarray, E_r: float, gamma: float, q: float, sigma0: float) -> np.ndarray:
    eps = 2.0 * (E - E_r) / gamma
    return sigma0 * (q + eps) ** 2 / (1.0 + eps**2)


def breit_wigner(E: np.ndarray, E_r: float, gamma: float, sigma0: float) -> np.ndarray:
    eps = 2.0 * (E - E_r) / gamma
    return sigma0 / (1.0 + eps**2)


def profile(E: np.ndarray, params) -> np.ndarray:
    """Evaluate a FanoParameters or BreitWignerParameters by its fields."""
    if hasattr(params, "q"):
        return fano(E, params.E_r, params.Gamma, params.q, params.sigma0)
    return breit_wigner(E, params.E_r, params.Gamma, params.sigma0)


def sse(E: np.ndarray, y: np.ndarray, params) -> float:
    r = profile(E, params) - y
    return math.fsum(r * r)


# ---------------------------------------------------------------- noise stream

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _unit_open(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64 outputs start+1 .. start+count mapped to (0, 1).

    State k is seed + k*gamma mod 2^64, so all states come from one
    wrapping uint64 multiply instead of a sequential loop.
    """
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + k * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


def gaussian_stream(seed: int, n: int) -> list[float]:
    """n unit-variance deviates: Marsaglia polar on consecutive pairs.

    The accepted s values go through math.log, which rounds correctly
    here; numpy's log does not always.
    """
    out: list[float] = []
    used = 0
    while len(out) < n:
        pairs = max(16, int((n - len(out)) * 0.65) + 16)
        u = 2.0 * _unit_open(seed, used, 2 * pairs) - 1.0
        used += 2 * pairs
        a, b = u[0::2], u[1::2]
        s = a * a + b * b
        keep = (s < 1.0) & (s != 0.0)
        for x, y, sv in zip(a[keep].tolist(), b[keep].tolist(), s[keep].tolist()):
            m = math.sqrt(-2.0 * math.log(sv) / sv)
            out.append(x * m)
            out.append(y * m)
    return out[:n]


# ---------------------------------------------------------------- refits


def _fano_theta(p) -> list[float]:
    return [p.E_r, math.log(p.Gamma), p.q, math.log(p.sigma0)]


def _bw_theta(p) -> list[float]:
    return [p.E_r, math.log(p.Gamma), math.log(p.sigma0)]


def refit_sse(E: np.ndarray, y: np.ndarray, model: str, guess, q_cap: float) -> float:
    """SSE that scipy's least squares reaches from guess.

    The Fano model is searched with |q| <= q_cap, the bound efano's
    fitter documents, by the trust-region reflective method; the
    Breit-Wigner model by MINPACK Levenberg-Marquardt.
    """
    if model == "fano":
        theta0 = _fano_theta(guess)
        bounds = ([-np.inf, -np.inf, -q_cap, -np.inf], [np.inf, np.inf, q_cap, np.inf])
        method = "trf"

        def resid(t):
            return fano(E, t[0], math.exp(min(t[1], 700.0)), t[2],
                        math.exp(min(t[3], 700.0))) - y
    else:
        theta0 = _bw_theta(guess)
        bounds = (-np.inf, np.inf)
        method = "lm"

        def resid(t):
            return breit_wigner(E, t[0], math.exp(min(t[1], 700.0)),
                                math.exp(min(t[2], 700.0))) - y

    with np.errstate(all="ignore"):
        result = least_squares(resid, theta0, method=method, bounds=bounds,
                               x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                               max_nfev=20000)
        r = resid(result.x)
    value = math.fsum(r * r)
    return value if math.isfinite(value) else math.inf
