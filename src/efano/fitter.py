"""Least-squares fitting of sampled cross sections to resonance profiles.

The optimizer is damped Gauss-Newton (Levenberg-Marquardt with the
damping term scaled by the diagonal of J^T J) over the parameter vector
(E_r, log Gamma, q, log peak) for the Fano model, peak being the
profile maximum sigma0*(1+q^2), and (E_r, log Gamma, log sigma0) for
the Breit-Wigner model.  Fitting the positive quantities in log form
keeps them positive without constraint handling, and the diagonal
damping makes the iteration invariant under rescaling of the data, so
fits commute with changes of cross-section units.  Residual derivatives
are analytic.  The fit stops on MINPACK's scale-free gradient test
(More 1978): every cosine between the residual and a Jacobian row is at
most GTOL.

Each point is evaluated in one sweep over the data in blocks of at most
_BLOCK samples, in a fixed order.  For each block the model kernel
fills a (p, block) Jacobian in place, one contiguous row per parameter
with the model values f as its last row (d f / d log scale = f); the
residual follows, and the block's r.r, J r and Gram matrix J J^T are
added to running totals while the block is still in cache.  The last
block's J r and J J^T are added only once a trial point is accepted,
since its J and r are still in the workspace then: a rejected trial
skips that block's Gram work, all of it for data of one block, and a
fit of at most one block makes exactly the BLAS calls of a whole-array
fit.  The workspace is the same few rows of one block whatever the size
of the data.  Every BLAS sum runs over one block at most, shorter than
the dot products OpenBLAS splits across its threads, so the fit's bits
do not depend on the BLAS thread count.

Starting points come from the profile geometry itself: the interference
zero sits at E_r - q*Gamma/2, the peak at E_r + Gamma/(2*q) with height
sigma0*(1+q^2), and the wings approach sigma0, which together invert
for all four parameters from the locations of the sampled extrema.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Union

import numpy as np

from .errors import DegenerateCurveError, DomainError
from .profiles import (
    MIN_CURVE_SAMPLES,
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
)

__all__ = [
    "MAX_ITERATIONS",
    "SSE_RTOL",
    "GTOL",
    "Q_CAP",
    "INIT_Q_CAP",
    "FitReport",
    "initial_guess_fano",
    "initial_guess_breit_wigner",
    "fit",
    "compare_models",
    "report_to_json_dict",
]

MAX_ITERATIONS = 200
SSE_RTOL = 1e-12
GTOL = 1e-8
# Bound on |q| during optimization: beyond this the profile is a
# Lorentzian to machine precision and the q direction goes flat.
Q_CAP = 1e6
# Bound on |q| coming out of the initializer when no dip is visible.
INIT_Q_CAP = 1e3

# exp() overflows past ~709.8; keeping the log-parameters inside this
# band keeps every model evaluation finite.
_LOG_BOUND = 700.0

# Samples per block of the fit's sweep over the data.  OpenBLAS splits a
# dot product of more than 10^4 elements across its threads and adds
# the partial sums in an order that depends on their number, so a
# block must stay below that size for the sse, and with it the fit, to
# come out the same whatever the BLAS thread count.
_BLOCK = 8192

FittedParameters = Union[FanoParameters, BreitWignerParameters]


@dataclass(frozen=True)
class FitReport:
    """Outcome of one least-squares fit.

    converged means the stop was a convergence criterion (the GTOL
    gradient test, an sse stall, or no improving step), not the
    iteration cap; the best parameters found are reported either way.
    lorentzian_limit flags a Fano fit that ended pinned at the |q| cap,
    where the shape is indistinguishable from a Breit-Wigner peak.
    """

    model: str
    params: FittedParameters
    sse: float
    iterations: int
    converged: bool
    initial_guess: FittedParameters
    lorentzian_limit: bool = False


def _model_jac_fano(theta: np.ndarray, E: np.ndarray, J: np.ndarray, t: np.ndarray):
    # Internal Fano parameters are (E_r, log Gamma, q, log peak) with
    # peak = sigma0*(1+q^2), the height of the profile maximum.  In the
    # Lorentzian limit the peak stays finite while sigma0 ~ 1/q^2, so
    # parameterizing by the peak turns the large-q valley into a
    # straight line the Gauss-Newton step can follow to the q cap
    # instead of creeping along a curved trade-off with sigma0.
    # Writes the Jacobian into J (4, n), the model values f into its
    # last row, using the (5, n) scratch block t.  The association
    # order of every product and quotient is fixed: it sets the bits.
    E_r, lgam, q, lpeak = theta
    gamma = math.exp(lgam)
    peak = math.exp(lpeak)
    big = 1.0 + q * q
    eps, denom, tmp, denom_big, core = t
    np.divide(np.subtract(E, E_r, out=eps), 0.5 * gamma, out=eps)
    np.add(np.multiply(eps, eps, out=denom), 1.0, out=denom)
    u = np.add(eps, q, out=tmp)
    np.multiply(denom, big, out=denom_big)
    f = np.multiply(np.multiply(u, peak, out=J[3]), u, out=J[3])
    np.divide(f, denom_big, out=f)
    np.multiply(u, 2.0 * peak, out=core)
    np.subtract(1.0, np.multiply(eps, q, out=tmp), out=tmp)
    np.multiply(core, tmp, out=core)
    np.divide(core, np.multiply(denom, big * big, out=tmp), out=J[2])
    dfde = np.divide(core, np.multiply(denom_big, denom, out=denom_big), out=core)
    np.multiply(dfde, -2.0 / gamma, out=J[0])
    np.multiply(np.negative(eps, out=eps), dfde, out=J[1])


def _model_jac_bw(theta: np.ndarray, E: np.ndarray, J: np.ndarray, t: np.ndarray):
    # Same contract as _model_jac_fano, with J of shape (3, n).
    E_r, lgam, lsig = theta
    gamma = math.exp(lgam)
    sigma0 = math.exp(lsig)
    eps, denom, dfde, tmp = t[:4]
    np.divide(np.subtract(E, E_r, out=eps), 0.5 * gamma, out=eps)
    np.add(np.multiply(eps, eps, out=denom), 1.0, out=denom)
    np.divide(sigma0, denom, out=J[2])
    np.multiply(np.multiply(eps, -2.0, out=dfde), sigma0, out=dfde)
    np.divide(dfde, np.multiply(denom, denom, out=tmp), out=dfde)
    np.multiply(dfde, -2.0 / gamma, out=J[0])
    np.multiply(np.negative(eps, out=eps), dfde, out=J[1])


def _add_block(J: np.ndarray, r: np.ndarray, g: np.ndarray, A: np.ndarray, first: bool):
    """Add one block's J @ r to g and its Gram matrix J J^T to A.

    The first block writes them instead, so that a one-block sum is the
    block's own BLAS result, bit for bit.  The Gram matrix is built row
    by row, one gemv each: numpy sends J @ J.T to syrk, up to 2.4x
    slower at 10^5 samples.
    """
    if first:
        np.matmul(J, r, out=g)
        for j in range(g.size):
            np.matmul(J, J[j], out=A[j])
    else:
        g += J @ r
        for j in range(g.size):
            A[j] += J @ J[j]


def _sweep(model_jac: Callable, theta: np.ndarray, blocks: list, g: np.ndarray, A: np.ndarray):
    """sse at theta, summed over the blocks in their fixed order.

    Each block's model values, Jacobian and residual are written into
    the workspace views the block carries.  g and A receive the sums of
    J @ r and J J^T over every block but the last; the last block's J
    and r stay in the workspace for _add_block once the point is kept.
    """
    sse = 0.0
    for k, (E, y, J, t, r) in enumerate(blocks):
        model_jac(theta, E, J, t)
        np.subtract(J[-1], y, out=r)
        sse += float(r @ r)
        if k < len(blocks) - 1:
            _add_block(J, r, g, A, k == 0)
    return sse


def _minimize(
    model_jac: Callable,
    bound: np.ndarray,
    theta0: np.ndarray,
    E: np.ndarray,
    y: np.ndarray,
):
    """Damped Gauss-Newton loop over theta clamped to [-bound, bound].

    Returns (theta, sse, iterations, converged) at one of four exits:
    the GTOL gradient test passes, an accepted step drops the sse by
    less than SSE_RTOL relative (a stall), no damping up to 1e14 gives
    an improving step, or MAX_ITERATIONS pass (converged False only
    here).  Deterministic for fixed inputs, whatever the BLAS thread
    count.  g is J @ r, half the gradient of the sse, and A the Gram
    matrix J J^T; those of the current point and of the trial point are
    swapped when a trial is accepted.
    """
    lo = -bound
    theta = np.minimum(np.maximum(theta0, lo), bound)
    p = theta.size
    n = E.size
    width = min(n, _BLOCK)
    J = np.empty((p, width))
    t = np.empty((5, width))
    r = np.empty(width)
    blocks = []
    for s in range(0, n, width):
        m = min(width, n - s)
        blocks.append((E[s : s + m], y[s : s + m], J[:, :m], t[:, :m], r[:m]))
    _, _, J_last, _, r_last = blocks[-1]
    one_block = len(blocks) == 1
    g, g_c = np.empty((2, p))
    A, A_c = np.empty((2, p, p))
    sse = _sweep(model_jac, theta, blocks, g, A)
    _add_block(J_last, r_last, g, A, one_block)
    lam = 1e-3
    for it in range(1, MAX_ITERATIONS + 1):
        diag = A.diagonal().tolist()
        # |g_j| / (|r| |J_j|) is the cosine between r and row j.
        # Unsquared, so that no scale of the data overflows the test.
        # Python's sqrt is correctly rounded, as numpy's is.
        scale = GTOL * math.sqrt(sse)
        if all(abs(gj) <= scale * math.sqrt(d) for gj, d in zip(g.tolist(), diag)):
            return theta, sse, it, True
        damping = np.diag([1.0 if d <= 0.0 else d for d in diag])
        while lam <= 1e14:
            try:
                step = np.linalg.solve(A + lam * damping, -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and all(map(math.isfinite, step.tolist())):
                cand = np.minimum(np.maximum(theta + step, lo), bound)
                # Overflowing trials give a non-finite sse and are
                # rejected below; numpy need not warn about them.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    sse_c = _sweep(model_jac, cand, blocks, g_c, A_c)
                if math.isfinite(sse_c) and sse_c <= sse:
                    rel_drop = (sse - sse_c) / max(sse, 1e-300)
                    theta, sse = cand, sse_c
                    _add_block(J_last, r_last, g_c, A_c, one_block)
                    g, g_c, A, A_c = g_c, g, A_c, A
                    lam = max(lam / 8.0, 1e-12)
                    break
            lam *= 8.0
        else:  # no damping level yields an improving step
            return theta, sse, it, True
        if rel_drop < SSE_RTOL:
            return theta, sse, it, True
    return theta, sse, MAX_ITERATIONS, False


def _interpolate(E: np.ndarray, y: np.ndarray, level: float, j: int, j2: int) -> float:
    """Energy where the chord from sample j to sample j2 meets level."""
    y0, y1 = y[j], y[j2]
    if y1 == y0:
        return float(E[j2])
    t = (level - y0) / (y1 - y0)
    return float(E[j] + t * (E[j2] - E[j]))


def _width(E: np.ndarray, y: np.ndarray, i_ref: int, level: float, rising: bool) -> float:
    """Full width of the feature at y == level around sample i_ref.

    On each side the first sample past the level (at or above it when
    rising, at or below when falling) is interpolated linearly against
    its inner neighbour; a side that never crosses ends at its grid
    edge.  A width that is not positive becomes a tenth of the span.
    """
    past = y >= level if rising else y <= level
    before = np.flatnonzero(past[:i_ref])
    after = i_ref + 1 + np.flatnonzero(past[i_ref + 1 :])
    left = _interpolate(E, y, level, before[-1] + 1, before[-1]) if before.size else E[0]
    right = _interpolate(E, y, level, after[0] - 1, after[0]) if after.size else E[-1]
    return _positive_or_tenth_of_span(float(right - left), E)


def _positive_or_tenth_of_span(width: float, E: np.ndarray) -> float:
    return width if width > 0.0 else 0.1 * float(E[-1] - E[0])


def _extrema(curve: CrossSectionCurve):
    """Grid, samples, argmax, argmin, maximum, and whether the maximum
    and the minimum are interior; DegenerateCurveError unless the curve
    is nonzero with an interior extremum, as a fit's seed needs."""
    E = curve.energies
    y = curve.sigmas
    i_max = int(np.argmax(y))
    i_min = int(np.argmin(y))
    y_max = float(y[i_max])
    if y_max <= 0.0:
        raise DegenerateCurveError("curve is identically zero")
    has_peak = 0 < i_max < E.size - 1
    has_dip = 0 < i_min < E.size - 1
    if not (has_peak or has_dip):
        raise DegenerateCurveError(
            "no interior extremum: monotone data cannot seed a resonance fit"
        )
    return E, y, i_max, i_min, y_max, has_peak, has_dip


def initial_guess_fano(curve: CrossSectionCurve) -> FanoParameters:
    """Starting parameters read off the curve's extremum geometry.

    With both extrema in the grid interior the full inversion applies:
    the peak-to-wing ratio gives 1 + q^2, the signed dip-to-peak
    separation gives Gamma, and the dip location anchors E_r.  A lone
    interior peak reads as the Lorentzian limit (|q| reported at
    INIT_Q_CAP); a lone interior dip as a window profile (q near 0).
    Monotone data raises DegenerateCurveError.
    """
    E, y, i_max, i_min, y_max, has_peak, has_dip = _extrema(curve)
    baseline = 0.5 * (float(y[0]) + float(y[-1]))
    if has_peak and has_dip:
        ratio = y_max / max(baseline, 1e-9 * y_max)
        q_mag = min(math.sqrt(max(ratio - 1.0, 1e-4)), INIT_Q_CAP)
        sign = 1.0 if E[i_min] < E[i_max] else -1.0
        q = sign * q_mag
        d = float(E[i_max] - E[i_min])
        gamma = _positive_or_tenth_of_span(2.0 * q * d / (1.0 + q * q), E)
        e_r = float(E[i_min]) + 0.5 * q * gamma
        sigma0 = y_max / (1.0 + q * q)
    elif has_peak:
        q = INIT_Q_CAP
        level = 0.5 * (y_max + min(float(y[0]), float(y[-1])))
        gamma = _width(E, y, i_max, level, rising=False)
        e_r = float(E[i_max])
        sigma0 = y_max / (1.0 + q * q)
    else:
        q = 0.0
        y_min = float(y[i_min])
        sigma0 = max(baseline, 1e-3 * y_max)
        level = 0.5 * (sigma0 + y_min)
        gamma = _width(E, y, i_min, level, rising=True)
        e_r = float(E[i_min])
    return FanoParameters(
        E_r=e_r, Gamma=gamma, q=q, sigma0=max(sigma0, 1e-12 * y_max)
    )


def initial_guess_breit_wigner(curve: CrossSectionCurve) -> BreitWignerParameters:
    """Peak location, height, and full width at half maximum.

    Dip-only (window) data has no peak to read; the guess then centers
    on the dip with the shoulder height as scale, leaving the optimizer
    to do the rest.  Monotone data raises DegenerateCurveError.
    """
    E, y, i_max, i_min, y_max, has_peak, _ = _extrema(curve)
    if has_peak:
        gamma = _width(E, y, i_max, 0.5 * y_max, rising=False)
        return BreitWignerParameters(E_r=float(E[i_max]), Gamma=gamma, sigma0=y_max)
    shoulder = max(float(y[0]), float(y[-1]))
    return BreitWignerParameters(
        E_r=float(E[i_min]),
        Gamma=0.5 * float(E[-1] - E[0]),
        sigma0=max(shoulder, 1e-3 * y_max),
    )


def _check_curve(curve: CrossSectionCurve) -> None:
    if not isinstance(curve, CrossSectionCurve):
        raise DomainError(f"expected a CrossSectionCurve, got {type(curve).__name__}")
    if len(curve) < MIN_CURVE_SAMPLES:
        raise DomainError(
            f"fit needs at least {MIN_CURVE_SAMPLES} samples, got {len(curve)}"
        )


@dataclass(frozen=True)
class _Model:
    """Everything fit needs to know about one line shape.

    theta is the internal parameter vector the optimizer moves; bound
    is its symmetric clamp, |theta[i]| <= bound[i].
    """

    params: type
    initial_guess: Callable[[CrossSectionCurve], FittedParameters]
    to_theta: Callable[[FittedParameters], list]
    from_theta: Callable[[np.ndarray], FittedParameters]
    model_jac: Callable
    bound: np.ndarray


def _fano_from_theta(theta: np.ndarray) -> FanoParameters:
    q = float(theta[2])
    return FanoParameters(
        E_r=float(theta[0]),
        Gamma=math.exp(theta[1]),
        q=q,
        sigma0=math.exp(theta[3]) / (1.0 + q * q),
    )


# The initializers are looked up at call time, through this module's
# globals, so that wrapping them (for tracing, say) takes effect.
_MODELS = {
    FanoParameters.model: _Model(
        params=FanoParameters,
        initial_guess=lambda curve: initial_guess_fano(curve),
        to_theta=lambda g: [
            g.E_r,
            math.log(g.Gamma),
            g.q,
            math.log(g.sigma0) + math.log1p(g.q * g.q),
        ],
        from_theta=_fano_from_theta,
        model_jac=_model_jac_fano,
        bound=np.array([math.inf, _LOG_BOUND, Q_CAP, _LOG_BOUND]),
    ),
    BreitWignerParameters.model: _Model(
        params=BreitWignerParameters,
        initial_guess=lambda curve: initial_guess_breit_wigner(curve),
        to_theta=lambda g: [g.E_r, math.log(g.Gamma), math.log(g.sigma0)],
        from_theta=lambda theta: BreitWignerParameters(
            E_r=float(theta[0]), Gamma=math.exp(theta[1]), sigma0=math.exp(theta[2])
        ),
        model_jac=_model_jac_bw,
        bound=np.array([math.inf, _LOG_BOUND, _LOG_BOUND]),
    ),
}


def fit(
    curve: CrossSectionCurve,
    model: str,
    guess: FittedParameters | None = None,
) -> FitReport:
    """Least-squares fit of one model to a curve.

    model is "fano" or "breit_wigner".  When guess is omitted the
    geometric initializer runs first.  The fit minimizes the unweighted
    sum of squared residuals and is deterministic: identical curve,
    guess, and settings give identical reports.  Hitting the iteration
    cap reports the best parameters found with converged=False rather
    than raising.
    """
    _check_curve(curve)
    m = _MODELS.get(model)
    if m is None:
        names = " or ".join(repr(name) for name in _MODELS)
        raise DomainError(f"unknown model {model!r}; use {names}")
    if guess is None:
        guess = m.initial_guess(curve)
    elif not isinstance(guess, m.params):
        raise DomainError(f"{model} fit requires {m.params.__name__} as guess")
    theta, sse, iterations, converged = _minimize(
        m.model_jac, m.bound, np.array(m.to_theta(guess)), curve.energies, curve.sigmas
    )
    params = m.from_theta(theta)
    return FitReport(
        model=model,
        params=params,
        sse=sse,
        iterations=iterations,
        converged=converged,
        initial_guess=guess,
        lorentzian_limit=abs(getattr(params, "q", 0.0)) >= Q_CAP,
    )


def compare_models(curve: CrossSectionCurve) -> tuple[FitReport, FitReport]:
    """Fit both models to the same curve; returns (fano, breit_wigner)."""
    return fit(curve, "fano"), fit(curve, "breit_wigner")


def report_to_json_dict(report: FitReport) -> dict:
    """Flat JSON-ready view: the model name, then the fitted parameters
    in their dataclass field order (E_r, Gamma, q for fano only,
    sigma0), then sse, iterations and converged."""
    return {
        "model": report.model,
        **asdict(report.params),
        "sse": report.sse,
        "iterations": report.iterations,
        "converged": report.converged,
    }
