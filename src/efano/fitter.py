"""Least-squares fitting of sampled cross sections to resonance profiles.

The optimizer is a damped Newton method (Levenberg-Marquardt, with the
damping term scaled by the diagonal of J J^T) over the parameter vector
(E_r, log Gamma, phi, log peak) for the Fano model, with q = tan(phi)
and peak the profile maximum sigma0*(1+q^2), and (E_r, log Gamma,
log sigma0) for the Breit-Wigner model.  Fitting the positive
quantities in log form keeps them positive without constraint
handling, and the diagonal damping makes the iteration invariant under
rescaling of the data, so fits commute with changes of cross-section
units.  Residual derivatives are analytic.  The fit stops on MINPACK's
scale-free gradient test (More 1978): every cosine between the residual
and a Jacobian row is at most GTOL.

The Hessian of sse/2 is A + S: the Gram matrix A = J J^T, which alone
gives Gauss-Newton, plus S = sum_i r_i Hess f_i.  The Fano family holds
the Breit-Wigner line at phi = pi/2, so a Fano fit is near
zero-residual and steps with A.  A Breit-Wigner fit to a Fano curve is
a large-residual problem, on which Gauss-Newton converges only
linearly; its kernel also writes three second-order rows whose sums
give S exactly, and it steps with A + S wherever A + 2S is positive
definite, that is A + S > A/2, so that S takes away at most half of the
Gauss-Newton curvature in any direction, and with A elsewhere.

Each point is evaluated in one sweep over the data in blocks of at most
_BLOCK samples, in a fixed order.  Per block the workspace W holds the
kernel's rows, one contiguous row each: any second-order rows, then a
(p, block) Jacobian with the model values f as its last row
(d f / d log scale = f), then the residual r.  The model kernel writes
f first, and a trial's sweep stops at the block where its sse passes
the current one, before any derivative row.  Otherwise the kernel
finishes its rows, and one gemm of them against [J; r]^T adds J J^T,
J r and the second-order sums to running totals while the block is
still in cache.
The workspace is the same few rows of one block whatever the size of
the data.  Every BLAS sum runs over one block at most, shorter than the
dot products OpenBLAS splits across its threads, so the fit's bits do
not depend on the BLAS thread count.  The kernels fix no association
order: their contract is accuracy, each entry within a few ulp of the
terms it is computed from.
A curve of four or more blocks is fitted in two stages that share one
workspace: from the guess on every s-th sample, s = ceil(n / _BLOCK),
at most one block, then on all the samples from that optimum, which
the full sweeps only polish.  Up to three blocks the first stage costs
about what it saves, and the fit runs on all the data from the guess.

Starting points come from the profile geometry itself: the interference
zero sits at E_r - q*Gamma/2, the peak at E_r + Gamma/(2*q) with height
sigma0*(1+q^2), and the wings approach sigma0, which together invert
for all four parameters from the locations of the sampled extrema.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
# The gufunc np.linalg.solve runs for a 1-D b; its wrapper costs twice the 4x4 solve.
from numpy.linalg._umath_linalg import solve1

from .errors import DegenerateCurveError, DomainError
from .profiles import (
    MIN_CURVE_SAMPLES,
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
    ProfileParameters,
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
# lorentzian_limit flags a Fano fit ending at |q| = |tan phi| >= Q_CAP,
# |cos phi| <~ 1e-6, where its profile is a Lorentzian to ~2|eps|/|q|.
Q_CAP = 1e6
# Bound on |q| coming out of the initializer: the |q| of a lone peak,
# and the cap on the two-extrema inversion.
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

@dataclass(frozen=True)
class FitReport:
    """Outcome of one least-squares fit.

    converged means the stop was a convergence criterion (the GTOL
    gradient test, an sse stall, or no improving step), not the
    iteration cap; the best parameters found are reported either way.
    iterations counts those of the fit over all the samples (see fit).
    lorentzian_limit flags a Fano fit that ended at |q| >= Q_CAP, its
    phase within ~1e-6 of pi/2, where the shape is a Lorentzian peak.
    """

    model: str
    params: ProfileParameters
    sse: float
    iterations: int
    converged: bool
    initial_guess: ProfileParameters
    lorentzian_limit: bool = False


def _model_jac_fano(theta: np.ndarray, E: np.ndarray, J: np.ndarray, t: np.ndarray):
    # Internal Fano parameters are (E_r, log Gamma, phi, log peak), with
    # q = tan(phi) and peak = sigma0*(1+q^2), the profile maximum.  With
    # s, c = sin(phi), cos(phi), eps = (E - E_r)*2/Gamma and iD = 1/(1 +
    # eps^2), f = peak*u^2*iD with u = s + eps*c, Fano's phase form: f
    # has period pi in phi and is the Breit-Wigner line at the interior
    # point phi = pi/2, so phi needs no bound.  A generator: writes f
    # into J[3] (4, n) and yields, then the derivative rows, using the
    # (4, n) scratch t.  With g = u*(c - eps*s)*iD, |g| <= 1, d f/d phi
    # = 2*peak*g and d f/d eps = 2*peak*g*iD: one array reciprocal and no
    # array division.  Rows 0 and 1 take d f/d phi times the weights
    # -iD*2/Gamma and -eps*iD, so no intermediate is as small as g*iD,
    # subnormal near |eps| = 1e154 while those rows are still normal.
    # The scratch row holds -eps, so that the signs ride on scalars.
    E_r, lgam, phi, lpeak = theta
    k = 2.0 / math.exp(lgam)
    peak = math.exp(lpeak)
    s, c = math.sin(phi), math.cos(phi)
    neps, iD, u, g = t
    np.multiply(np.subtract(E, E_r, out=neps), -k, out=neps)
    np.reciprocal(np.add(np.multiply(neps, neps, out=iD), 1.0, out=iD), out=iD)
    np.add(np.multiply(neps, -c, out=u), s, out=u)
    f = np.multiply(np.multiply(u, u, out=J[3]), iD, out=J[3])
    np.multiply(f, peak, out=f)
    yield
    np.add(np.multiply(neps, s, out=g), c, out=g)
    np.multiply(np.multiply(g, u, out=g), iD, out=g)
    np.multiply(g, 2.0 * peak, out=J[2])
    np.multiply(np.multiply(iD, -k, out=u), J[2], out=J[0])
    np.multiply(np.multiply(neps, iD, out=g), J[2], out=J[1])


def _model_jac_bw(theta: np.ndarray, E: np.ndarray, J: np.ndarray, t: np.ndarray):
    # Same contract as _model_jac_fano, with J of shape (6, n) and the
    # (2, n) scratch t: f = sigma0/D with D = 1 + eps^2 goes into J[5],
    # then J[3] = -(2/Gamma)*d f/d eps, J[4] = -eps*d f/d eps, and rows
    # 0..2 get f_ee*{1, eps, eps^2}, with f_ee = d^2 f/d eps^2 =
    # sigma0*(6 eps^2 - 2)/D^3, whose sums against r give the
    # second-order term (_newton_bw).
    # Each row is f, or c = f*(6 eps^2 - 2)/(2D), times a weight
    # 2 eps^j/D of magnitude at most 2; J[3] also takes 2/Gamma, which
    # meets the weight before f.  So no intermediate is as small as
    # eps*f/D, which goes subnormal near |eps| = 1e85 while J[3] is
    # still normal.  Where D overflows, 2/D and every weight are 0, so
    # no row takes inf*0.
    E_r, lgam, lsig = theta
    gamma = math.exp(lgam)
    sigma0 = math.exp(lsig)
    eps, c = t
    np.multiply(np.subtract(E, E_r, out=eps), 2.0 / gamma, out=eps)
    np.add(np.multiply(eps, eps, out=c), 1.0, out=c)
    f = np.divide(sigma0, c, out=J[5])
    yield
    i2D = np.divide(2.0, c, out=J[0])
    w1 = np.multiply(eps, i2D, out=J[1])
    w2 = np.multiply(eps, w1, out=J[2])
    np.multiply(np.multiply(w1, 2.0 / gamma, out=J[3]), f, out=J[3])
    np.multiply(w2, f, out=J[4])
    np.multiply(np.add(np.multiply(i2D, -2.0, out=c), 3.0, out=c), f, out=c)
    np.multiply(J[:3], c, out=J[:3])


def _newton_bw(theta: np.ndarray, GA: np.ndarray) -> np.ndarray | None:
    """The Breit-Wigner Hessian A + S of sse/2 when A + 2S is positive
    definite; None otherwise, NaN and inf included.

    GA is the sweep's sum over the blocks: rows 0..2 end in K = sum
    r*f_ee*{1, eps, eps^2}, and rows 3..5 are [A | g].  With k =
    2/Gamma, d eps/d E_r = -k and d eps/d log Gamma = -eps, and f is
    linear in sigma0, so S = sum_i r_i Hess f_i has S_00 = k^2 K_0,
    S_01 = k K_1 - g_0, S_11 = K_2 - g_1, and g as its log sigma0 row.
    The test takes the pivots of the LDL^T of A + 2S, which scale with
    the data as A does.
    """
    k = 2.0 / math.exp(theta[1])
    (*_, K0), (*_, K1), (*_, K2), *A = GA.tolist()
    (a00, a01, a02, g0), (a10, a11, a12, g1), (a20, a21, a22, g2) = A
    s00, s01, s11 = k * k * K0, k * K1 - g0, K2 - g1
    m00 = a00 + 2.0 * s00
    if not 0.0 < m00 < math.inf:
        return None
    m01, m02 = a01 + 2.0 * s01, a02 + 2.0 * g0
    l1, l2 = m01 / m00, m02 / m00
    d1 = a11 + 2.0 * s11 - l1 * m01
    if not 0.0 < d1 < math.inf:
        return None
    e = a12 + 2.0 * g1 - l2 * m01
    if not 0.0 < a22 + 2.0 * g2 - l2 * m02 - e * e / d1 < math.inf:
        return None
    return np.array([
        [a00 + s00, a01 + s01, a02 + g0],
        [a10 + s01, a11 + s11, a12 + g1],
        [a20 + g0, a21 + g1, a22 + g2],
    ])


def _sweep(
    model_jac: Callable, theta: np.ndarray, blocks: list, GA: np.ndarray, limit: float,
) -> float:
    """sse at theta, summed over the blocks in their fixed order.

    Each block's model values and residual are written into the
    workspace views the block carries, and its r.r is added to the sse.
    Partial sums of squares only grow, so once the sse passes limit or
    is NaN the sweep returns it at once, before the block's derivative
    rows, leaving GA partial.  Otherwise one 2-D matmul of the kernel's
    rows J, any second-order rows and then the Jacobian, against the
    block's (m, p + 1) view Wt = [Jacobian; r]^T adds their products
    with the Jacobian and with r to GA.  Its last p rows are [A | g]:
    the Gram matrix J J^T and g = J @ r; the rows above end in the
    second-order rows' sums against r.  Both operands are strided views
    that BLAS reads in place, so the product copies nothing.  The first
    block writes GA, so that a one-block sum is its own BLAS result.
    """
    sse = 0.0
    for k, (E, y, J, t, r, Wt) in enumerate(blocks):
        kernel = model_jac(theta, E, J, t)
        next(kernel)
        np.subtract(J[-1], y, out=r)
        sse += float(r @ r)
        if not sse <= limit:
            return sse
        next(kernel, None)  # the derivative and second-order rows
        if k == 0:
            np.matmul(J, Wt, out=GA)
        else:
            GA += np.matmul(J, Wt)
    return sse


def _workspace(m: _Model, width: int) -> tuple:
    """W, t and the current and trial GA for blocks of up to width samples."""
    return (np.empty((m.rows + 1, width)), np.empty((m.scratch, width)),
            np.empty((2, m.rows, m.bound.size + 1)))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _minimize(m: _Model, theta0: np.ndarray, E: np.ndarray, y: np.ndarray, work=None):
    """Damped Newton or Gauss-Newton loop for model m over theta clamped
    to [-m.bound, m.bound].

    Returns (theta, sse, iterations, converged) at one of four exits:
    the GTOL gradient test passes, an accepted step drops the sse by
    less than SSE_RTOL relative (a stall), no damping up to 1e14 gives
    an improving step, or MAX_ITERATIONS pass (converged False only
    here).  Deterministic for fixed inputs, whatever the BLAS thread
    count.  g is J @ r, half the gradient of the sse, and A the Gram
    matrix J J^T, both views of one array per point; those of the
    current point and of the trial point are swapped when a trial is
    accepted.  work is a _workspace for blocks at least min(n, _BLOCK)
    wide; None allocates one.  The step solves (H + lam*diag(A)) step =
    -g, with H the model's Newton Hessian where m.newton gives one and
    A otherwise.
    Overflow raises no numpy warning: a trial whose damped system is
    singular or not finite, or whose sse is not finite, is rejected,
    and a kept point whose sse, g or Gram diagonal is not finite raises
    DomainError.
    """
    lo = -m.bound
    theta = np.minimum(np.maximum(theta0, lo), m.bound)
    p = theta.size
    n2 = m.rows - p
    n = E.size
    width = min(n, _BLOCK)
    W, t, (GA, GA_c) = work or _workspace(m, width)
    blocks = []
    for s in range(0, n, width):
        k = min(width, n - s)
        Wk = W[:, :k]
        blocks.append((E[s : s + k], y[s : s + k], Wk[:-1], t[:, :k], Wk[-1], Wk[n2:].T))
    damping = np.zeros((p, p))
    sse = _sweep(m.run, theta, blocks, GA, math.inf)
    lam = 1e-3
    for it in range(1, MAX_ITERATIONS + 1):
        A, g = GA[n2:, :p], GA[n2:, p]
        diag = A.diagonal().tolist()
        grad = g.tolist()
        if not all(map(math.isfinite, [sse, *grad, *diag])):
            raise DomainError(
                f"fit overflowed at iteration {it}: its sse or a derivative is not finite"
            )
        # |g_j| / (|r| |J_j|) is the cosine between r and row j.
        # Unsquared, so that no scale of the data overflows the test.
        # Python's sqrt is correctly rounded, as numpy's is.
        scale = GTOL * math.sqrt(sse)
        if all(abs(gj) <= scale * math.sqrt(d) for gj, d in zip(grad, diag)):
            return theta, sse, it, True
        H = m.newton(theta, GA)
        if H is None:
            H = A
        damping.flat[:: p + 1] = [1.0 if d <= 0.0 else d for d in diag]
        neg_g = -g
        while lam <= 1e14:
            step = solve1(H + lam * damping, neg_g)
            if all(map(math.isfinite, step.tolist())):
                cand = np.minimum(np.maximum(theta + step, lo), m.bound)
                sse_c = _sweep(m.run, cand, blocks, GA_c, sse)
                if sse_c <= sse:
                    rel_drop = (sse - sse_c) / max(sse, 1e-300)
                    theta, sse = cand, sse_c
                    GA, GA_c = GA_c, GA
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
    # The left half is read outward, through a reversed view.
    k = _first_true(past[:i_ref][::-1])
    left = E[0] if k is None else _interpolate(E, y, level, i_ref - k, i_ref - 1 - k)
    k = _first_true(past[i_ref + 1 :])
    right = E[-1] if k is None else _interpolate(E, y, level, i_ref + k, i_ref + 1 + k)
    return _positive_or_tenth_of_span(float(right - left), E)


def _first_true(mask: np.ndarray) -> int | None:
    """Index of the first True in mask, or None; argmax stops there."""
    if mask.size:
        k = int(mask.argmax())
        if mask[k]:
            return k
    return None


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
    elif has_peak:
        q = INIT_Q_CAP
        level = 0.5 * (y_max + min(float(y[0]), float(y[-1])))
        gamma = _width(E, y, i_max, level, rising=False)
        e_r = float(E[i_max])
    else:
        # y_max is an end sample here, so baseline >= 0.5*y_max >= 1e-3*y_max.
        level = 0.5 * (baseline + float(y[i_min]))
        gamma = _width(E, y, i_min, level, rising=True)
        return FanoParameters(E_r=float(E[i_min]), Gamma=gamma, q=0.0, sigma0=baseline)
    return FanoParameters(E_r=e_r, Gamma=gamma, q=q, sigma0=y_max / (1.0 + q * q))


def initial_guess_breit_wigner(curve: CrossSectionCurve) -> BreitWignerParameters:
    """Peak location, height, and full width at half maximum.

    Dip-only (window) data has no peak to read; the guess then centers
    on the dip with the shoulder height as scale, leaving the optimizer
    to do the rest.  Monotone data raises DegenerateCurveError.
    """
    E, y, i_max, i_min, y_max, has_peak, _ = _extrema(curve)
    if has_peak:
        e_r = float(E[i_max])
        gamma = _width(E, y, i_max, 0.5 * y_max, rising=False)
    else:
        # With no interior peak, y_max is the larger end sample: the shoulder.
        e_r = float(E[i_min])
        gamma = 0.5 * float(E[-1] - E[0])
    return BreitWignerParameters(E_r=e_r, Gamma=gamma, sigma0=y_max)


@dataclass(frozen=True)
class _Model:
    """Everything fit needs to know about one line shape.

    theta is the internal parameter vector the optimizer moves; bound
    is its symmetric clamp, |theta[i]| <= bound[i].  run(theta, E, J, t)
    is the model kernel, the generator that fills the (rows, n) J,
    whose last p rows are the Jacobian with f last, using the
    (scratch, n) t.  A kernel with rows > p writes rows - p
    second-order rows first; newton(theta, GA) then reads their sums
    from the sweep's GA and returns the Newton Hessian to step with,
    or None for the Gauss-Newton A, as it always does for a kernel
    without them.
    """

    params: type
    initial_guess: Callable[[CrossSectionCurve], ProfileParameters]
    to_theta: Callable[[ProfileParameters], list]
    from_theta: Callable[[np.ndarray], ProfileParameters]
    bound: np.ndarray
    run: Callable
    rows: int
    scratch: int
    newton: Callable = lambda theta, GA: None


# The initializers are looked up at call time, through this module's
# globals, so that wrapping them (for tracing, say) takes effect.
_MODELS = {
    FanoParameters.model: _Model(
        params=FanoParameters,
        initial_guess=lambda curve: initial_guess_fano(curve),
        to_theta=lambda g: [
            g.E_r,
            math.log(g.Gamma),
            math.atan(g.q),
            math.log(g.sigma0) + math.log1p(g.q * g.q),
        ],
        from_theta=lambda theta: FanoParameters(
            E_r=float(theta[0]),
            Gamma=math.exp(theta[1]),
            q=math.tan(theta[2]),
            sigma0=math.exp(theta[3]) * math.cos(theta[2]) ** 2,
        ),
        bound=np.array([math.inf, _LOG_BOUND, math.inf, _LOG_BOUND]),
        run=_model_jac_fano, rows=4, scratch=4,
    ),
    BreitWignerParameters.model: _Model(
        params=BreitWignerParameters,
        initial_guess=lambda curve: initial_guess_breit_wigner(curve),
        to_theta=lambda g: [g.E_r, math.log(g.Gamma), math.log(g.sigma0)],
        from_theta=lambda theta: BreitWignerParameters(
            E_r=float(theta[0]), Gamma=math.exp(theta[1]), sigma0=math.exp(theta[2])
        ),
        bound=np.array([math.inf, _LOG_BOUND, _LOG_BOUND]),
        run=_model_jac_bw, rows=6, scratch=2, newton=_newton_bw,
    ),
}


def fit(
    curve: CrossSectionCurve,
    model: str,
    guess: ProfileParameters | None = None,
) -> FitReport:
    """Least-squares fit of one model to a curve.

    model is "fano" or "breit_wigner".  When guess is omitted the
    geometric initializer runs first.  The fit minimizes the unweighted
    sum of squared residuals and is deterministic: identical curve,
    guess, and settings give identical reports.  Hitting the iteration
    cap reports the best parameters found with converged=False rather
    than raising.  A curve of four or more blocks starts from a fit on a
    subsample; iterations counts those of the full-data fit.
    """
    if not isinstance(curve, CrossSectionCurve):
        raise DomainError(f"expected a CrossSectionCurve, got {type(curve).__name__}")
    if len(curve) < MIN_CURVE_SAMPLES:
        raise DomainError(f"fit needs at least {MIN_CURVE_SAMPLES} samples, got {len(curve)}")
    m = _MODELS.get(model)
    if m is None:
        names = " or ".join(repr(name) for name in _MODELS)
        raise DomainError(f"unknown model {model!r}; use {names}")
    if guess is None:
        guess = m.initial_guess(curve)
    elif not isinstance(guess, m.params):
        raise DomainError(f"{model} fit requires {m.params.__name__} as guess")
    theta, E, y = np.array(m.to_theta(guess)), curve.energies, curve.sigmas
    work, stride = _workspace(m, min(E.size, _BLOCK)), -(-E.size // _BLOCK)
    if stride > 3:
        theta = _minimize(m, theta, E[::stride], y[::stride], work)[0]
    theta, sse, iterations, converged = _minimize(m, theta, E, y, work)
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
    return tuple(fit(curve, model) for model in _MODELS)


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
