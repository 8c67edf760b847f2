"""Tests for profile initializers and the damped least-squares fitter."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efano import fitter
from efano.errors import DegenerateCurveError, DomainError
from efano.fitter import (
    INIT_Q_CAP,
    MAX_ITERATIONS,
    Q_CAP,
    FitReport,
    compare_models,
    fit,
    initial_guess_breit_wigner,
    initial_guess_fano,
    report_to_json_dict,
)
from efano.profiles import (
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
    evaluate,
    synthesize,
)

from oracles import half_crossings_reference, minimize_reference

GRID = np.linspace(0.5, 3.5, 200)
FANO_TRUE = FanoParameters(E_r=1.63, Gamma=0.25, q=4.0, sigma0=1.0)
BW_TRUE = BreitWignerParameters(E_r=2.0, Gamma=0.5, sigma0=3.0)


def sse_against(curve: CrossSectionCurve, params) -> float:
    r = evaluate(curve.energies, params) - curve.sigmas
    return float(r @ r)


def rel(err_got, err_want):
    return abs(err_got - err_want) / abs(err_want)


class TestInitialGuessFano:
    def test_recovers_shape_roughly(self):
        curve = synthesize(FANO_TRUE, GRID)
        g = initial_guess_fano(curve)
        assert rel(g.E_r, FANO_TRUE.E_r) < 0.25
        assert rel(g.Gamma, FANO_TRUE.Gamma) < 0.25
        assert rel(g.q, FANO_TRUE.q) < 0.25
        assert rel(g.sigma0, FANO_TRUE.sigma0) < 0.25

    def test_negative_q_detected(self):
        true = FanoParameters(E_r=2.0, Gamma=0.3, q=-3.0, sigma0=1.0)
        g = initial_guess_fano(synthesize(true, GRID))
        assert g.q < 0.0
        assert rel(g.q, true.q) < 0.5

    def test_lone_peak_pins_q_at_cap(self):
        # A symmetric peak with no visible dip is the q -> inf limit;
        # the initializer starts at the cap instead of guessing blind.
        g = initial_guess_fano(synthesize(BW_TRUE, GRID))
        assert g.q == INIT_Q_CAP

    def test_pure_dip_starts_at_q_zero(self):
        dip = FanoParameters(E_r=1.8, Gamma=0.4, q=0.0, sigma0=2.0)
        g = initial_guess_fano(synthesize(dip, GRID))
        assert g.q == 0.0
        assert rel(g.E_r, dip.E_r) < 0.05
        assert rel(g.sigma0, dip.sigma0) < 0.25

    @pytest.mark.parametrize(
        "sigmas",
        [
            np.full(32, 2.0),
            np.linspace(0.1, 3.0, 32),
            np.linspace(3.0, 0.1, 32),
            np.zeros(32),
        ],
        ids=["flat", "rising", "falling", "zero"],
    )
    def test_degenerate_curves_raise(self, sigmas):
        curve = CrossSectionCurve(np.linspace(0.0, 1.0, 32), sigmas)
        with pytest.raises(DegenerateCurveError):
            initial_guess_fano(curve)


class TestInitialGuessBreitWigner:
    def test_recovers_peak(self):
        g = initial_guess_breit_wigner(synthesize(BW_TRUE, GRID))
        assert rel(g.E_r, BW_TRUE.E_r) < 0.05
        assert rel(g.Gamma, BW_TRUE.Gamma) < 0.05
        assert rel(g.sigma0, BW_TRUE.sigma0) < 0.05

    def test_dip_curve_still_yields_a_start(self):
        # No peak to measure: the fallback must still produce a usable,
        # valid starting point rather than raising.
        dip = FanoParameters(E_r=1.8, Gamma=0.4, q=0.0, sigma0=2.0)
        g = initial_guess_breit_wigner(synthesize(dip, GRID))
        assert g.Gamma > 0.0
        assert g.sigma0 > 0.0

    def test_monotone_raises(self):
        curve = CrossSectionCurve(np.linspace(0.0, 1.0, 32), np.linspace(0.1, 3.0, 32))
        with pytest.raises(DegenerateCurveError):
            initial_guess_breit_wigner(curve)


def _width_reference(E, y, i_ref, level, rising) -> float:
    # The sample-by-sample scan plus the initializers' tenth-of-span
    # fallback for a width that is not positive.
    width = half_crossings_reference(E, y, i_ref, level, rising)
    return width if width > 0.0 else 0.1 * float(E[-1] - E[0])


def _width_cases(y):
    """(i_ref, level) pairs the initializers use, plus levels that sit
    exactly on a sample or on a grid edge's value."""
    i_max, i_min = int(np.argmax(y)), int(np.argmin(y))
    y_max, y_min = float(y[i_max]), float(y[i_min])
    levels = {0.5 * y_max, 0.5 * (y_max + min(y[0], y[-1])), 0.5 * (max(y[0], y[-1]) + y_min)}
    levels |= {float(y[0]), float(y[-1]), float(y[y.size // 3]), y_max, y_min}
    refs = {i_max, i_min, 0, y.size // 2, y.size - 1}
    return [(i, lv) for i in sorted(refs) for lv in sorted(levels)]


WIDTH_CURVES = {
    "fano-noisy": lambda: synthesize(FANO_TRUE, GRID, 0.02, 5).sigmas,
    "fano-negative-q": lambda: synthesize(
        FanoParameters(E_r=2.0, Gamma=0.3, q=-3.0, sigma0=1.0), GRID, 0.05, 11
    ).sigmas,
    "lone-peak": lambda: synthesize(BW_TRUE, GRID, 0.01, 2).sigmas,
    "lone-dip": lambda: synthesize(
        FanoParameters(E_r=1.8, Gamma=0.4, q=0.0, sigma0=2.0), GRID, 0.01, 3
    ).sigmas,
    # Rounding to a few levels makes plateaus and tied extrema.
    "fano-rounded": lambda: np.round(4.0 * evaluate(GRID, FANO_TRUE)) / 4.0,
    "peak-rounded": lambda: np.round(3.0 * evaluate(GRID, BW_TRUE)) / 3.0,
    "dip-rounded": lambda: np.round(
        2.0 * evaluate(GRID, FanoParameters(E_r=2.0, Gamma=2.0, q=0.1, sigma0=2.0))
    ) / 2.0,
    # fit_large's length, on GRID's span.
    "fano-noisy-long": lambda: synthesize(
        FANO_TRUE, np.linspace(GRID[0], GRID[-1], 100_000), 0.02, 5
    ).sigmas,
}


class TestWidth:
    @pytest.mark.parametrize("name", sorted(WIDTH_CURVES))
    def test_matches_scan_bit_for_bit(self, name):
        y = WIDTH_CURVES[name]()
        E = np.linspace(GRID[0], GRID[-1], y.size)
        for i_ref, level in _width_cases(y):
            for rising in (False, True):
                got = fitter._width(E, y, i_ref, level, rising)
                want = _width_reference(E, y, i_ref, level, rising)
                assert got.hex() == want.hex(), (i_ref, level, rising)

    def test_crossing_at_grid_edge_and_on_a_sample(self):
        E = np.arange(7.0)
        y = np.array([1.0, 2.0, 3.0, 5.0, 3.0, 1.5, 1.0])
        # Falling to 1.0 crosses only at the two edge samples; to 3.0 it
        # lands exactly on samples 2 and 4.
        assert fitter._width(E, y, 3, 1.0, False) == 6.0
        assert fitter._width(E, y, 3, 3.0, False) == 2.0
        for level in (1.0, 1.25, 3.0, 4.0):
            want = _width_reference(E, y, 3, level, False)
            assert fitter._width(E, y, 3, level, False).hex() == want.hex()

    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=12).flatmap(
            lambda ys: st.tuples(
                st.just(ys),
                st.lists(st.integers(1, 3), min_size=len(ys), max_size=len(ys)),
                st.integers(0, len(ys) - 1),
                st.integers(0, 8),
                st.booleans(),
            )
        )
    )
    def test_property_matches_scan(self, case):
        ys, steps, i_ref, level8, rising = case
        E = np.cumsum(np.array(steps, dtype=np.float64)) / 2.0
        y = np.array(ys, dtype=np.float64)
        level = level8 / 2.0
        got = fitter._width(E, y, i_ref, level, rising)
        assert got.hex() == _width_reference(E, y, i_ref, level, rising).hex()


class TestFitNoiseless:
    def test_fano_round_trip_is_numerically_exact(self):
        report = fit(synthesize(FANO_TRUE, GRID), "fano")
        assert report.converged
        assert not report.lorentzian_limit
        p = report.params
        assert rel(p.E_r, FANO_TRUE.E_r) < 1e-9
        assert rel(p.Gamma, FANO_TRUE.Gamma) < 1e-9
        assert rel(p.q, FANO_TRUE.q) < 1e-9
        assert rel(p.sigma0, FANO_TRUE.sigma0) < 1e-9
        assert report.sse < 1e-20

    def test_breit_wigner_round_trip(self):
        report = fit(synthesize(BW_TRUE, GRID), "breit_wigner")
        assert report.converged
        p = report.params
        assert rel(p.E_r, BW_TRUE.E_r) < 1e-9
        assert rel(p.Gamma, BW_TRUE.Gamma) < 1e-9
        assert rel(p.sigma0, BW_TRUE.sigma0) < 1e-9
        assert report.sse < 1e-20

    def test_randomized_round_trips(self):
        # Property: a noiseless curve is recovered to 1e-6 relative in
        # every parameter across the physical parameter box.
        rng = np.random.default_rng(2024)
        for trial in range(100):
            true = FanoParameters(
                E_r=float(rng.uniform(1.0, 3.0)),
                Gamma=float(rng.uniform(0.1, 0.5)),
                q=float(rng.uniform(0.5, 8.0) * rng.choice([-1.0, 1.0])),
                sigma0=float(rng.uniform(0.5, 2.0)),
            )
            grid = np.linspace(true.E_r - 8.0 * true.Gamma, true.E_r + 8.0 * true.Gamma, 200)
            report = fit(synthesize(true, grid), "fano")
            p = report.params
            for name in ("E_r", "Gamma", "q", "sigma0"):
                got, want = getattr(p, name), getattr(true, name)
                assert rel(got, want) < 1e-6, (trial, name, got, want)

    def test_explicit_guess_is_recorded_and_used(self):
        curve = synthesize(FANO_TRUE, GRID)
        report = fit(curve, "fano", guess=FANO_TRUE)
        assert report.initial_guess == FANO_TRUE
        assert report.iterations <= 3
        assert report.sse < 1e-20


class TestFitNoisy:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_parameters_within_two_percent(self, seed):
        curve = synthesize(FANO_TRUE, GRID, 0.01, seed=seed)
        p = fit(curve, "fano").params
        assert rel(p.E_r, FANO_TRUE.E_r) < 0.02
        assert rel(p.Gamma, FANO_TRUE.Gamma) < 0.02
        assert rel(p.q, FANO_TRUE.q) < 0.02

    def test_reported_sse_matches_parameters(self):
        curve = synthesize(FANO_TRUE, GRID, 0.01, seed=11)
        report = fit(curve, "fano")
        assert report.sse == pytest.approx(sse_against(curve, report.params), rel=1e-9)

    def test_fit_is_a_local_minimum(self):
        # Nudging any single fitted parameter by 1 percent must not
        # lower the sum of squares.
        curve = synthesize(FANO_TRUE, GRID, 0.01, seed=11)
        report = fit(curve, "fano")
        base = sse_against(curve, report.params)
        for name in ("E_r", "Gamma", "q", "sigma0"):
            for factor in (0.99, 1.01):
                kwargs = {
                    k: getattr(report.params, k)
                    for k in ("E_r", "Gamma", "q", "sigma0")
                }
                kwargs[name] = kwargs[name] * factor
                assert sse_against(curve, FanoParameters(**kwargs)) > base

    def test_deterministic(self):
        curve = synthesize(FANO_TRUE, GRID, 0.01, seed=3)
        a = fit(curve, "fano")
        b = fit(curve, "fano")
        assert a.params == b.params
        assert a.sse == b.sse
        assert a.iterations == b.iterations

    def test_overflowing_trial_steps_do_not_warn(self):
        # A Breit-Wigner fit of this dip-dominated Fano curve runs Gamma
        # toward 1e304; trial steps that overflow are rejected by the
        # finite-SSE test and must not print numpy RuntimeWarnings.
        dip = FanoParameters(
            -2.7854247906515317, 0.5877731544834861,
            -0.19136805107370286, 0.0018071850116263843,
        )
        grid = np.linspace(-4.961885618584937, -0.989946375366578, 386)
        curve = synthesize(dip, grid, 0.0041147263167317085, seed=765839603512179589)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit(curve, "breit_wigner")
        assert math.isfinite(report.sse)


class TestSweep:
    """A sweep stops at the first block whose running sse passes limit,
    so a rejected trial does no derivative or Gram work past its
    values there."""

    def sweep(self, limit):
        sizes = []

        def kernel(theta, E, J, t):
            sizes.append(E.size)
            return fitter._model_jac_bw(theta, E, J, t)

        # Breit-Wigner values are at most sigma0 = 1, so every sample of
        # y = 5 adds at least 16 to the sse.  NaN sentinels show what
        # the sweep leaves unwritten.  The kernel writes six rows: three
        # second-order rows, then J with f last.
        E = np.linspace(-3.0, 3.0, 12)
        y = np.full(12, 5.0)
        W, t = np.full((7, 4), np.nan), np.empty((2, 4))
        blocks = [(E[s : s + 4], y[s : s + 4], W[:6], t, W[6], W[3:].T) for s in range(0, 12, 4)]
        GA = np.full((6, 4), np.nan)
        sse = fitter._sweep(kernel, np.zeros(3), blocks, GA, limit)
        return sse, sizes, W[:6], GA

    def test_stops_after_the_block_that_passes_limit(self):
        sse, sizes, J, GA = self.sweep(1.0)
        assert sizes == [4]
        assert sse > 1.0
        # The stop comes after the model values, before the block's
        # derivative and second-order rows and their sums.
        assert np.isfinite(J[-1]).all()
        assert np.isnan(J[:-1]).all()
        assert np.isnan(GA).all()

    def test_unbounded_sweep_sums_every_block(self):
        sse, sizes, _, GA = self.sweep(math.inf)
        assert sizes == [4, 4, 4]
        E, rows = np.linspace(-3.0, 3.0, 12), np.empty((6, 12))
        for _ in fitter._model_jac_bw(np.zeros(3), E, rows, np.empty((2, 12))):
            pass
        J = rows[3:]
        r = J[-1] - 5.0
        assert sse == pytest.approx(r @ r, rel=1e-15)
        np.testing.assert_allclose(GA[:, 3], rows @ r, rtol=1e-14, atol=1e-13)
        np.testing.assert_allclose(GA[:, :3], rows @ J.T, rtol=1e-14, atol=1e-13)

    def test_a_limit_equal_to_the_sse_keeps_every_block(self):
        # An accepted trial's sse may equal the current one.
        sse = self.sweep(math.inf)[0]
        assert self.sweep(sse)[:2] == (sse, [4, 4, 4])


class TestGramGemm:
    """_sweep takes J J^T and J @ r of a block, and the sums of any
    second-order rows against r, from one 2-D matmul of the kernel's
    rows against the block's (m, p + 1) view [J; r]^T of the workspace.
    For a full block and for a tail block, whose views are strided in
    the wider workspace, the product must be rows @ [J; r].T of
    contiguous copies bit for bit, and BLAS must read the views in
    place."""

    @staticmethod
    def kernel(theta, E, J, t):
        J[:] = E
        yield

    @staticmethod
    def blocks(rows, y, width, n2=0):
        # Blocks of width samples, the last one shorter, in one
        # workspace; each block's "E" is the kernel rows the stub
        # kernel copies in, n2 second-order rows and then J.
        rows_n, n = rows.shape
        W = np.empty((rows_n + 1, width))
        return [(rows[:, s : s + k], y[s : s + k], W[:-1, :k], None, W[-1, :k], W[n2:, :k].T)
                for s in range(0, n, width) for k in [min(width, n - s)]]

    @settings(deadline=None)
    @given(
        p=st.sampled_from([3, 4]),
        n2=st.sampled_from([0, 3]),
        width=st.integers(2, fitter._BLOCK),
        tail=st.floats(0.0, 1.0),
        scales=st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0**e), min_size=4, max_size=4),
        seed=st.integers(0, 2**32),
    )
    def test_each_block_is_one_gemm(self, p, n2, width, tail, scales, seed):
        # A full block, then a tail block of 1 to width - 1 samples.
        m = 1 + int(tail * (width - 2))
        rng = np.random.default_rng(seed)
        scale = np.array(scales[:p] + scales[:n2])[:, None]
        rows = rng.standard_normal((n2 + p, width + m)) * scale
        y = rng.standard_normal(width + m) * scales[-1]
        blocks = self.blocks(rows, y, width, n2)
        want = []
        for E, y_blk, *_ in blocks:
            rows_blk = E.copy()
            want.append(rows_blk @ np.vstack([rows_blk[n2:], rows_blk[-1] - y_blk]).T)
        GA = np.empty((n2 + p, p + 1))
        fitter._sweep(self.kernel, None, blocks, GA, math.inf)
        assert GA.tobytes() == (want[0] + want[1]).tobytes()

    def test_no_block_sized_temporary(self):
        # Two full blocks and a tail of 3616 samples, on which np.dot
        # would copy both strided operands.
        n = 20_000
        rng = np.random.default_rng(0)
        blocks = self.blocks(rng.standard_normal((4, n)), rng.standard_normal(n), fitter._BLOCK)
        GA = np.empty((4, 5))
        tracemalloc.start()
        try:
            fitter._sweep(self.kernel, None, blocks, GA, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n % fitter._BLOCK) * 8


class TestDampedSolve:
    """_minimize calls numpy's private solve gufunc without the
    np.linalg.solve wrapper; these pin it to the public solve, so a
    numpy upgrade that changes either shows here."""

    @staticmethod
    def damped(A, diag, lam):
        damping = np.zeros(A.shape)
        damping.flat[:: A.shape[0] + 1] = diag
        return A + lam * damping

    @given(
        p=st.sampled_from([3, 4]),
        lam=st.floats(-12.0, 14.0).map(lambda e: 10.0**e) | st.floats(1e-12, 1e14),
        data=st.data(),
    )
    def test_matches_public_solve_bit_for_bit(self, p, lam, data):
        def vector(size, values):
            return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

        J = vector(p * 6, st.floats(-1e3, 1e3)).reshape(p, 6)
        diag = vector(p, st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
        g = vector(p, st.floats(-1e3, 1e3))
        M = self.damped(J @ J.T, diag, lam)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in _minimize
            got = fitter.solve1(M, -g)
        try:
            want = np.linalg.solve(M, -g)
        except np.linalg.LinAlgError:  # equal rows of J, with damping below their rounding
            assert not np.isfinite(got).all()
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [3, 4])
    def test_singular_system_gives_a_non_finite_step_without_warning(self, p):
        M = self.damped(np.ones((p, p)), np.zeros(p), 1.0)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            step = fitter.solve1(M, -np.ones(p))
        assert not np.isfinite(step).all()


@st.composite
def _noisy_curves(draw, max_points, fano=True, min_noise=0.0):
    """A noisy curve on a grid of a few widths around the resonance:
    Fano, a large-residual problem for the Breit-Wigner fit, or with
    fano=False Breit-Wigner."""
    e_r = draw(st.floats(-10.0, 10.0))
    gamma = draw(st.floats(0.01, 5.0))
    q = [draw(st.floats(-8.0, 8.0))] if fano else []
    params = (FanoParameters if fano else BreitWignerParameters)(
        e_r, gamma, *q, draw(st.floats(1e-3, 1e3))
    )
    lo = e_r - gamma * draw(st.floats(1.0, 20.0))
    hi = e_r + gamma * draw(st.floats(1.0, 20.0))
    grid = np.linspace(lo, hi, draw(st.integers(8, max_points)))
    noise = draw(st.floats(min_noise, 0.05))
    return synthesize(params, grid, noise, draw(st.integers(0, 2**32)))


class TestNewtonStep:
    """The Breit-Wigner fit steps with the exact Hessian A + S of sse/2
    where A + 2S is positive definite, and with the Gauss-Newton A
    elsewhere."""

    BW = fitter._MODELS["breit_wigner"]

    @staticmethod
    def exact_hessian(mpmath, theta, E, y):
        """The Hessian of sse/2 in (E_r, log Gamma, log sigma0), by
        mpmath's differentiation of the 30-digit sum of squares."""
        Em = [mpmath.mpf(e) for e in E]
        ym = [mpmath.mpf(v) for v in y]

        def half_sse(e_r, lgam, lsig):
            k, sigma0 = 2 / mpmath.exp(lgam), mpmath.exp(lsig)
            return sum((sigma0 / (1 + ((e - e_r) * k) ** 2) - v) ** 2 for e, v in zip(Em, ym)) / 2

        def entry(i, j):
            order = tuple((k == i) + (k == j) for k in range(3))
            return float(mpmath.diff(half_sse, [mpmath.mpf(v) for v in theta], order))

        return np.array([[entry(i, j) for j in range(3)] for i in range(3)])

    @settings(max_examples=60, deadline=None)
    @given(curve=_noisy_curves(64), at_fit=st.booleans())
    def test_hessian_matches_mpmath_and_the_guard_its_sign(self, curve, at_fit):
        mpmath = pytest.importorskip("mpmath")
        try:
            report = fit(curve, "breit_wigner")
        except DegenerateCurveError:
            assume(False)
        theta = np.array(self.BW.to_theta(report.params if at_fit else report.initial_guess))
        E, y = curve.energies, curve.sigmas
        W, t, GA = np.empty((7, E.size)), np.empty((2, E.size)), np.empty((6, 4))
        fitter._sweep(self.BW.run, theta, [(E, y, W[:6], t, W[6], W[3:].T)], GA, math.inf)
        H = self.BW.newton(theta, GA)
        with mpmath.workdps(30):
            H_exact = self.exact_hessian(mpmath, theta, E, y)
        # Entries in units of the curvature along each axis, A's and S's.
        A = GA[3:, :3]
        scale = np.sqrt(np.diag(A) + np.abs(np.diag(H_exact - A)))
        assume(np.isfinite(H_exact).all() and (scale > 1e-300).all())
        units = np.outer(scale, scale)
        lowest = np.linalg.eigvalsh((2.0 * H_exact - A) / units).min()  # of A + 2S
        if H is None:
            assert lowest < 1e-9
        else:
            assert lowest > -1e-9
            assert (np.abs(np.array(H) - H_exact) / units).max() < 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_guard_declines_nan_and_inf_without_raising(self, value):
        GA = np.zeros((6, 4))
        GA[3:, :3] = np.eye(3)
        for i in range(6):
            bad = GA.copy()
            bad[i, 3] = value
            assert self.BW.newton(np.zeros(3), bad) is None
        # A singular A + 2S, whose first pivot is 0, is declined too.
        assert self.BW.newton(np.zeros(3), np.zeros((6, 4))) is None

    def test_non_finite_steps_stop_at_the_clamped_start_without_warning(self):
        # A NaN Hessian makes every damped step non-finite, so each is
        # rejected until the damping passes 1e14.  log Gamma = 800 is
        # clamped to the bound 700 before the first sweep.
        curve = synthesize(FANO_TRUE, GRID, 0.01, seed=7)
        theta0 = np.array(self.BW.to_theta(initial_guess_breit_wigner(curve)))
        theta0[1] = 800.0
        start = np.array([theta0[0], 700.0, theta0[2]])
        nan_newton = dataclasses.replace(
            self.BW, newton=lambda theta, GA: np.full((3, 3), np.nan)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, _, it, converged = fitter._minimize(
                nan_newton, theta0, curve.energies, curve.sigmas
            )
        assert (it, converged) == (1, True)
        assert theta.tobytes() == start.tobytes()
        # The model's own Hessian moves on from the same start, so the
        # stop above is not the gradient test's.
        assert fitter._minimize(self.BW, theta0, curve.energies, curve.sigmas)[2] > 1

    def test_guard_keeps_newton_from_running_off_to_infinite_gamma(self):
        # Curve 215 of the fit_small pool of seed 20261024.  With only
        # "A + S positive definite" as the guard, the Breit-Wigner fit
        # ends at Gamma ~ 1e304 with sse 379,499; Gauss-Newton and
        # scipy's MINPACK refit both reach 291,669.13.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        params = FanoParameters(
            4.856698570273032, 0.1522572294234116, 0.22356126439127977, 73.28732383710519
        )
        grid = np.linspace(4.406573148677699, 5.439317606377427, 816)
        curve = synthesize(params, grid, 0.012495228288600713, seed=8057852870932975010)
        report = fit(curve, "breit_wigner")
        E, y = curve.energies, curve.sigmas

        def residual(theta):
            e_r, lgam, lsig = theta
            return math.exp(lsig) / (1.0 + ((E - e_r) * 2.0 / math.exp(lgam)) ** 2) - y

        ref = scipy_optimize.least_squares(
            residual, self.BW.to_theta(report.initial_guess), method="lm",
            x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=20000,
        )
        scipy_sse = math.fsum(residual(ref.x) ** 2)
        assert scipy_sse == pytest.approx(291_669.13, rel=1e-7)
        assert report.sse <= scipy_sse * (1.0 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(curve=_noisy_curves(2000))
    def test_newton_fit_is_no_worse_than_gauss_newton(self, curve):
        # On a resolved peak: both fits end with E_r inside the grid and
        # Gamma between the sample spacing and the span.  Where the
        # data do not determine the peak (a valley running off to
        # Gamma -> inf, a spike between samples), each path stops
        # somewhere along it, and either may end lower; CHANGES.md
        # records how often each does.
        try:
            report = fit(curve, "breit_wigner")
        except DegenerateCurveError:
            assume(False)
        theta, gn_sse, _, _ = minimize_reference(
            self.BW, np.array(self.BW.to_theta(report.initial_guess)),
            curve.energies, curve.sigmas, newton=False,
        )
        E = curve.energies
        spacing, span = E[1] - E[0], E[-1] - E[0]
        for p in (report.params, self.BW.from_theta(theta)):
            assume(E[0] <= p.E_r <= E[-1] and spacing <= p.Gamma <= span)
        assert report.sse <= gn_sse * (1.0 + 1e-9)


class TestLorentzianLimit:
    """The Fano fit moves the phase phi = atan q, in which the
    Breit-Wigner line is the interior point phi = pi/2."""

    def test_fano_nests_breit_wigner(self):
        # On a pure Lorentzian the best Fano is phi = pi/2: the fit must
        # end with |q| = |tan phi| at Q_CAP or beyond, flag it, and
        # converge with a negligible sum of squares.
        curve = synthesize(BW_TRUE, GRID)
        report = fit(curve, "fano")
        assert report.converged
        assert report.lorentzian_limit
        assert abs(report.params.q) >= Q_CAP
        assert report.sse < 1e-6
        peak = report.params.sigma0 * (1.0 + report.params.q**2)
        assert rel(peak, BW_TRUE.sigma0) < 1e-6

    def test_true_fano_is_not_flagged(self):
        report = fit(synthesize(FANO_TRUE, GRID), "fano")
        assert not report.lorentzian_limit

    @pytest.mark.parametrize(
        "params, grid, seed",
        [
            (FanoParameters(1.5, 0.3, 15.0, 1.0), np.linspace(-0.3, 3.3, 200), 1),
            (FanoParameters(0.0, 1.0, 12.0, 1.0), np.linspace(-7.5, 1.5416666666666667, 400), 2),
        ],
        ids=["lone_peak", "large_q"],
    )
    def test_large_q_converges_inside_the_cap(self, params, grid, seed):
        # A clamp on q held both fits against |q| = Q_CAP for the whole
        # iteration budget, short of the Breit-Wigner fit they contain.
        fano_rep, bw_rep = compare_models(synthesize(params, grid, 0.01, seed))
        assert fano_rep.converged
        assert abs(fano_rep.params.q) < Q_CAP
        assert not fano_rep.lorentzian_limit
        assert fano_rep.sse < bw_rep.sse

    @settings(max_examples=60, deadline=None)
    @given(curve=_noisy_curves(2000, fano=False, min_noise=1e-3))
    def test_fano_fit_is_no_worse_than_the_line_it_contains(self, curve):
        try:
            fano_rep, bw_rep = compare_models(curve)
        except DegenerateCurveError:
            assume(False)
        assert fano_rep.sse <= bw_rep.sse * (1.0 + 1e-4)


class TestCompareModels:
    def test_order_and_models(self):
        fano_rep, bw_rep = compare_models(synthesize(FANO_TRUE, GRID))
        assert fano_rep.model == "fano"
        assert bw_rep.model == "breit_wigner"
        assert isinstance(fano_rep, FitReport)

    def test_asymmetric_data_punishes_symmetric_model(self):
        fano_rep, bw_rep = compare_models(synthesize(FANO_TRUE, GRID))
        assert bw_rep.sse > 10.0 * max(fano_rep.sse, 1e-20)


class TestFitValidation:
    def test_unknown_model(self):
        with pytest.raises(DomainError):
            fit(synthesize(FANO_TRUE, GRID), "voigt")

    def test_guess_type_mismatch(self):
        curve = synthesize(FANO_TRUE, GRID)
        with pytest.raises(DomainError):
            fit(curve, "fano", guess=BW_TRUE)
        with pytest.raises(DomainError):
            fit(curve, "breit_wigner", guess=FANO_TRUE)

    def test_curve_too_small_for_fitting(self):
        curve = CrossSectionCurve([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
        with pytest.raises(DomainError):
            fit(curve, "breit_wigner")

    @pytest.mark.parametrize(
        "call", [lambda: fit([0.0, 1.0], "fano"), lambda: compare_models(None)],
        ids=["list", "none"],
    )
    def test_non_curve_raises(self, call):
        with pytest.raises(DomainError, match="expected a CrossSectionCurve"):
            call()

    def test_iteration_budget_is_generous(self):
        assert MAX_ITERATIONS >= 100


class TestReportToJsonDict:
    def test_fano_fields_in_order(self):
        report = fit(synthesize(FANO_TRUE, GRID), "fano")
        d = report_to_json_dict(report)
        assert list(d) == [
            "model", "E_r", "Gamma", "q", "sigma0", "sse", "iterations", "converged",
        ]
        assert d["model"] == "fano"
        json.dumps(d)

    def test_breit_wigner_fields_in_order(self):
        report = fit(synthesize(BW_TRUE, GRID), "breit_wigner")
        d = report_to_json_dict(report)
        assert list(d) == [
            "model", "E_r", "Gamma", "sigma0", "sse", "iterations", "converged",
        ]
        assert d["converged"] is True
        json.dumps(d)


class TestEquivariance:
    def noisy_curve(self):
        return synthesize(FANO_TRUE, GRID, 0.01, seed=17)

    def noisy_curves(self):
        """Each model's own noisy curve, keyed by model name."""
        return {
            "fano": self.noisy_curve(),
            "breit_wigner": synthesize(BW_TRUE, GRID, 0.01, seed=17),
        }

    @staticmethod
    def assert_params_match(pb, want: dict):
        for k, v in want.items():
            assert rel(getattr(pb, k), v) < 1e-9, (k, getattr(pb, k), v)

    @pytest.mark.parametrize(
        "c", [1000.0, 0.125, 3.7, 1e-24, 1e-12, 1e-6, 1e6, 1e12, 1e100, 1e150]
    )
    def test_vertical_scale(self, c):
        for model, base in self.noisy_curves().items():
            scaled = CrossSectionCurve(base.energies, c * base.sigmas)
            pa = fit(base, model).params
            pb = fit(scaled, model).params
            want = vars(pa) | {"sigma0": c * pa.sigma0}
            self.assert_params_match(pb, want)

    @pytest.mark.parametrize("c", [1e-6, 0.01, 3.7, 1e4])
    def test_energy_rescale(self, c):
        # E and Gamma times c; q and sigma0 do not move.
        for model, base in self.noisy_curves().items():
            stretched = CrossSectionCurve(c * base.energies, base.sigmas)
            pa = fit(base, model).params
            pb = fit(stretched, model).params
            want = vars(pa) | {"E_r": c * pa.E_r, "Gamma": c * pa.Gamma}
            self.assert_params_match(pb, want)

    def test_huge_scale_takes_the_same_iterations(self):
        # A squared form of the gradient test overflows to inf <= inf
        # at this scale and stops the fit after one iteration.
        base = self.noisy_curve()
        scaled = CrossSectionCurve(base.energies, 1e100 * base.sigmas)
        assert fit(scaled, "fano").iterations == fit(base, "fano").iterations

    @pytest.mark.parametrize("c", [1e153, 1e160])
    @pytest.mark.parametrize("model", ["fano", "breit_wigner"])
    def test_overflowing_scale_raises(self, c, model):
        # On this curve the Gram sums overflow from c ~ 5.2e152 (Fano)
        # and ~8.2e152 (Breit-Wigner).  At 1e153 the Fano fit ended 2.8x
        # worse with converged=True; from 1e155 it reported sse = inf.
        base = synthesize(FanoParameters(0, 1, 2, 1), np.linspace(-3, 3, 50), 0.01, 3)
        scaled = CrossSectionCurve(base.energies, c * base.sigmas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^fit overflowed at iteration 1: "):
                fit(scaled, model)

    @pytest.mark.parametrize("shift", [-5.0, 12.5])
    def test_energy_shift(self, shift):
        base = self.noisy_curve()
        moved = CrossSectionCurve(base.energies + shift, base.sigmas)
        pa = fit(base, "fano").params
        pb = fit(moved, "fano").params
        assert abs(pb.E_r - (pa.E_r + shift)) < 1e-9 * max(1.0, abs(pa.E_r + shift))
        assert rel(pb.Gamma, pa.Gamma) < 1e-9
        assert rel(pb.q, pa.q) < 1e-9
        assert rel(pb.sigma0, pa.sigma0) < 1e-9
