"""The fitter's output, pinned to the bit.

tests/golden/fit_reports.json holds, for a set of seeded curves, every
field of the FitReport that each model's fit returns, floats as
float.hex.  Any change to the optimizer's arithmetic, down to the order
of one multiply, shows up here.  Regenerate the file (only for a change
that is meant to move fit results) with

    PYTHONPATH=src python tests/test_fit_bits.py

The golden check also runs in subprocesses under one and two BLAS
threads: the fit sweeps the data in blocks small enough that no BLAS
call splits its sums across threads, so the bits must not move.

The kernel tests check f, every Jacobian row of each model and the
Breit-Wigner kernel's second-order rows against 40-digit mpmath, to a
few ulp of the terms each entry sums, and at the overflow edge against
the allocating kernel in tests/oracles.py.  The sweep tests check fit
against the whole-array minimizer in tests/oracles.py: bit for bit up
to one block of samples, to 1e-13 in the sse beyond it, where from
four blocks on both run the same two stages.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efano import fitter
from efano.errors import DegenerateCurveError
from efano.fitter import (
    _BLOCK,
    _MODELS,
    Q_CAP,
    _minimize,
    compare_models,
    fit,
)
from efano.profiles import BreitWignerParameters, FanoParameters, evaluate, synthesize

from oracles import minimize_reference, model_jac_fano_reference

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden" / "fit_reports.json"

# (model, params, e_min, e_max, points, noise, seed).  Fano and
# Breit-Wigner curves at 200, 2000 and 10^5 samples; case 3 is a lone
# peak with q = 15 and the tiny-sigma0 one tests scale.  The 10^5-sample
# cases 5, 6 and 9 start from a fit on a subsample.  The full-data fits
# take three exits of _minimize: 13 stop on the sse stall, the
# Breit-Wigner fits of cases 0, 2, 3, 4, 5, 7 and 9 and the Fano fit of
# case 8 on the gtol test, and the Breit-Wigner fit of the last case,
# after 5 iterations, where no damping level gives an improving step.
# None reaches the iteration cap; test_iteration_cap_exit takes that exit.
CASES = [
    ("fano", (1.63, 0.25, 4.0, 1.0), 0.5, 3.5, 200, 0.01, 7),
    ("fano", (2.0, 0.4, -2.5, 5.0), 0.0, 4.0, 2000, 0.02, 2),
    ("fano", (-1.0, 0.8, 0.3, 2.0), -4.0, 2.0, 200, 0.01, 3),
    ("fano", (1.5, 0.3, 15.0, 1.0), -0.3, 3.3, 200, 0.01, 1),
    ("fano", (0.0, 1.0, 4.0, 1e-12), -8.0, 8.0, 2000, 0.01, 3),
    ("fano", (1.63, 0.25, 4.0, 1.0), 0.5, 3.5, 100_000, 0.01, 11),
    ("fano", (-3.0, 2.0, -1.5, 40.0), -12.0, 4.0, 100_000, 0.005, 12),
    ("breit_wigner", (2.0, 0.5, 3.0), 0.5, 3.5, 200, 0.01, 4),
    ("breit_wigner", (0.0, 0.05, 1e3), -0.5, 0.5, 2000, 0.03, 5),
    ("breit_wigner", (4.0, 3.0, 0.2), -8.0, 16.0, 100_000, 0.01, 6),
    (
        "fano",
        (-0.42733563129955066, 1.113426123463388, 0.17376602692822551, 0.022885263673654496),
        float.fromhex("-0x1.41cf3f4b2d525p+3"),
        float.fromhex("0x1.f9c146c87320ap+1"),
        128,
        0.01,
        1178252430,
    ),
]

_PARAMS = {"fano": FanoParameters, "breit_wigner": BreitWignerParameters}


def _curve(case):
    model, params, e_min, e_max, points, noise, seed = case
    grid = np.linspace(e_min, e_max, points)
    return synthesize(_PARAMS[model](*params), grid, noise, seed)


def _hex_fields(obj) -> dict:
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, float):
            out[f.name] = float.hex(v)
        elif hasattr(v, "__dataclass_fields__"):
            out[f.name] = {k: float.hex(x) for k, x in asdict(v).items()}
        else:
            out[f.name] = v
    return out


def _entry(case) -> dict:
    return {
        "curve": list(case),
        "reports": [_hex_fields(r) for r in compare_models(_curve(case))],
    }


def _golden() -> list:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("i", range(len(CASES)))
def test_fit_reports_match_golden_bits(i):
    want = _golden()[i]
    case = CASES[i]
    assert want["curve"] == [case[0], list(case[1]), *case[2:]]
    assert _entry(case)["reports"] == want["reports"]


def test_golden_covers_every_case():
    assert len(_golden()) == len(CASES)


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_iteration_cap_exit(monkeypatch, model):
    curve = _curve(CASES[3])
    full = fit(curve, model)
    monkeypatch.setattr(fitter, "MAX_ITERATIONS", 2)
    report = fit(curve, model)
    assert full.iterations > 2
    assert (report.iterations, report.converged) == (2, False)
    r = evaluate(curve.energies, report.initial_guess) - curve.sigmas
    assert full.sse <= report.sse < float(r @ r)


# Prints the indices of the golden cases whose reports differ.
_GOLDEN_CHECK = """
import json, test_fit_bits as t
want = t._golden()
bad = [i for i, c in enumerate(t.CASES) if t._entry(c)["reports"] != want[i]["reports"]]
print(json.dumps(bad))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_bits_whatever_the_blas_thread_count(threads):
    # OpenBLAS reads its thread count when it loads, so each count
    # needs a process of its own.
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join(filter(None, path)),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHECK],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# The kernels' accuracy contract is drawn on a domain where no
# intermediate leaves the normal range: E_r, the grid start and the
# Fano phase are 0 or at least 1e-3 in magnitude, |log Gamma| <= 50 and
# the log scale is within 200 of 0.  |eps| then stays below ~1e27 on
# either side.  The phase spans a period and more, through pi/2, the
# Breit-Wigner line, and atan(Q_CAP), where lorentzian_limit starts.
_MAG = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
_PHI = (
    st.sampled_from([0.0, math.pi / 2, math.atan(Q_CAP)])
    | st.floats(1e-3, 4.0)
    | st.floats(-4.0, -1e-3)
)
_LGAM = st.floats(-50.0, 50.0)
_LSCALE = st.floats(-200.0, 200.0)
# Bound on each entry's error, in units of 2^-52 of the size of the
# terms it is computed from (measured worst: 4.6).
_ULPS = 8


@st.composite
def _grids(draw):
    lo = draw(_MAG)
    span = draw(st.floats(1e-6, 1e4))
    return np.linspace(lo, lo + span, draw(st.integers(1, 64)))


_FANO = _MODELS["fano"]
_BW = _MODELS["breit_wigner"]


def _in_place(m, theta, E):
    """The rows a model's kernel fills in place: any second-order rows,
    then the Jacobian with f last."""
    J = np.empty((m.rows, E.size))
    for _ in m.run(theta, E, J, np.empty((m.scratch, E.size))):
        pass
    return J


def _exact_fano(mpmath, theta, E):
    """Rows of the exact Fano Jacobian in the phase phi at the kernel's
    own scalars (Gamma, peak, sin phi and cos phi), and per entry the
    size of the terms it sums: |s| + |eps*c| for u = s + eps*c and |c| +
    |eps*s| for c - eps*s, whose rounding no kernel avoids."""
    E_r, lgam, phi, lpeak = theta
    two_g = 2 / mpmath.mpf(math.exp(lgam))
    peak = mpmath.mpf(math.exp(lpeak))
    s, c = mpmath.mpf(math.sin(phi)), mpmath.mpf(math.cos(phi))
    rows, sizes = [], []
    for e in E:
        eps = (mpmath.mpf(e) - mpmath.mpf(E_r)) * two_g
        D = 1 + eps * eps
        u, v = s + eps * c, c - eps * s
        tu, tv = abs(s) + abs(eps * c), abs(c) + abs(eps * s)
        m = 2 * peak / (D * D)  # d f/d eps over u*v
        rows.append([-two_g * m * u * v, -eps * m * u * v,
                     2 * peak * u * v / D, peak * u * u / D])
        sizes.append([two_g * m * tu * tv, abs(eps) * m * tu * tv,
                      2 * peak * tu * tv / D, peak * tu * tu / D])
    return rows, sizes


def _exact_bw(mpmath, theta, E):
    """Rows f_ee*{1, eps, eps^2} of the exact second derivative f_ee =
    sigma0*(6 eps^2 - 2)/D^3 and of the exact Breit-Wigner Jacobian, at
    the kernel's own scalars.  6 eps^2 - 2 sums terms of opposite sign,
    so the size of f_ee is sigma0*(6 eps^2 + 2)/D^3; no Jacobian entry
    does, so each is its own size."""
    E_r, lgam, lsig = (mpmath.mpf(x) for x in theta)
    two_g = 2 / mpmath.mpf(math.exp(lgam))
    sigma0 = mpmath.mpf(math.exp(lsig))
    rows, sizes = [], []
    for e in E:
        eps = (mpmath.mpf(e) - E_r) * two_g
        D = 1 + eps * eps
        m = 2 * eps * sigma0 / (D * D)  # -d f/d eps
        f_ee = sigma0 * (6 * eps * eps - 2) / D**3
        size = sigma0 * (6 * eps * eps + 2) / D**3
        jac = [two_g * m, eps * m, sigma0 / D]
        rows.append([f_ee, f_ee * eps, f_ee * eps * eps, *jac])
        sizes.append([size, size * abs(eps), size * eps * eps, *map(abs, jac)])
    return rows, sizes


def _assert_accurate(m, exact, theta, E):
    mpmath = pytest.importorskip("mpmath")
    J = _in_place(m, theta, E)
    assert np.isfinite(J).all()
    with mpmath.workdps(40):
        rows, sizes = exact(mpmath, theta, E)
        for i, (row, size) in enumerate(zip(rows, sizes)):
            for k, (want, s) in enumerate(zip(row, size)):
                err = abs(mpmath.mpf(J[k, i]) - want)
                # An exact value below the normal range may be off by
                # the subnormal spacing 2^-1074 as well.
                assert err <= _ULPS * 2.0**-52 * s + 2.0**-1074, (
                    f"row {k}, sample {i}: {J[k, i]!r} against {mpmath.nstr(want, 20)}, "
                    f"{float(err / (2.0**-52 * s)):.1f} units of 2^-52 of its terms"
                )


class TestInPlaceKernels:
    """The kernels fix no association order; their contract is that f,
    every J row and every second-order row lie within _ULPS units of
    2^-52 of the size of the terms each entry is computed from, against
    40-digit mpmath at the same Gamma and scale."""

    @settings(max_examples=200, deadline=None)
    @given(E_r=_MAG, lgam=_LGAM, phi=_PHI, lpeak=_LSCALE, E=_grids())
    def test_fano_within_ulps_of_mpmath(self, E_r, lgam, phi, lpeak, E):
        _assert_accurate(_FANO, _exact_fano, np.array([E_r, lgam, phi, lpeak]), E)

    @settings(max_examples=200, deadline=None)
    @given(E_r=_MAG, lgam=_LGAM, lsig=_LSCALE, E=_grids())
    def test_breit_wigner_within_ulps_of_mpmath(self, E_r, lgam, lsig, E):
        _assert_accurate(_BW, _exact_bw, np.array([E_r, lgam, lsig]), E)

    def test_breit_wigner_rows_where_eps_f_over_D_is_subnormal(self):
        # |eps| ~ 9e84 and Gamma ~ 1e-83: eps*f/D is ~1e-310, so a
        # kernel that divides by D before applying 2/Gamma loses the
        # Jacobian's first two rows to the subnormal range.
        theta = np.array([-17.14944364314606, -191.3979509956701, -127.33063116836473])
        _assert_accurate(_BW, _exact_bw, theta, np.array([17.305142908613615]))

    def test_fano_rows_where_g_over_D_is_subnormal(self):
        # |eps| ~ 1.2e154 and iD ~ 7e-309: g*iD is ~6e-312, so a kernel
        # that multiplies g by iD before peak and 2/Gamma or eps loses
        # the Jacobian's first two rows to the subnormal range.
        theta = np.array([0.0, -690.0, math.atan(1e-3), 690.0])
        _assert_accurate(_FANO, _exact_fano, theta, np.array([1.3e-146]))

    def test_breit_wigner_rows_where_D_overflows(self):
        # At |eps| ~ 8e290, eps^2 overflows and D is inf; every row's
        # exact value there is below the double range, so each comes
        # out 0, never the NaN of inf*0.  At eps = 0 nothing overflows.
        with np.errstate(over="ignore"):
            J = _in_place(_BW, np.array([0.0, -600.0, 0.0]), np.array([-1e30, 0.0, 1e30]))
        assert (J[:, [0, 2]] == 0.0).all()
        assert J[:, 1].tolist() == [-2.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_fano_overflow_edge(self):
        # Log-parameters at the clamp and the phase of |q| = Q_CAP: inf
        # and nan may appear only where the allocating kernel, which
        # evaluates the same formulas with divisions, has them too.
        E = np.linspace(-1e3, 1e3, 101)
        phi = math.atan(Q_CAP)
        for theta in ([0.0, -700.0, phi, 700.0], [1.0, 700.0, -phi, -700.0]):
            theta = np.array(theta)
            with np.errstate(all="ignore"):
                _, J_want = model_jac_fano_reference(theta, E)
                J = _in_place(_FANO, theta, E)
            assert np.isfinite(J[np.isfinite(J_want.T)]).all()


def _fit_and_reference(curve, model: str):
    """fit's report, and the whole-array minimizer's (params, sse,
    iterations, converged) from the same starting guess.  Over four or
    more blocks the reference runs fit's two stages: first on every
    stride-th sample, stride = ceil(n / _BLOCK), then on all of them."""
    m = _MODELS[model]
    report = fit(curve, model)
    E, y = curve.energies, curve.sigmas
    theta = np.array(m.to_theta(report.initial_guess))
    stride = -(-E.size // _BLOCK)
    if stride > 3:
        theta = minimize_reference(m, theta, E[::stride], y[::stride])[0]
    theta, sse, iterations, converged = minimize_reference(m, theta, E, y)
    return report, (m.from_theta(theta), sse, iterations, converged)


@st.composite
def _curves(draw):
    """A noisy Fano or Breit-Wigner curve of 8 to one block of samples,
    on a grid of a few widths around the resonance."""
    e_r = draw(st.floats(-10.0, 10.0))
    gamma = draw(st.floats(0.01, 5.0))
    sigma0 = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        params = FanoParameters(e_r, gamma, draw(st.floats(-8.0, 8.0)), sigma0)
    else:
        params = BreitWignerParameters(e_r, gamma, sigma0)
    lo = e_r - gamma * draw(st.floats(1.0, 20.0))
    hi = e_r + gamma * draw(st.floats(1.0, 20.0))
    n = draw(st.integers(8, _BLOCK))
    noise = draw(st.floats(0.0, 0.05))
    return synthesize(params, np.linspace(lo, hi, n), noise, draw(st.integers(0, 2**32)))


class TestBlockedSweep:
    @settings(max_examples=60, deadline=None)
    @given(curve=_curves(), model=st.sampled_from(sorted(_MODELS)))
    def test_one_block_fit_matches_reference_bits(self, curve, model):
        try:
            report, (params, sse, iterations, converged) = _fit_and_reference(curve, model)
        except DegenerateCurveError:
            assume(False)
        assert _hex_fields(report.params) == _hex_fields(params)
        assert report.sse.hex() == sse.hex()
        assert (report.iterations, report.converged) == (iterations, converged)

    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16385, 100_000])
    def test_multi_block_fit_tracks_reference(self, n, model):
        # 8193 and 16385 end on a tail block of one sample.  Beyond one
        # block the sums are taken block by block, so the sse may move
        # in its last bits, but the path of the fit may not.
        curve = _curve(("fano", (1.63, 0.25, 4.0, 1.0), 0.5, 3.5, n, 0.01, 11))
        report, (_, sse, iterations, converged) = _fit_and_reference(curve, model)
        assert (report.iterations, report.converged) == (iterations, converged)
        assert report.sse == pytest.approx(sse, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("n", [8192, 8193, 3 * _BLOCK])
    def test_up_to_three_blocks_fit_in_one_stage(self, n, model):
        # No subsample stage below four blocks: fit's report is, bit for
        # bit, that of one _minimize over all the data from the guess.
        curve = _curve(("fano", (1.63, 0.25, 4.0, 1.0), 0.5, 3.5, n, 0.01, 11))
        m = _MODELS[model]
        report = fit(curve, model)
        theta, sse, iterations, converged = _minimize(
            m, np.array(m.to_theta(report.initial_guess)), curve.energies, curve.sigmas
        )
        assert _hex_fields(report.params) == _hex_fields(m.from_theta(theta))
        assert report.sse.hex() == sse.hex()
        assert (report.iterations, report.converged) == (iterations, converged)

    def test_subsample_stage_is_no_worse_than_one_stage(self):
        # A seeded battery of 4- to 8-block curves in the benchmark's
        # regime, |q| in [0.3, 10] and at least 30 samples per Gamma,
        # every fourth a Breit-Wigner line.  Against one _minimize over
        # all the data from the same guess, the two-stage fit of the
        # matching model ends no higher, and no fit of either model
        # loses its convergence.  Run over 300 curves (seeds 1-3), the
        # same generator finds one misspecified fit that does, a
        # Breit-Wigner line running off to Gamma -> inf on a q = -0.41
        # curve (a FOUND line in CHANGES.md).
        rng = np.random.default_rng(20261022)
        start = time.process_time()
        for i in range(16):
            n = int(rng.integers(3 * _BLOCK + 1, 8 * _BLOCK + 1))
            gamma = 10.0 ** rng.uniform(-1.3, 0.7)
            span = gamma * n / 10.0 ** rng.uniform(math.log10(30.0), 3.5)
            e_r = rng.uniform(-5.0, 5.0)
            if i % 4 == 3:
                params = BreitWignerParameters(e_r, gamma, 10.0 ** rng.uniform(-3, 3))
            else:
                q = 10.0 ** rng.uniform(math.log10(0.3), 1.0) * rng.choice([-1.0, 1.0])
                params = FanoParameters(e_r, gamma, q, 10.0 ** rng.uniform(-3, 3))
            lo = e_r - span * rng.uniform(0.2, 0.8)
            curve = synthesize(params, np.linspace(lo, lo + span, n),
                               rng.uniform(0.005, 0.02), int(rng.integers(2**32)))
            for model, m in _MODELS.items():
                report = fit(curve, model)
                _, sse, _, converged = _minimize(
                    m, np.array(m.to_theta(report.initial_guess)), curve.energies, curve.sigmas
                )
                if model == params.model:
                    assert report.sse <= sse * (1.0 + 1e-9), (i, model)
                assert report.converged or not converged, (i, model)
        assert time.process_time() - start < 5.0

    def test_workspace_does_not_grow_with_the_data(self):
        # The sweep's workspace is 10 rows of one block (the Jacobian,
        # the scratch and the residual) whatever n is.
        curve = _curve(CASES[5])
        m = _MODELS["fano"]
        theta0 = np.array(m.to_theta(m.initial_guess(curve)))
        tracemalloc.start()
        try:
            _minimize(m, theta0, curve.energies, curve.sigmas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.energies.size > 10 * _BLOCK
        assert peak < 12 * _BLOCK * 8


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_entry(c) for c in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
