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

The kernel test checks the in-place model/Jacobian kernels against the
allocating ones in tests/oracles.py, which defined the fit bits before
the per-fit workspace.  The sweep tests check fit against the
whole-array minimizer in tests/oracles.py: bit for bit up to one block
of samples, to 1e-13 in the sse beyond it.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efano.errors import DegenerateCurveError
from efano.fitter import (
    _BLOCK,
    _MODELS,
    Q_CAP,
    _minimize,
    _model_jac_bw,
    _model_jac_fano,
    compare_models,
    fit,
)
from efano.profiles import BreitWignerParameters, FanoParameters, synthesize

from oracles import minimize_reference, model_jac_bw_reference, model_jac_fano_reference

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden" / "fit_reports.json"

# (model, params, e_min, e_max, points, noise, seed).  Fano and
# Breit-Wigner curves at 200, 2000 and 10^5 samples; the lone-peak Fano
# curve runs to the iteration cap and the tiny-sigma0 one tests scale.
# The fits take every exit of _minimize: 16 stop on the sse stall, the
# Breit-Wigner fits of cases 2 and 8 and the Fano fits of cases 6 and 7
# on the gtol test, the Fano fit of case 3 at the iteration cap, and the
# Breit-Wigner fit of the last case, after 5 iterations, where no
# damping level gives an improving step.
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


_LOG = st.floats(-700.0, 700.0)
_E_R = st.floats(-1e3, 1e3)
_Q = st.floats(-Q_CAP, Q_CAP)


@st.composite
def _grids(draw):
    lo = draw(st.floats(-1e3, 1e3))
    span = draw(st.floats(1e-6, 1e4))
    n = draw(st.integers(1, 300))
    return np.linspace(lo, lo + span, n)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _in_place(kernel, theta, E):
    """The (n, p) view of the (p, n) Jacobian a kernel fills in place."""
    J = np.empty((theta.size, E.size))
    kernel(theta, E, J, np.empty((5, E.size)))
    return J.T


class TestInPlaceKernels:
    @settings(max_examples=300, deadline=None)
    @given(E_r=_E_R, lgam=_LOG, q=_Q, lpeak=_LOG, E=_grids())
    def test_fano_matches_allocating_kernel(self, E_r, lgam, q, lpeak, E):
        theta = np.array([E_r, lgam, q, lpeak])
        with np.errstate(all="ignore"):
            f, J_want = model_jac_fano_reference(theta, E)
            J = _in_place(_model_jac_fano, theta, E)
        assert _same_bits(J, J_want)
        assert _same_bits(J[:, -1], f)

    @settings(max_examples=300, deadline=None)
    @given(E_r=_E_R, lgam=_LOG, lsig=_LOG, E=_grids())
    def test_breit_wigner_matches_allocating_kernel(self, E_r, lgam, lsig, E):
        theta = np.array([E_r, lgam, lsig])
        with np.errstate(all="ignore"):
            f, J_want = model_jac_bw_reference(theta, E)
            J = _in_place(_model_jac_bw, theta, E)
        assert _same_bits(J, J_want)
        assert _same_bits(J[:, -1], f)

    def test_fano_overflow_edge(self):
        # Largest q and log-parameters at the clamp: inf and nan land in
        # the same places in both kernels.
        E = np.linspace(-1e3, 1e3, 101)
        for theta in ([0.0, -700.0, Q_CAP, 700.0], [1.0, 700.0, -Q_CAP, -700.0]):
            theta = np.array(theta)
            with np.errstate(all="ignore"):
                _, J_want = model_jac_fano_reference(theta, E)
                J = _in_place(_model_jac_fano, theta, E)
            assert _same_bits(J, J_want)


def _fit_and_reference(curve, model: str):
    """fit's report, and the whole-array minimizer's (params, sse,
    iterations, converged) from the same starting guess."""
    m = _MODELS[model]
    report = fit(curve, model)
    theta, sse, iterations, converged = minimize_reference(
        m.model_jac, m.bound, np.array(m.to_theta(report.initial_guess)),
        curve.energies, curve.sigmas,
    )
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

    def test_workspace_does_not_grow_with_the_data(self):
        # The sweep's workspace is 10 rows of one block (the Jacobian,
        # the scratch and the residual) whatever n is.
        curve = _curve(CASES[5])
        m = _MODELS["fano"]
        theta0 = np.array(m.to_theta(m.initial_guess(curve)))
        tracemalloc.start()
        try:
            _minimize(m.model_jac, m.bound, theta0, curve.energies, curve.sigmas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.energies.size > 10 * _BLOCK
        assert peak < 12 * _BLOCK * 8


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_entry(c) for c in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
