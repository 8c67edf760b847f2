"""The fitter's output, pinned to the bit.

tests/golden/fit_reports.json holds, for a set of seeded curves, every
field of the FitReport that each model's fit returns, floats as
float.hex.  Any change to the optimizer's arithmetic, down to the order
of one multiply, shows up here.  Regenerate the file (only for a change
that is meant to move fit results) with

    PYTHONPATH=src python tests/test_fit_bits.py

The kernel test checks the in-place model/Jacobian kernels against the
allocating ones in tests/oracles.py, which defined the fit bits before
the per-fit workspace.
"""

import json
import math
import pathlib
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efano.fitter import Q_CAP, _model_jac_bw, _model_jac_fano, compare_models
from efano.profiles import BreitWignerParameters, FanoParameters, synthesize

from oracles import model_jac_bw_reference, model_jac_fano_reference

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fit_reports.json"

# (model, params, e_min, e_max, points, noise, seed).  Fano and
# Breit-Wigner curves at 200, 2000 and 10^5 samples; the lone-peak Fano
# curve runs to the iteration cap and the tiny-sigma0 one tests scale.
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_entry(c) for c in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
