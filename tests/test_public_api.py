"""The package root's public API, and its behaviour at the float edges.

The root re-exports each library module's __all__ and nothing else, so
the API is declared once.  Every public function and validating class,
called with extreme floats (NaN, the infinities, subnormals, the float
maximum) in any argument, either returns or raises a ToolkitError: never
a bare Python error, never a numpy warning.
"""

import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import efano
from efano.errors import ToolkitError

LIBRARY = [
    name for _, name, _ in pkgutil.iter_modules(efano.__path__)
    if name not in ("cli", "__main__")
]


def test_every_module_declares_all():
    assert sorted(LIBRARY) == [
        "dipole_ladder", "efimov", "errors", "fitter", "numkit", "profiles", "twobody",
    ]
    for name in [*LIBRARY, "cli"]:
        module = importlib.import_module(f"efano.{name}")
        assert isinstance(module.__all__, list), name
        for attr in module.__all__:
            assert hasattr(module, attr), (name, attr)


def test_root_exports_exactly_the_module_lists():
    owner: dict[str, str] = {}
    for name in LIBRARY:
        for attr in importlib.import_module(f"efano.{name}").__all__:
            assert attr not in owner, (attr, owner.get(attr), name)
            owner[attr] = name
    public = {
        attr for attr, value in vars(efano).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(owner)
    for attr, name in owner.items():
        assert getattr(efano, attr) is getattr(importlib.import_module(f"efano.{name}"), attr)
    # Checks a caller wraps its own inputs in stay off the root, as does the CLI.
    assert not {"require_finite", "require_positive", "main"} & public


FLOATS = st.floats() | st.floats(-10.0, 10.0)
COUNTS = st.integers(-2, 40)


def _grid(lo, hi, points):
    # linspace itself overflows at the ends of the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(lo, hi, points)


ENERGIES = FLOATS | FLOATS.map(np.float64) | st.lists(FLOATS, max_size=6).map(np.array)
GRIDS = st.lists(FLOATS, max_size=12) | st.tuples(FLOATS, FLOATS, st.integers(0, 24)).map(
    lambda t: _grid(*t)
)


def _curve(e_r, gamma, q, sigma0, lo, hi, points):
    grid = _grid(lo, hi, points)
    return efano.synthesize(efano.FanoParameters(e_r, gamma, q, sigma0), grid, 0.01, 7)


CURVES = st.tuples(
    FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, st.integers(6, 24)
) | st.tuples(  # ordinary curves, so that fits run too
    st.floats(-1.0, 1.0), st.floats(0.05, 2.0), st.floats(-5.0, 5.0), st.floats(0.1, 10.0),
    st.just(-3.0), st.just(3.0), st.integers(8, 24),
)
GUESSES = st.none() | st.tuples(FLOATS, FLOATS, FLOATS, FLOATS)


def _fit(curve_args, model, guess):
    start = None
    if guess is not None:
        start = (efano.FanoParameters(*guess) if model == "fano"
                 else efano.BreitWignerParameters(*guess[:2], guess[3]))
    return efano.fit(_curve(*curve_args), model, start)


# Public name -> (call, strategy for its argument tuple).
CALLS = {
    "log_gamma": (efano.log_gamma, st.tuples(FLOATS | st.builds(complex, FLOATS, FLOATS))),
    "find_root": (
        lambda c, lo, hi, tol: efano.find_root(lambda x: x - c, lo, hi, tol),
        st.tuples(FLOATS, FLOATS, FLOATS, FLOATS),
    ),
    "seeded_gaussian_noise": (
        efano.seeded_gaussian_noise,
        st.tuples(st.integers(-(2**70), 2**70), COUNTS, FLOATS),
    ),
    "alpha_from_strength": (efano.alpha_from_strength, st.tuples(FLOATS)),
    "arg_gamma_term": (efano.arg_gamma_term, st.tuples(FLOATS)),
    "kappa_n": (
        lambda alpha, n, scale: efano.kappa_n(alpha, n, scale=scale),
        st.tuples(FLOATS, COUNTS, FLOATS),
    ),
    "ladder_residual": (
        lambda alpha, kappa, n, scale: efano.ladder_residual(alpha, kappa, n, scale=scale),
        st.tuples(FLOATS, FLOATS, COUNTS, FLOATS),
    ),
    "build_ladder": (
        lambda alpha, n, scale: efano.build_ladder(alpha, n, scale=scale),
        st.tuples(FLOATS, COUNTS, FLOATS),
    ),
    "geometric_energies": (efano.geometric_energies, st.tuples(FLOATS, FLOATS, COUNTS)),
    "SquareWell": (efano.SquareWell, st.tuples(FLOATS, FLOATS, FLOATS)),
    "scattering_length": (
        lambda d, r, m, tol: efano.scattering_length(efano.SquareWell(d, r, m), unitarity_tol=tol),
        st.tuples(FLOATS, FLOATS, FLOATS, FLOATS),
    ),
    "binding_energy": (
        lambda d, r, m: efano.binding_energy(efano.SquareWell(d, r, m)),
        st.tuples(FLOATS, FLOATS, FLOATS),
    ),
    "tune_to_scattering_length": (
        lambda d, r, m, a, branch: efano.tune_to_scattering_length(
            efano.SquareWell(d, r, m), a, branch
        ),
        st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, st.integers(-1, 6)),
    ),
    "count_states": (efano.count_states, st.tuples(FLOATS, FLOATS)),
    "build_efimov_ladder": (efano.build_efimov_ladder, st.tuples(FLOATS, FLOATS, COUNTS)),
    "classify_states_vs_threshold": (
        lambda alpha, ground, count, threshold: efano.classify_states_vs_threshold(
            efano.build_efimov_ladder(alpha, ground, count), threshold
        ),
        st.tuples(FLOATS, FLOATS, COUNTS, FLOATS),
    ),
    "BreitWignerParameters": (efano.BreitWignerParameters, st.tuples(FLOATS, FLOATS, FLOATS)),
    "FanoParameters": (efano.FanoParameters, st.tuples(FLOATS, FLOATS, FLOATS, FLOATS)),
    "CrossSectionCurve": (efano.CrossSectionCurve, st.tuples(GRIDS, GRIDS)),
    "reduced_energy": (efano.reduced_energy, st.tuples(ENERGIES, FLOATS, FLOATS)),
    "breit_wigner": (
        lambda E, e_r, gamma, sigma0: efano.breit_wigner(
            E, efano.BreitWignerParameters(e_r, gamma, sigma0)
        ),
        st.tuples(ENERGIES, FLOATS, FLOATS, FLOATS),
    ),
    "fano": (
        lambda E, e_r, gamma, q, sigma0: efano.fano(
            E, efano.FanoParameters(e_r, gamma, q, sigma0)
        ),
        st.tuples(ENERGIES, FLOATS, FLOATS, FLOATS, FLOATS),
    ),
    "synthesize": (
        lambda params, grid, noise, seed: efano.synthesize(
            efano.FanoParameters(*params), grid, noise, seed
        ),
        st.tuples(st.tuples(FLOATS, FLOATS, FLOATS, FLOATS), GRIDS, FLOATS, st.integers(0, 9)),
    ),
    "initial_guess_fano": (
        lambda args: efano.initial_guess_fano(_curve(*args)), st.tuples(CURVES)
    ),
    "initial_guess_breit_wigner": (
        lambda args: efano.initial_guess_breit_wigner(_curve(*args)), st.tuples(CURVES)
    ),
    "fit": (_fit, st.tuples(CURVES, st.sampled_from(["fano", "breit_wigner"]), GUESSES)),
    "compare_models": (lambda args: efano.compare_models(_curve(*args)), st.tuples(CURVES)),
    "report_to_json_dict": (
        lambda *args: efano.report_to_json_dict(_fit(*args)),
        st.tuples(CURVES, st.sampled_from(["fano", "breit_wigner"]), GUESSES),
    ),
}


def test_every_public_function_is_exercised():
    functions = {
        attr for attr, value in vars(efano).items()
        if not attr.startswith("_") and inspect.isfunction(value)
    }
    assert functions <= set(CALLS), sorted(functions - set(CALLS))


# Calls that once failed with a bare Python error or a numpy warning.
KNOWN_EDGES = [
    ("tune_to_scattering_length", (1.0, 1e300, 1e16, -2.401259243608378e-164, 0)),
    ("tune_to_scattering_length", (1.0, 0.25, 2.11371095e-316, -1.7976931348623157e308, 0)),
    ("tune_to_scattering_length", (1.0, 4503599627370496.0, 1.0, -4.4117989e-316, 0)),
    ("ladder_residual", (1.0, 1.0, 0, 0.0)),
    ("ladder_residual", (1.0, 1.0, 0, -1.0)),
    ("ladder_residual", (1.0, 1.0, 0, float("nan"))),
    ("ladder_residual", (1.0, 1.0, 0, float("inf"))),
    ("ladder_residual", (1.0, 1.0, -1, 2.0)),
    ("BreitWignerParameters", (0.0, 5e-324, 1.0)),
    ("FanoParameters", (0.0, 5e-324, 1.0, 1.0)),
    ("reduced_energy", (1.0, 0.0, 5e-324)),
    ("reduced_energy", (np.array([1.0]), 0.0, 5e-324)),
    ("seeded_gaussian_noise", (17, 2, 1e308)),
]


@pytest.mark.parametrize("name,args", KNOWN_EDGES)
def test_known_edges_raise_toolkit_errors(name, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToolkitError):
            CALLS[name][0](*args)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(
    max_examples=20, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)
@given(data=st.data())
def test_extreme_floats_return_or_raise_toolkit_errors(name, data):
    call, arguments = CALLS[name]
    args = data.draw(arguments, label="args")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except ToolkitError:
            pass
