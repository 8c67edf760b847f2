"""The physics layers' output, pinned to the bit.

tests/golden/bits_manifest.json holds one sha256 per layer: numkit,
dipole_ladder, twobody, efimov, profiles, the fitter's initializers and
the fitter itself.
Each hash covers a fixed battery of calls, built below from seeded
Python random streams, that reaches every branch of the layer: the
results with every float as float.hex, and every ToolkitError as its
class name and message.  Any change to a layer's arithmetic, down to
one rounding, or to the text of one of its errors, names that layer.
tests/golden/fit_reports.json pins a few fits field by field; the
fitter layer here covers a wider battery of measured-size curves.
Regenerate the file (only for a change that is meant to move results)
with

    PYTHONPATH=src python tests/test_physics_bits.py
"""

import hashlib
import json
import math
import pathlib
import platform
import random
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from efano.dipole_ladder import (
    alpha_from_strength,
    arg_gamma_term,
    build_ladder,
    geometric_energies,
    kappa_n,
    ladder_residual,
)
from efano.efimov import build_efimov_ladder, classify_states_vs_threshold, count_states
from efano.errors import ToolkitError
from efano.fitter import compare_models, initial_guess_breit_wigner, initial_guess_fano
from efano.numkit import find_root, log_gamma, seeded_gaussian_noise
from efano.profiles import (
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
    breit_wigner,
    fano,
    reduced_energy,
    synthesize,
)
from efano.twobody import (
    SquareWell,
    binding_energy,
    scattering_length,
    tune_to_scattering_length,
)

MANIFEST = pathlib.Path(__file__).parent / "golden" / "bits_manifest.json"


def _enc(v):
    """A JSON-ready image of a result: floats as float.hex, recursively."""
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, complex):
        return [float.hex(v.real), float.hex(v.imag)]
    if isinstance(v, np.ndarray):
        return [float.hex(x) for x in v.ravel().tolist()]
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    if isinstance(v, dict):
        return {k: _enc(x) for k, x in v.items()}
    if is_dataclass(v):
        return [type(v).__name__, {f.name: _enc(getattr(v, f.name)) for f in fields(v)}]
    if isinstance(v, CrossSectionCurve):
        return _enc([v.energies, v.sigmas, v.meta])
    return repr(v)  # a marker such as efimov.UNBOUNDED


def _call(fn, *args, **kwargs):
    try:
        return _enc(fn(*args, **kwargs))
    except ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _log_uniform(r: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** (lo + (hi - lo) * r.random())


def _sign(r: random.Random) -> float:
    return 1.0 if r.random() < 0.5 else -1.0


def _numkit() -> list:
    r = random.Random(1)
    out = []
    # log_gamma in both half-planes, on the real axis, at the poles and
    # past the Re z = -65537 floor.
    for _ in range(400):
        z = complex(-80.0 + 160.0 * r.random(), -60.0 + 120.0 * r.random())
        out.append(_call(log_gamma, z))
    for _ in range(100):
        z = complex(_log_uniform(r, -3, 5) * _sign(r), _log_uniform(r, -3, 5))
        out.append(_call(log_gamma, z))
        out.append(_call(log_gamma, z.conjugate()))
    for x in (0.5, 1.0, 2.0, 10.5, 171.5, 1e5, -0.5, -3.5, -1e4 - 0.25, 0.0, -2.0):
        out.append(_call(log_gamma, x))
    for z in (complex(-65536.5, 1.0), complex(-65537.5, 1.0), complex(-1e6, -3.0)):
        out.append(_call(log_gamma, z))
    # Safeguarded Newton on a few smooth functions, on a zero slope that
    # forces bisection, and on an unbracketed one.
    cos = lambda x: (math.cos(x), -math.sin(x))
    for c in (0.1, 2.0, 1e-8, 1e8):
        cube = lambda x, c=c: (x * x * x - c, 3.0 * x * x)
        out.append(_call(find_root, cube, 0.0, max(2.0, c), 1e-300))
    out.append(_call(find_root, cos, 0.0, 3.0, 1e-6))
    out.append(_call(find_root, lambda x: (math.cos(x), 0.0), 0.0, 3.0, 1e-300))
    out.append(_call(find_root, lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0, 1e-12))
    out.append(_call(find_root, cos, 0.0, 3.0, 1e-300, max_iter=3))
    # Noise streams: seeds past 2**64 and below 0, odd and even lengths.
    for seed in (0, 1, 7, 2**32 + 5, 2**64 + 3, -1, 12345678901234567):
        for n in (0, 1, 2, 7, 1000, 4099):
            out.append(_call(seeded_gaussian_noise, seed, n, 1.0))
    for sigma in (0.0, 1e-300, 3.5, np.finfo(float).max / 16.0, np.finfo(float).max / 8.0):
        out.append(_call(seeded_gaussian_noise, 3, 9, sigma))
    out.append(_call(seeded_gaussian_noise, 1.5, 4, 1.0))
    out.append(_call(seeded_gaussian_noise, 1, -1, 1.0))
    # Long streams: a fit_large-sized one, and an odd length that the
    # stream draws in several blocks.
    out.append(_call(seeded_gaussian_noise, 11, 100_000, 1.0))
    out.append(_call(seeded_gaussian_noise, 2**64 - 5, 41_011, 0.25))
    return out


def _dipole_ladder() -> list:
    r = random.Random(2)
    out = []
    for a in (0.25, 0.2500001, 0.26, 1.0, 50.0, 1e10, -1.0, math.nan):
        out.append(_call(alpha_from_strength, a))
    for _ in range(60):
        alpha = _log_uniform(r, -2, 3)
        out.append(_call(arg_gamma_term, alpha))
        for n in (0, 1, 5, 40):
            out.append(_call(kappa_n, alpha, n))
            out.append(_call(kappa_n, alpha, n, scale=_log_uniform(r, -200, 200)))
            kappa = _log_uniform(r, -50, 5)
            out.append(_call(ladder_residual, alpha, kappa, n))
    # Ladders that run out, that truncate, and that raise: small alpha
    # underflows within a few levels, a huge one stops shrinking, a huge
    # scale overflows.
    for _ in range(120):
        alpha = _log_uniform(r, -1.5, 2.5)
        scale = _log_uniform(r, -150, 150)
        out.append(_call(build_ladder, alpha, 60, scale=scale))
    for alpha, n_max, scale in (
        (0.3, 200, 2.0),
        (1e17, 3, 2.0),
        (1e10, 0, 1e300),
        (1e306, 0, 1e-300),
        (5.0, 0, 2.0),
        (5.0, -1, 2.0),
        (5.0, 2.0, 2.0),
        (5.0, 3, -1.0),
        (0.0, 3, 2.0),
    ):
        out.append(_call(build_ladder, alpha, n_max, scale=scale))
    for alpha, n, scale in ((1.0, -1, 2.0), (1.0, 2.5, 2.0), (-1.0, 0, 2.0), (1.0, 1000, 2.0),
                            (1e10, 0, 1e300)):
        out.append(_call(kappa_n, alpha, n, scale=scale))
    for _ in range(60):
        out.append(
            _call(geometric_energies, -_log_uniform(r, -200, 200), _log_uniform(r, -1, 3), 80)
        )
    for args in ((-1.0, 1e17, 3), (0.5, 1.0, 3), (-1.0, 1.0, -1), (-1.0, 0.0, 3)):
        out.append(_call(geometric_energies, *args))
    return out


def _twobody() -> list:
    r = random.Random(3)
    out = []
    # Wells on both sides of every low divergence, and right at it.
    for _ in range(300):
        x0 = _log_uniform(r, -4, 3)
        well = SquareWell(depth_V0=x0 * x0 / 2.0, range_Rw=1.0, reduced_mass_mu=1.0)
        out.append(_call(scattering_length, well))
        out.append(_call(binding_energy, well))
    for k in range(6):
        for rel in (0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, 1e-6):
            x0 = (k + 0.5) * math.pi * (1.0 + rel)
            well = SquareWell(depth_V0=x0 * x0 / 2.0, range_Rw=2.0, reduced_mass_mu=0.25)
            for tol in (0.0, 1e-12, 1e-8):
                out.append(_call(scattering_length, well, unitarity_tol=tol))
            out.append(_call(binding_energy, well))
    for well in (
        SquareWell(1e-320, 1.0, 1.0),
        SquareWell(1e300, 1e10, 1e300),
        SquareWell(2.0**100, 1.0, 1.0),
    ):
        out.append(_call(scattering_length, well))
        out.append(_call(binding_energy, well))
    out.append(_call(scattering_length, SquareWell(1.0, 1.0, 1.0), unitarity_tol=-1.0))
    # Tunes on every branch, both signs, over twelve decades.
    template = SquareWell(depth_V0=1.0, range_Rw=1.5, reduced_mass_mu=0.7)
    for branch in range(4):
        for _ in range(150):
            target = _log_uniform(r, -3, 9) * _sign(r)
            out.append(_call(tune_to_scattering_length, template, target, branch))
        for target in (1.5, 1e-300, -1e-300, 1e15, -1e15, 1e300, -1e300, 0.0, math.inf):
            out.append(_call(tune_to_scattering_length, template, target, branch))
    for _ in range(200):
        target = _log_uniform(r, -3, 9) * _sign(r)
        branch = int(4 * r.random())
        try:
            tuned = tune_to_scattering_length(template, target, branch)
        except ToolkitError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        out.append(_call(scattering_length, tuned))
        out.append(_call(binding_energy, tuned))
    for tmpl, target, branch in (
        (SquareWell(1.0, 1e-300, 1e300), -1.0, 0),
        (SquareWell(1.0, 1e300, 1e16), -2.401259243608378e-164, 0),
        (SquareWell(1.0, 1e160, 1e3), -5e160, 0),
        (template, -1.0, -1),
        (template, -1.0, 1.0),
        (template, 0.5, 0),
    ):
        out.append(_call(tune_to_scattering_length, tmpl, target, branch))
    return out


def _efimov() -> list:
    r = random.Random(4)
    out = []
    for _ in range(300):
        a = _log_uniform(r, -3, 30) * _sign(r)
        out.append(_call(count_states, a, _log_uniform(r, -3, 3)))
    for k in range(1, 8):
        out.append(_call(count_states, math.exp(k * math.pi), 1.0))
    for a, r0 in ((math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0), (0.5, 1.0)):
        out.append(_call(count_states, a, r0))
    for _ in range(80):
        ground = -_log_uniform(r, -250, 250)
        ladder = build_efimov_ladder(_log_uniform(r, -1, 1.5), ground, 1 + int(60 * r.random()))
        out.append(_enc(ladder))
        for threshold in (ground * 2.0, ground, ground * 1e-3, -1e-320):
            out.append(_call(classify_states_vs_threshold, ladder, threshold))
    for args in ((1.0, -1.0, 0), (1.0, 1.0, 3), (1e17, -1.0, 3), (0.5, -1e-300, 400)):
        out.append(_call(build_efimov_ladder, *args))
    ladder = build_efimov_ladder(1.0, -1.0, 3)
    for threshold in (0.0, math.nan, -math.inf):
        out.append(_call(classify_states_vs_threshold, ladder, threshold))
    return out


def _profiles() -> list:
    r = random.Random(5)
    out = []
    # Line shapes near the resonance and far out in the wings, where the
    # Fano form takes its limit.
    wings = np.array([-1e308, -1e200, -1e20, 1e20, 1e200, 1e308, math.inf, -math.inf])
    for _ in range(80):
        e_r = -10.0 + 20.0 * r.random()
        gamma = _log_uniform(r, -3, 1)
        q = (-20.0 + 40.0 * r.random()) * r.random()
        sigma0 = _log_uniform(r, -6, 6)
        E = np.concatenate([np.linspace(e_r - 5 * gamma, e_r + 5 * gamma, 41), wings])
        out.append(_call(reduced_energy, E, e_r, gamma))
        out.append(_call(fano, E, FanoParameters(e_r, gamma, q, sigma0)))
        out.append(_call(breit_wigner, E, BreitWignerParameters(e_r, gamma, sigma0)))
        out.append(_call(fano, float(E[3]), FanoParameters(e_r, gamma, q, sigma0)))
    out.append(_call(fano, 1e300, FanoParameters(0.0, 1e-300, 2.0, 1.0)))
    out.append(_call(FanoParameters, 0.0, 5e-324, 2.0, 1.0))
    # Noisy curves, with clamping at high noise.
    for seed, noise, points in ((0, 0.0, 8), (7, 0.01, 200), (9, 0.5, 333), (2**70, 2.0, 64)):
        p = FanoParameters(1.0, 0.5, -3.0, 2.0)
        out.append(_call(synthesize, p, np.linspace(-2.0, 4.0, points), noise, seed))
    for args in (
        (FanoParameters(1.0, 0.5, 1.0, 1.0), np.linspace(0, 1, 7), 0.0, 0),
        (FanoParameters(1.0, 0.5, 1.0, 1.0), np.linspace(0, 1, 9), -0.1, 0),
        (FanoParameters(1.0, 0.5, 1.0, 1.0), np.linspace(0, 1, 9)[::-1], 0.0, 0),
        (BreitWignerParameters(0.0, 1.0, 1e308), np.linspace(-1, 1, 9), 1.0, 3),
    ):
        out.append(_call(synthesize, *args))
    # Curves of 10^5 samples: noisy Fano, Breit-Wigner noisy enough to
    # clamp throughout, and one without noise.
    grid = np.linspace(-3.0, 5.0, 100_000)
    for p, noise, seed in (
        (FanoParameters(1.0, 0.7, 1.8, 2.0), 0.02, 13),
        (BreitWignerParameters(0.5, 1.2, 3.0), 0.6, 2**63 + 1),
        (FanoParameters(-0.5, 0.3, -0.4, 1.0), 0.0, 0),
    ):
        out.append(_call(synthesize, p, grid, noise, seed))
    for args in ((np.zeros(8), np.zeros(8)), (np.arange(8.0), -np.ones(8))):
        out.append(_call(CrossSectionCurve, *args))
    for args in ((0.0, -1.0, 1.0, 1.0), (0.0, 1.0, math.nan, 1.0), (0.0, 1.0, 1.0, 0.0)):
        out.append(_call(FanoParameters, *args))
    return out


def _initializers() -> list:
    r = random.Random(6)
    out = []
    for _ in range(150):
        e_r = -5.0 + 10.0 * r.random()
        gamma = _log_uniform(r, -2, 0.5)
        sigma0 = _log_uniform(r, -4, 4)
        lo = e_r - gamma * (0.5 + 15.0 * r.random())
        hi = e_r + gamma * (0.5 + 15.0 * r.random())
        grid = np.linspace(lo, hi, 8 + int(300 * r.random()))
        noise = 0.03 * r.random()
        seed = int(1e6 * r.random())
        # Two extrema, a lone dip (noise would add interior maxima), and
        # two lone peaks.
        shapes = (
            (FanoParameters(e_r, gamma, -10.0 + 20.0 * r.random(), sigma0), noise),
            (FanoParameters(e_r, gamma, 0.02 * (r.random() - 0.5), sigma0), 0.0),
            (FanoParameters(e_r, gamma, 50.0 + 1e3 * r.random(), sigma0), noise),
            (BreitWignerParameters(e_r, gamma, sigma0), noise),
        )
        for p, level in shapes:
            curve = synthesize(p, grid, level, seed)
            out.append(_call(initial_guess_fano, curve))
            out.append(_call(initial_guess_breit_wigner, curve))
    # Monotone, all-zero, and edge-extremum curves.
    E = np.linspace(0.0, 1.0, 16)
    for y in (E + 1.0, np.zeros(16), np.exp(-E), (E - 0.5) ** 2, 1.0 - (E - 0.5) ** 2):
        curve = CrossSectionCurve(E, y)
        out.append(_call(initial_guess_fano, curve))
        out.append(_call(initial_guess_breit_wigner, curve))
    return out


def _fitter() -> list:
    # compare_models on noisy Fano and Breit-Wigner curves of 100 to
    # 2000 samples, one block of the fit's sweep each, and on one curve
    # of 20,000 samples that the sweep takes in three blocks.
    r = random.Random(7)
    out = []
    for i in range(128):
        e_r = -5.0 + 10.0 * r.random()
        gamma = _log_uniform(r, -1.3, 0.7)
        sigma0 = _log_uniform(r, -3, 3)
        if i % 4 == 3:
            p = BreitWignerParameters(e_r, gamma, sigma0)
            lo, hi = -2.0 - 6.0 * r.random(), 2.0 + 6.0 * r.random()
        else:
            q = _log_uniform(r, -0.8, 0.7) * _sign(r)
            p = FanoParameters(e_r, gamma, q, sigma0)
            lo = min(-q, 1.0 / q) - 2.0 - 4.0 * r.random()
            hi = max(-q, 1.0 / q) + 2.0 + 4.0 * r.random()
        grid = np.linspace(e_r + lo * gamma / 2, e_r + hi * gamma / 2,
                           round(_log_uniform(r, 2, math.log10(2000))))
        curve = synthesize(p, grid, _log_uniform(r, -2.5, -1.5), r.getrandbits(63))
        out.append(_call(compare_models, curve))
    curve = synthesize(FanoParameters(-1.0, 0.6, 2.5, 3.0), np.linspace(-4.0, 3.0, 20_000),
                       0.01, 20)
    out.append(_call(compare_models, curve))
    return out


LAYERS = {
    "numkit": _numkit,
    "dipole_ladder": _dipole_ladder,
    "twobody": _twobody,
    "efimov": _efimov,
    "profiles": _profiles,
    "fitter_initializers": _initializers,
    "fitter": _fitter,
}


def _digest(layer: str) -> str:
    text = json.dumps(LAYERS[layer](), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _manifest() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "layers": {layer: _digest(layer) for layer in LAYERS},
    }


def test_every_layer_keeps_its_bits():
    want = json.loads(MANIFEST.read_text())["layers"]
    assert sorted(want) == sorted(LAYERS)
    moved = [layer for layer in LAYERS if _digest(layer) != want[layer]]
    assert moved == [], f"bits moved in: {', '.join(moved)}"


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(_manifest(), indent=1) + "\n")
    print(f"wrote {len(LAYERS)} layer hashes to {MANIFEST}")
