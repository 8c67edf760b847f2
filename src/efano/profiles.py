"""Resonance line shapes: symmetric Breit-Wigner and asymmetric Fano.

Both profiles live on the reduced energy eps = (E - E_r)/(Gamma/2),
the offset from resonance in half-widths:

    breit_wigner: sigma = sigma0 / (1 + eps^2)
    fano:         sigma = sigma0 * (q + eps)^2 / (1 + eps^2)

The Fano index q measures the ratio of resonant to direct scattering
amplitudes.  The profile vanishes at eps = -q (destructive
interference), peaks at eps = 1/q with height sigma0*(1+q^2), and
collapses to the symmetric Lorentzian peak as |q| -> inf and to an
inverted dip at q = 0.  Energies are unit-agnostic; whatever unit E_r
and Gamma share is the unit of the grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import DomainError
from .numkit import seeded_gaussian_noise

__all__ = [
    "BreitWignerParameters",
    "FanoParameters",
    "CrossSectionCurve",
    "reduced_energy",
    "breit_wigner",
    "fano",
    "synthesize",
    "MIN_CURVE_SAMPLES",
]

MIN_CURVE_SAMPLES = 8


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class BreitWignerParameters:
    """Symmetric resonance sigma0 / (1 + eps^2)."""

    model: ClassVar[str] = "breit_wigner"

    E_r: float
    Gamma: float
    sigma0: float

    def __post_init__(self) -> None:
        _require_finite("E_r", self.E_r)
        _require_positive("Gamma", self.Gamma)
        _require_positive("sigma0", self.sigma0)


@dataclass(frozen=True)
class FanoParameters:
    """Asymmetric resonance sigma0 * (q + eps)^2 / (1 + eps^2).

    q may take either sign (negative q puts the dip above the peak).
    The Lorentzian limit is a limit, not a parameter value: q must be
    finite.
    """

    model: ClassVar[str] = "fano"

    E_r: float
    Gamma: float
    q: float
    sigma0: float

    def __post_init__(self) -> None:
        _require_finite("E_r", self.E_r)
        _require_positive("Gamma", self.Gamma)
        _require_finite("q", self.q)
        _require_positive("sigma0", self.sigma0)


class CrossSectionCurve:
    """Sampled cross section sigma(E) on a strictly increasing grid.

    meta carries free-form provenance (generating parameters, seed,
    clamp count) that the CLI round-trips through CSV headers.
    """

    __slots__ = ("energies", "sigmas", "meta")

    def __init__(self, energies, sigmas, meta: dict | None = None):
        e = np.asarray(energies, dtype=np.float64)
        s = np.asarray(sigmas, dtype=np.float64)
        if e.ndim != 1 or s.ndim != 1 or e.size != s.size:
            raise DomainError("energies and sigmas must be 1-d and equal length")
        if e.size < 2:
            raise DomainError(f"curve needs at least 2 samples, got {e.size}")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(s))):
            raise DomainError("curve samples must be finite")
        if not np.all(np.diff(e) > 0.0):
            raise DomainError("energy grid must be strictly increasing")
        if np.any(s < 0.0):
            raise DomainError("cross sections must be nonnegative")
        self.energies = e
        self.sigmas = s
        self.meta = dict(meta) if meta else {}

    def __len__(self) -> int:
        return int(self.energies.size)


ProfileParameters = Union[FanoParameters, BreitWignerParameters]


def reduced_energy(E, E_r: float, Gamma: float):
    """(E - E_r) / (Gamma/2): energy offset in units of the half-width.

    E may be a scalar or an array; the result has the same shape.
    """
    if not (math.isfinite(Gamma) and Gamma > 0.0):
        raise DomainError(f"Gamma must be finite and positive, got {Gamma!r}")
    return (E - E_r) / (0.5 * Gamma)


def breit_wigner(E, p: BreitWignerParameters):
    """sigma0 / (1 + eps^2), the symmetric Lorentzian resonance."""
    eps = reduced_energy(E, p.E_r, p.Gamma)
    return p.sigma0 / (1.0 + eps * eps)


def fano(E, p: FanoParameters):
    """sigma0 * (q + eps)^2 / (1 + eps^2), the interference profile."""
    eps = reduced_energy(E, p.E_r, p.Gamma)
    t = p.q + eps
    return p.sigma0 * (t * t) / (1.0 + eps * eps)


_SHAPES = {FanoParameters: fano, BreitWignerParameters: breit_wigner}


def evaluate(E, p: ProfileParameters):
    """Dispatch to fano or breit_wigner on the parameter type."""
    shape = _SHAPES.get(type(p))
    if shape is None:
        raise DomainError(f"unsupported parameter type {type(p).__name__}")
    return shape(E, p)


def synthesize(
    p: ProfileParameters,
    e_grid,
    noise_sigma_relative: float = 0.0,
    seed: int = 0,
) -> CrossSectionCurve:
    """Sample a profile on a grid, optionally with seeded relative noise.

    Each sample becomes sigma * (1 + noise_sigma_relative * g) with g a
    standard Gaussian deviate from the fixed seeded stream, so equal
    seeds give identical curves.  Noise proportional to the local value
    keeps the interference zero visible at any noise level.  Samples
    driven negative are clamped to zero and counted in meta["clamped"].

    Requires a strictly increasing grid of at least 8 points.
    """
    grid = np.asarray(e_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < MIN_CURVE_SAMPLES:
        raise DomainError(
            f"grid too small: need at least {MIN_CURVE_SAMPLES} points, "
            f"got {grid.size}"
        )
    if not np.all(np.isfinite(grid)):
        raise DomainError("grid must be finite")
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError("grid must be strictly increasing")
    if not (math.isfinite(noise_sigma_relative) and noise_sigma_relative >= 0.0):
        raise DomainError(
            f"noise level must be finite and nonnegative, got "
            f"{noise_sigma_relative!r}"
        )
    meta = {
        "model": p.model,
        **asdict(p),
        "noise": float(noise_sigma_relative),
        "seed": int(seed),
    }
    clamped = 0
    # A product that overflows leaves a non-finite sample, which
    # CrossSectionCurve rejects; numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sigmas = np.asarray(evaluate(grid, p), dtype=np.float64)
        if noise_sigma_relative > 0.0:
            g = seeded_gaussian_noise(seed, grid.size, 1.0)
            noisy = sigmas * (1.0 + noise_sigma_relative * g)
            clamped = int(np.count_nonzero(noisy < 0.0))
            sigmas = np.maximum(noisy, 0.0)
    meta["clamped"] = clamped
    return CrossSectionCurve(grid, sigmas, meta)
