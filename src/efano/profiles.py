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

from .errors import DomainError, require_finite, require_positive
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


@dataclass(frozen=True)
class BreitWignerParameters:
    """Symmetric resonance sigma0 / (1 + eps^2)."""

    model: ClassVar[str] = "breit_wigner"

    E_r: float
    Gamma: float
    sigma0: float

    def __post_init__(self) -> None:
        require_finite("E_r", self.E_r)
        _half_width(self.Gamma)
        require_positive("sigma0", self.sigma0)


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
        require_finite("E_r", self.E_r)
        _half_width(self.Gamma)
        require_finite("q", self.q)
        require_positive("sigma0", self.sigma0)


class CrossSectionCurve:
    """Sampled cross section sigma(E) on a strictly increasing grid.

    meta carries free-form provenance (generating parameters, seed,
    clamp count) that the CLI writes into CSV headers but never reads
    back.
    """

    __slots__ = ("energies", "sigmas", "meta")

    def __init__(self, energies, sigmas, meta: dict | None = None):
        e = np.asarray(energies, dtype=np.float64)
        s = np.asarray(sigmas, dtype=np.float64)
        if e.ndim != 1 or s.ndim != 1 or e.size != s.size:
            raise DomainError("energies and sigmas must be 1-d and equal length")
        if e.size < 2:
            raise DomainError(f"curve needs at least 2 samples, got {e.size}")
        if not np.all(np.isfinite(e)):
            raise DomainError("grid must be finite")
        if not np.all(np.isfinite(s)):
            raise DomainError("curve samples must be finite")
        if not np.all(np.diff(e) > 0.0):
            raise DomainError("grid must be strictly increasing")
        if np.any(s < 0.0):
            raise DomainError("cross sections must be nonnegative")
        self.energies = e
        self.sigmas = s
        self.meta = dict(meta) if meta else {}

    def __len__(self) -> int:
        return int(self.energies.size)


ProfileParameters = Union[FanoParameters, BreitWignerParameters]


def _half_width(Gamma: float) -> float:
    """Gamma/2, which must be a positive float: Gamma = 5e-324 halves to 0."""
    require_positive("Gamma", Gamma)
    half = 0.5 * Gamma
    if half == 0.0:
        raise DomainError(f"Gamma = {Gamma!r} is too small: Gamma/2 underflows to zero")
    return half


def reduced_energy(E, E_r: float, Gamma: float):
    """(E - E_r) / (Gamma/2): energy offset in units of the half-width.

    E may be a scalar or an array; the result has the same shape.  An
    offset past the float range reads +-inf.
    """
    require_finite("E_r", E_r)
    half = _half_width(Gamma)
    with np.errstate(over="ignore"):
        return (E - E_r) / half


def breit_wigner(E, p: BreitWignerParameters):
    """sigma0 / (1 + eps^2), the symmetric Lorentzian resonance."""
    eps = reduced_energy(E, p.E_r, p.Gamma)
    with np.errstate(over="ignore"):
        return p.sigma0 / (1.0 + eps * eps)


def fano(E, p: FanoParameters):
    """sigma0 * (q + eps)^2 / (1 + eps^2), the interference profile.

    Past |eps| ~ 1.3e154 both squares overflow and the quotient reads
    inf/inf; there the profile is sigma0 * (1 + q/eps)^2 to rounding.
    """
    eps = reduced_energy(E, p.E_r, p.Gamma)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = p.q + eps
        sigma = p.sigma0 * (t * t) / (1.0 + eps * eps)
        far = np.isnan(sigma)
        if far.any():
            sigma = np.where(far, p.sigma0 * (1.0 + np.divide(p.q, eps)) ** 2, sigma)[()]
    return sigma


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
    # A non-finite grid point or an overflowing product leaves a value
    # that CrossSectionCurve rejects; numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sigmas = np.asarray(evaluate(grid, p), dtype=np.float64)
        if noise_sigma_relative > 0.0:
            g = seeded_gaussian_noise(seed, grid.size, 1.0)
            noisy = sigmas * (1.0 + noise_sigma_relative * g)
            clamped = int(np.count_nonzero(noisy < 0.0))
            sigmas = np.maximum(noisy, 0.0)
    meta["clamped"] = clamped
    return CrossSectionCurve(grid, sigmas, meta)
