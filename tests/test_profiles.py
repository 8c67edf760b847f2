"""Tests for resonance profile shapes and curve synthesis."""

import math
import warnings

import numpy as np
import pytest

from efano.errors import DomainError
from efano.numkit import seeded_gaussian_noise
from efano.profiles import (
    MIN_CURVE_SAMPLES,
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
    breit_wigner,
    evaluate,
    fano,
    reduced_energy,
    synthesize,
)

# Dyadic fixture: E_r, Gamma, and the grid arithmetic below are exact
# in binary, so the interference zero and extremum land on float-exact
# values with no rounding slack needed.
FANO_DYADIC = FanoParameters(E_r=1.5, Gamma=0.5, q=4.0, sigma0=1.0)


class TestReducedEnergy:
    def test_exact_dyadic_values(self):
        assert reduced_energy(1.5, 1.5, 0.5) == 0.0
        assert reduced_energy(1.75, 1.5, 0.5) == 1.0
        assert reduced_energy(1.0, 1.5, 0.5) == -2.0

    def test_array_input(self):
        eps = reduced_energy(np.array([1.0, 1.5, 1.75]), 1.5, 0.5)
        assert eps.tolist() == [-2.0, 0.0, 1.0]

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, 5e-324])
    def test_bad_width(self, gamma):
        # Gamma = 5e-324 halves to 0: it raised ZeroDivisionError.
        with pytest.raises(DomainError):
            reduced_energy(1.0, 0.0, gamma)

    @pytest.mark.parametrize("e_r", [math.nan, math.inf])
    def test_bad_resonance_energy(self, e_r):
        with pytest.raises(DomainError, match="E_r"):
            reduced_energy(np.array([math.inf]), e_r, 1.0)

    def test_overflowing_offsets_read_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = reduced_energy(np.array([-1e308, 1e308]), 0.0, 1.0)
        assert eps.tolist() == [-math.inf, math.inf]


class TestBreitWigner:
    def test_peak_and_half_maximum(self):
        p = BreitWignerParameters(E_r=2.0, Gamma=1.0, sigma0=3.0)
        assert breit_wigner(2.0, p) == 3.0
        # eps = +-1 exactly at E_r +- Gamma/2: the definition of FWHM.
        assert breit_wigner(2.5, p) == 1.5
        assert breit_wigner(1.5, p) == 1.5

    def test_tail_value(self):
        p = BreitWignerParameters(E_r=2.0, Gamma=1.0, sigma0=3.0)
        # eps = 3 at E = 3.5, so sigma = sigma0/10.
        assert breit_wigner(3.5, p) == pytest.approx(0.3, rel=1e-15)

    def test_symmetry_about_resonance(self):
        p = BreitWignerParameters(E_r=1.25, Gamma=0.5, sigma0=2.0)
        for delta in (0.125, 0.25, 1.0, 3.5):
            assert breit_wigner(p.E_r + delta, p) == breit_wigner(p.E_r - delta, p)

    def test_far_wing_is_zero_without_warning(self):
        # eps*eps overflows; numpy warned about it for array input.
        p = BreitWignerParameters(E_r=0.0, Gamma=1.0, sigma0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert breit_wigner(np.array([1e200, -1e200]), p).tolist() == [0.0, 0.0]
            assert breit_wigner(np.float64(1e200), p) == 0.0


class TestFano:
    def test_interference_zero_is_exact(self):
        # eps = -q at E = E_r - q*Gamma/2 = 0.5, all arithmetic dyadic.
        assert fano(0.5, FANO_DYADIC) == 0.0

    def test_maximum_is_exact(self):
        # eps = 1/q at E = E_r + Gamma/(2q) = 1.5625: sigma0*(1 + q^2).
        assert fano(1.5625, FANO_DYADIC) == 17.0

    def test_maximum_dominates_grid(self):
        grid = np.linspace(0.25, 3.0, 2001)
        values = fano(grid, FANO_DYADIC)
        assert values.max() <= 17.0 * (1.0 + 1e-12)

    def test_q_zero_is_pure_dip(self):
        p = FanoParameters(E_r=1.0, Gamma=0.5, q=0.0, sigma0=2.0)
        assert fano(1.0, p) == 0.0
        # Far from resonance the profile recovers the background sigma0.
        assert fano(100.0, p) == pytest.approx(2.0, rel=1e-3)

    def test_negative_q_mirrors_positive_q(self):
        plus = FanoParameters(E_r=0.0, Gamma=2.0, q=3.0, sigma0=1.0)
        minus = FanoParameters(E_r=0.0, Gamma=2.0, q=-3.0, sigma0=1.0)
        for e in (-4.0, -0.5, 0.25, 2.0):
            assert fano(e, plus) == fano(-e, minus)

    @pytest.mark.parametrize("big_q", [1e3, 1e4])
    def test_lorentzian_limit(self, big_q):
        # For large q the rescaled profile approaches the Lorentzian
        # with discrepancy O(1/q) near resonance.
        p = FanoParameters(E_r=1.5, Gamma=0.5, q=big_q, sigma0=1.0)
        grid = np.linspace(0.5, 2.5, 801)
        eps = reduced_energy(grid, 1.5, 0.5)
        rescaled = fano(grid, p) / (p.sigma0 * big_q * big_q)
        lorentz = 1.0 / (1.0 + eps * eps)
        assert np.max(np.abs(rescaled - lorentz)) <= 3.0 / big_q

    def test_far_wing_tends_to_sigma0(self):
        # Past |eps| ~ 1.3e154 both squares overflow, and the direct
        # form read inf/inf = nan; there the profile is
        # sigma0 * (1 + q/eps)^2.  Gamma = 2 makes eps equal E.
        p = FanoParameters(E_r=0.0, Gamma=2.0, q=3.0, sigma0=0.5)
        E = np.array([-1e300, -1e200, -1e154, -3.0, 0.0, 1.0, 1e155, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fano(E, p)
            scalar = fano(-1e200, p)
            at_inf = fano(1e308, FanoParameters(E_r=-1e308, Gamma=2.0, q=3.0, sigma0=0.5))
        near = np.abs(E) < 1.3e154
        t = p.q + E[near]
        assert got[near].tobytes() == (p.sigma0 * (t * t) / (1.0 + E[near] ** 2)).tobytes()
        assert got[~near].tolist() == (p.sigma0 * (1.0 + p.q / E[~near]) ** 2).tolist()
        assert np.all(np.abs(got[~near] - 0.5) <= 1e-15)
        assert isinstance(scalar, float) and scalar == 0.5
        # E - E_r overflows to eps = inf, where the limit is sigma0.
        assert at_inf == 0.5

    def test_evaluate_dispatch(self):
        bw = BreitWignerParameters(E_r=1.0, Gamma=1.0, sigma0=1.0)
        assert evaluate(1.0, bw) == breit_wigner(1.0, bw)
        assert evaluate(1.0, FANO_DYADIC) == fano(1.0, FANO_DYADIC)
        with pytest.raises(DomainError):
            evaluate(1.0, {"model": "fano"})


class TestParameterValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(DomainError):
            BreitWignerParameters(E_r=1.0, Gamma=0.0, sigma0=1.0)
        with pytest.raises(DomainError):
            FanoParameters(E_r=1.0, Gamma=-0.5, q=1.0, sigma0=1.0)

    def test_half_width_must_not_underflow(self):
        # Gamma/2 rounds to 0, so no profile could be evaluated.
        with pytest.raises(DomainError, match="Gamma/2 underflows"):
            BreitWignerParameters(E_r=1.0, Gamma=5e-324, sigma0=1.0)
        with pytest.raises(DomainError, match="Gamma/2 underflows"):
            FanoParameters(E_r=1.0, Gamma=5e-324, q=1.0, sigma0=1.0)
        BreitWignerParameters(E_r=1.0, Gamma=1e-323, sigma0=1.0)

    def test_sigma0_must_be_positive(self):
        with pytest.raises(DomainError):
            BreitWignerParameters(E_r=1.0, Gamma=1.0, sigma0=0.0)

    def test_q_must_be_finite(self):
        with pytest.raises(DomainError):
            FanoParameters(E_r=1.0, Gamma=1.0, q=math.inf, sigma0=1.0)

    def test_e_r_must_be_finite(self):
        with pytest.raises(DomainError):
            BreitWignerParameters(E_r=math.nan, Gamma=1.0, sigma0=1.0)


class TestCrossSectionCurve:
    def test_samples_and_len(self):
        curve = CrossSectionCurve([1.0, 2.0, 3.0], [0.5, 0.0, 2.0], {"tag": 1})
        assert len(curve) == 3
        assert curve.meta == {"tag": 1}

    def test_meta_is_copied(self):
        meta = {"x": 1}
        curve = CrossSectionCurve([0.0, 1.0], [1.0, 1.0], meta)
        meta["x"] = 2
        assert curve.meta["x"] == 1

    @pytest.mark.parametrize(
        "energies,sigmas",
        [
            ([1.0], [1.0]),
            ([1.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([2.0, 1.0], [1.0, 1.0]),
            ([1.0, 2.0], [1.0, -0.1]),
            ([1.0, 2.0], [1.0, math.nan]),
            ([1.0, math.inf], [1.0, 1.0]),
        ],
    )
    def test_rejects_malformed_samples(self, energies, sigmas):
        with pytest.raises(DomainError):
            CrossSectionCurve(energies, sigmas)

    @pytest.mark.parametrize(
        "energies,sigmas,message",
        [
            ([1.0, math.inf], [1.0, math.nan], "grid must be finite"),
            ([1.0, 2.0], [1.0, math.inf], "curve samples must be finite"),
            ([2.0, 1.0], [1.0, 1.0], "grid must be strictly increasing"),
        ],
    )
    def test_messages(self, energies, sigmas, message):
        # The README quotes the first two; synthesize relies on all three.
        with pytest.raises(DomainError, match=f"^{message}$"):
            CrossSectionCurve(energies, sigmas)


class TestSynthesize:
    def grid(self, n=64):
        return np.linspace(0.5, 3.5, n)

    def test_noiseless_equals_formula(self):
        curve = synthesize(FANO_DYADIC, self.grid())
        assert np.array_equal(curve.sigmas, fano(curve.energies, FANO_DYADIC))
        assert curve.meta["clamped"] == 0
        assert curve.meta["model"] == "fano"
        assert curve.meta["noise"] == 0.0

    def test_meta_records_parameters(self):
        curve = synthesize(FANO_DYADIC, self.grid(), 0.05, seed=9)
        assert curve.meta["E_r"] == 1.5
        assert curve.meta["Gamma"] == 0.5
        assert curve.meta["q"] == 4.0
        assert curve.meta["sigma0"] == 1.0
        assert curve.meta["noise"] == 0.05
        assert curve.meta["seed"] == 9

    def test_bw_meta_has_no_q(self):
        p = BreitWignerParameters(E_r=1.0, Gamma=0.5, sigma0=1.0)
        curve = synthesize(p, self.grid())
        assert curve.meta["model"] == "breit_wigner"
        assert "q" not in curve.meta

    def test_same_seed_reproduces(self):
        a = synthesize(FANO_DYADIC, self.grid(), 0.02, seed=5)
        b = synthesize(FANO_DYADIC, self.grid(), 0.02, seed=5)
        assert np.array_equal(a.sigmas, b.sigmas)

    def test_different_seed_differs(self):
        a = synthesize(FANO_DYADIC, self.grid(), 0.02, seed=5)
        b = synthesize(FANO_DYADIC, self.grid(), 0.02, seed=6)
        assert not np.array_equal(a.sigmas, b.sigmas)

    def test_noise_is_relative_to_local_value(self):
        grid = self.grid(256)
        exact = fano(grid, FANO_DYADIC)
        noisy = synthesize(FANO_DYADIC, grid, 0.01, seed=3)
        g = seeded_gaussian_noise(3, grid.size, 1.0)
        assert np.array_equal(noisy.sigmas, np.maximum(exact * (1.0 + 0.01 * g), 0.0))

    def test_clamping_counts_negatives(self):
        # Huge relative noise drives roughly half the samples negative.
        grid = self.grid(128)
        curve = synthesize(FANO_DYADIC, grid, 50.0, seed=1)
        assert curve.meta["clamped"] > 20
        assert np.all(curve.sigmas >= 0.0)
        g = seeded_gaussian_noise(1, grid.size, 1.0)
        raw = fano(grid, FANO_DYADIC) * (1.0 + 50.0 * g)
        assert curve.meta["clamped"] == int(np.count_nonzero(raw < 0.0))

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            synthesize(FANO_DYADIC, np.linspace(0.5, 3.5, MIN_CURVE_SAMPLES - 1))

    def test_grid_must_increase(self):
        grid = np.ones(16)
        with pytest.raises(DomainError):
            synthesize(FANO_DYADIC, grid)

    @pytest.mark.parametrize("noise", [-0.1, math.nan, math.inf])
    def test_bad_noise_level(self, noise):
        with pytest.raises(DomainError):
            synthesize(FANO_DYADIC, self.grid(), noise)
