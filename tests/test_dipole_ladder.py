"""Tests for the inverse-square bound-state ladder."""

import math
import sys

import pytest

from efano import dipole_ladder
from efano.dipole_ladder import (
    CRITICAL_STRENGTH,
    BoundLadder,
    LadderEntry,
    alpha_from_strength,
    arg_gamma_term,
    build_ladder,
    geometric_energies,
    kappa_n,
    ladder_residual,
)
from efano.errors import DomainError, SubcriticalStrengthError
from efano.numkit import log_gamma

from oracles import arg_gamma_reference

# Ground-state wave number at alpha = 1, scale = 2: exactly
# 2*exp(-(pi/2 + arg Gamma(1 - i))), frozen using the independently
# verified phase arg Gamma(1 - i) = 0.30164032046753286.
KAPPA0_ALPHA_ONE = 0.3074971479608985


class TestAlphaFromStrength:
    def test_exact_values(self):
        assert alpha_from_strength(0.5) == 0.5
        assert alpha_from_strength(1.25) == 1.0

    @pytest.mark.parametrize("a", [0.25, 0.1, 0.0, -3.0])
    def test_subcritical_raises(self, a):
        with pytest.raises(SubcriticalStrengthError):
            alpha_from_strength(a)

    def test_just_above_critical(self):
        assert alpha_from_strength(CRITICAL_STRENGTH + 1e-12) > 0.0

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_nonfinite_raises(self, a):
        with pytest.raises(DomainError):
            alpha_from_strength(a)


class TestArgGammaTerm:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 5.0])
    def test_matches_product_reference(self, alpha):
        assert arg_gamma_term(alpha) == pytest.approx(
            arg_gamma_reference(alpha), abs=1e-13
        )

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(DomainError):
            arg_gamma_term(alpha)


class TestKappaN:
    def test_frozen_ground_state(self):
        assert kappa_n(1.0, 0) == pytest.approx(KAPPA0_ALPHA_ONE, rel=1e-13)

    def test_residual_vanishes_at_root(self):
        for alpha in (0.3, 0.5, 1.0, 2.0, 5.0):
            for n in range(6):
                k = kappa_n(alpha, n)
                assert abs(ladder_residual(alpha, k, n)) < 1e-12

    def test_residual_sign_brackets_root(self):
        # The residual decreases in kappa, so perturbing the root either
        # way must flip its sign.
        k = kappa_n(1.0, 0)
        assert ladder_residual(1.0, 1.01 * k, 0) < 0.0
        assert ladder_residual(1.0, 0.99 * k, 0) > 0.0

    def test_scale_is_a_pure_prefactor(self):
        for n in (0, 3):
            base = kappa_n(0.7, n)
            assert kappa_n(0.7, n, scale=3.7) == 3.7 / 2.0 * base

    def test_levels_decrease_geometrically(self):
        ratio = math.exp(-math.pi / 1.3)
        prev = kappa_n(1.3, 0)
        for n in range(1, 7):
            cur = kappa_n(1.3, n)
            assert cur / prev == pytest.approx(ratio, rel=1e-13)
            prev = cur

    @pytest.mark.parametrize("n", [-1, 2.0, "0"])
    def test_bad_level_index(self, n):
        with pytest.raises(DomainError):
            kappa_n(1.0, n)

    @pytest.mark.parametrize("scale", [0.0, -2.0, math.inf])
    def test_bad_scale(self, scale):
        with pytest.raises(DomainError):
            kappa_n(1.0, 0, scale=scale)


class TestLadderResidual:
    def test_rejects_bad_kappa(self):
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ladder_residual(1.0, kappa, 0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale(self, scale):
        # These raised a bare math domain error or returned nan or inf.
        with pytest.raises(DomainError, match="scale must be finite and positive"):
            ladder_residual(1.0, 1.0, 0, scale=scale)

    @pytest.mark.parametrize("n", [-1, 2.0, "0"])
    def test_bad_level_index(self, n):
        # kappa_n rejects these too; n = -1 used to return a number.
        with pytest.raises(DomainError, match="level index"):
            ladder_residual(1.0, 1.0, n)

    @pytest.mark.parametrize("scale,kappa", [(1e-308, 1e308), (1e308, 1e-308)])
    def test_ratio_out_of_float_range(self, scale, kappa):
        # scale/kappa reads 0 or inf; its log is taken by parts.
        want = math.log(scale) - math.log(kappa) - arg_gamma_term(1.0) - 0.5 * math.pi
        assert ladder_residual(1.0, kappa, 0, scale=scale) == pytest.approx(want, rel=1e-15)

    def test_wrong_level_offsets_by_pi(self):
        k = kappa_n(1.0, 2)
        r1 = ladder_residual(1.0, k, 1)
        r3 = ladder_residual(1.0, k, 3)
        assert r1 == pytest.approx(math.pi, rel=1e-12)
        assert r3 == pytest.approx(-math.pi, rel=1e-12)


class TestBuildLadder:
    def test_entries_and_energies(self):
        ladder = build_ladder(1.0, 8)
        assert isinstance(ladder, BoundLadder)
        assert ladder.truncated_at is None
        assert len(ladder.entries) == 9
        for i, entry in enumerate(ladder.entries):
            assert isinstance(entry, LadderEntry)
            assert entry.n == i
            assert entry.epsilon == -0.5 * entry.kappa**2
            assert entry.epsilon < 0.0

    def test_consecutive_ratio_matches_property(self):
        ladder = build_ladder(2.0, 10)
        want = ladder.energy_ratio
        assert want == math.exp(-math.pi)
        for a, b in zip(ladder.entries, ladder.entries[1:]):
            assert b.epsilon / a.epsilon == pytest.approx(want, rel=1e-12)

    def test_truncates_before_subnormal(self):
        # At alpha = 0.3 each level shrinks by about nine decades, so the
        # tower leaves the normal float range in the mid thirties.
        ladder = build_ladder(0.3, 60)
        assert ladder.truncated_at == 34
        assert len(ladder.entries) == 34
        assert abs(ladder.entries[-1].epsilon) >= sys.float_info.min
        dropped_kappa = kappa_n(0.3, ladder.truncated_at)
        assert 0.5 * dropped_kappa**2 < sys.float_info.min

    def test_scale_passes_through(self):
        ladder = build_ladder(0.8, 4, scale=5.0)
        assert ladder.scale == 5.0
        for entry in ladder.entries:
            assert abs(ladder_residual(0.8, entry.kappa, entry.n, scale=5.0)) < 1e-12

    def test_zero_levels(self):
        ladder = build_ladder(1.0, 0)
        assert len(ladder.entries) == 1
        assert ladder.entries[0].n == 0

    def test_levels_match_kappa_n_bit_for_bit(self):
        ladder = build_ladder(0.8, 12, scale=5.0)
        assert [e.kappa for e in ladder.entries] == [
            kappa_n(0.8, n, scale=5.0) for n in range(13)
        ]

    def test_arg_gamma_computed_once_per_ladder(self, monkeypatch):
        calls = []

        def counting(z):
            calls.append(z)
            return log_gamma(z)

        monkeypatch.setattr(dipole_ladder, "log_gamma", counting)
        assert len(build_ladder(1.0, 40).entries) == 41
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_bad_scale(self, scale):
        with pytest.raises(DomainError):
            build_ladder(1.0, 3, scale=scale)

    @pytest.mark.parametrize("n_max", [-1, 3.5])
    def test_bad_n_max(self, n_max):
        with pytest.raises(DomainError):
            build_ladder(1.0, n_max)

    @pytest.mark.parametrize(
        "alpha", [1e300, 1e150, 1e16], ids=["overflowing", "flat", "rounded-flat"]
    )
    def test_degenerate_ratio_raises(self, alpha):
        # 1e300 overflows the energies to -inf; at 1e150 and 1e16 the
        # ratio exp(-2*pi/alpha) rounds to 1 and levels stop shrinking.
        with pytest.raises(DomainError):
            build_ladder(alpha, 3)


class TestGeometricEnergies:
    def test_matches_build_ladder(self):
        ladder = build_ladder(1.5, 5)
        ground = ladder.entries[0].epsilon
        tower = geometric_energies(ground, 1.5, 6)
        assert len(tower) == 6
        assert tower[0] == ground
        for entry, energy in zip(ladder.entries, tower):
            assert energy == pytest.approx(entry.epsilon, rel=1e-12)

    def test_empty_tower(self):
        assert geometric_energies(-1.0, 1.0, 0) == []

    def test_ratio_is_exact_in_form(self):
        tower = geometric_energies(-2.0, 0.9, 4)
        want = math.exp(-2.0 * math.pi / 0.9)
        for a, b in zip(tower, tower[1:]):
            assert b / a == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("ground", [0.0, 1.0, math.nan, -math.inf])
    def test_bad_ground_energy(self, ground):
        with pytest.raises(DomainError):
            geometric_energies(ground, 1.0, 3)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            geometric_energies(-1.0, 1.0, -2)

    def test_stops_before_subnormal(self):
        # At alpha = 1 each level shrinks by exp(-2*pi); level 113 is the
        # first below the normal float range, level 119 the first zero.
        tower = geometric_energies(-1.0, 1.0, 200)
        assert len(tower) == 113
        assert abs(tower[-1]) >= sys.float_info.min
        assert math.exp(-2.0 * math.pi * 113) < sys.float_info.min

    def test_flat_ratio_raises(self):
        with pytest.raises(DomainError):
            geometric_energies(-1.0, 1e300, 2)
