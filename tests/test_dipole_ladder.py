"""Tests for the inverse-square bound-state ladder."""

import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# Full-range floats hit the ends of the float range; powers of ten
# spread the draws over every decade between.
POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=sys.float_info.max) | st.floats(
    -320.0, 308.0
).map(lambda e: 10.0**e)

# A float result carries a relative error of a few units of 2**-53 per
# operation, and exp(x) one of ~|x| * 2**-53 from the rounding of x.
ULP = 2.0**-53

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

    @pytest.mark.parametrize(
        "alpha,n,scale,kappa", [(1e10, 0, 1e300, "inf"), (0.3, 1000, 2.0, "0.0")],
        ids=["overflow", "underflow"],
    )
    def test_kappa_out_of_float_range_raises(self, alpha, n, scale, kappa):
        # ladder_residual rejects a kappa of inf or 0.0, so kappa_n must not return one.
        want = f"level {n} wave number at scale {scale!r} is {kappa}"
        with pytest.raises(DomainError, match=re.escape(want)):
            kappa_n(alpha, n, scale=scale)

    @pytest.mark.parametrize(
        "alpha,n,scale",
        [(3e305, 0, 1e-300), (3e305, 5, 1e-300), (3e305, 9999, 1e-300),
         (1e306, 0, 1e-300), (1e306, 5, 1e-300), (1e306, 9999, 1e-300),
         (sys.float_info.max, 0, 1e-300), (sys.float_info.max, 9999, 2.0),
         (1.0, 230, 1e300), (1.0, 300, 1e300), (0.12, 27, 3e159)],
    )
    def test_matches_mpmath_where_its_parts_leave_the_float_range(self, alpha, n, scale):
        # From alpha ~ 3e305 arg Gamma(1 - i*alpha) overflows to -inf, and
        # in the last three cases exp(-phase/alpha) alone is subnormal or
        # zero; kappa itself is a normal float in every case.  kappa is
        # scale * exp(x) with x its exponent, so it carries ~|x| * 2**-53.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            big = mpmath.mpf(alpha)
            phase = (n + mpmath.mpf(0.5)) * mpmath.pi + mpmath.loggamma(mpmath.mpc(1, -big)).imag
            x = -phase / big
            want = mpmath.mpf(scale) * mpmath.exp(x)
            err = abs(kappa_n(alpha, n, scale=scale) / want - 1)
        assert err <= 2.0 * (abs(float(x)) + 1.0) * ULP

    def test_subnormal_kappa_is_returned(self):
        # Level 68 at alpha = 0.3 lies below the normal float range.
        assert 0.0 < kappa_n(0.3, 68) < sys.float_info.min


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

    @pytest.mark.parametrize("alpha", [3e305, 1e306, 1e308])
    @pytest.mark.parametrize("scale", [1e-300, 2.0])
    def test_root_past_arg_gamma_overflow(self, alpha, scale):
        # arg Gamma is -inf here, and at scale 1e-300 so is
        # alpha*ln(scale/kappa); their sum was NaN.  The residual of the
        # root carries alpha*ln(alpha) times a few 2**-53, and a kappa
        # 1% off the root moves it by ~alpha/100, with the right sign.
        kappa = kappa_n(alpha, 0, scale=scale)
        residual = ladder_residual(alpha, kappa, 0, scale=scale)
        assert math.isfinite(residual)
        assert abs(residual) <= alpha * 2.0**-50 * (math.log(alpha) + 1.0)
        assert ladder_residual(alpha, 1.01 * kappa, 0, scale=scale) < -alpha / 200.0
        assert ladder_residual(alpha, 0.99 * kappa, 0, scale=scale) > alpha / 200.0

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

    def test_no_level_past_truncation_is_evaluated(self, monkeypatch):
        # One _scaled_exp per level: the level that truncates is the
        # last one evaluated, however many levels were asked for.
        calls = []
        scaled_exp = dipole_ladder._scaled_exp

        def counting(c, x):
            calls.append(x)
            return scaled_exp(c, x)

        monkeypatch.setattr(dipole_ladder, "_scaled_exp", counting)
        ladder = build_ladder(1.0, 10**6)
        assert ladder.truncated_at == 113
        assert len(calls) == ladder.truncated_at + 1
        calls.clear()
        tower = geometric_energies(-1.0, 1.0, 10**6)
        assert len(calls) == len(tower) + 1

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

    def test_one_level_past_arg_gamma_overflow(self):
        # kappa is finite at alpha = 1e306, but the ratio exp(-2*pi/alpha)
        # rounds to 1, so a second level cannot be told from the first.
        ladder = build_ladder(1e306, 0, scale=1e-300)
        assert [e.kappa for e in ladder.entries] == [kappa_n(1e306, 0, scale=1e-300)]
        with pytest.raises(DomainError, match="the ladder ratio rounds to 1"):
            build_ladder(1e306, 1, scale=1e-300)


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

    @settings(max_examples=200, deadline=None)
    @given(ground=POSITIVE_FLOATS, alpha=POSITIVE_FLOATS, count=st.integers(0, 400))
    @example(ground=2.0, alpha=0.9, count=4)
    @example(ground=1e300, alpha=2.0 * math.pi / 10.0, count=200)
    def test_ratio_is_exact_in_form(self, ground, alpha, count):
        # Level n is -ground * exp(step * n), step = -2*pi/alpha; a ratio
        # that rounds to 1 raises.  Levels are normal, negative and
        # strictly shallower, consecutive ones differ by exp(step), and
        # the first level left out lies below the normal float range.
        try:
            tower = geometric_energies(-ground, alpha, count)
        except DomainError as exc:
            assert "the ladder ratio rounds to 1" in str(exc)
            return
        step = -2.0 * math.pi / alpha
        assert all(-math.inf < e <= -sys.float_info.min for e in tower)
        assert all(a < b for a, b in zip(tower, tower[1:]))
        # The ratio is compared in logs, where it cannot underflow: each
        # log carries its own size, and each level the size of its
        # exponent, step * n, times 2**-53.
        logs = [math.log(-e) for e in tower]
        for n, (la, lb) in enumerate(zip(logs, logs[1:])):
            size = abs(la) + abs(lb) + abs(step) * (2 * n + 2) + 1.0
            assert abs(lb - la - step) <= 8.0 * size * ULP
        n = len(tower)
        if n < count:
            exponent = step * n if n else 0.0
            assert math.log(ground) + exponent < math.log(sys.float_info.min) + 1e-9

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


@settings(max_examples=200, deadline=None)
@given(
    alpha=POSITIVE_FLOATS, scale=POSITIVE_FLOATS,
    n=st.integers(0, 300), n_max=st.integers(0, 300),
)
@example(alpha=0.12, scale=3e159, n=27, n_max=40)
@example(alpha=1e306, scale=1e-300, n=0, n_max=0)
def test_ladder_invariants_hold_at_extreme_inputs(alpha, scale, n, n_max):
    # kappa_n gives a finite positive wave number or raises DomainError;
    # a ladder's entries are strictly ordered, normal and negative, each
    # kappa is kappa_n's bit for bit, consecutive energies differ by the
    # factor exp(-2*pi/alpha), each entry solves the quantization
    # condition, and the first level left out has a subnormal energy.
    try:
        kappa = kappa_n(alpha, n, scale=scale)
    except DomainError:
        pass
    else:
        assert isinstance(kappa, float) and 0.0 < kappa < math.inf
    try:
        ladder = build_ladder(alpha, n_max, scale=scale)
    except DomainError:
        return
    energies = [entry.epsilon for entry in ladder.entries]
    assert all(-math.inf < e <= -sys.float_info.min for e in energies)
    assert all(a < b for a, b in zip(energies, energies[1:]))
    for entry in ladder.entries:
        assert entry.kappa == kappa_n(alpha, entry.n, scale=scale)
    # Level n's exponent x_n = ln(kappa_n / scale) sums terms of size
    # (n + 1/2)*pi/alpha and |arg Gamma|/alpha, and its energy carries
    # ~2*|x_n| * 2**-53 from exp.  The ratio is compared in logs, where
    # it cannot underflow, and each log adds its own size times 2**-53.
    exponents = [math.log(e.kappa) - math.log(scale) for e in ladder.entries]
    for a, b, xa, xb in zip(ladder.entries, ladder.entries[1:], exponents, exponents[1:]):
        la, lb = math.log(-a.epsilon), math.log(-b.epsilon)
        size = abs(la) + abs(lb) + abs(xa) + abs(xb) + (a.n + 3) * math.pi / alpha + 1.0
        assert abs(lb - la + 2.0 * math.pi / alpha) <= 8.0 * size * ULP
    # The residual adds terms of size |arg Gamma|, (n + 1/2)*pi and alpha.
    # Past alpha ~ 3e305, where arg Gamma overflows, Stirling's
    # alpha*(ln(alpha) - 1) stands for |arg Gamma|.
    arg_gamma = arg_gamma_term(alpha)
    big = abs(arg_gamma) if math.isfinite(arg_gamma) else alpha * math.log(alpha)
    for entry in ladder.entries:
        size = big + (entry.n + 1) * math.pi + alpha
        assert abs(ladder_residual(alpha, entry.kappa, entry.n, scale=scale)) <= 8.0 * size * ULP
    if ladder.truncated_at is not None:
        try:
            kappa = kappa_n(alpha, ladder.truncated_at, scale=scale)
        except DomainError:
            return  # kappa underflows to 0
        assert 0.5 * kappa * kappa < sys.float_info.min
