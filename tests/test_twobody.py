"""Tests for the attractive square-well two-body model."""

import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efano import twobody
from efano.errors import ConvergenceError, DomainError, UnreachableTargetError
from efano.numkit import find_root
from efano.twobody import (
    DEFAULT_UNITARITY_TOL,
    SquareWell,
    binding_energy,
    scattering_length,
    tune_to_scattering_length,
)


def well_with_x0(x0: float, range_rw: float = 1.0, mu: float = 0.5) -> SquareWell:
    """Build a well whose dimensionless strength is exactly x0.

    With mu = 1/2 and Rw = 1 the depth is simply x0**2, which keeps the
    strength free of rounding beyond the square itself.
    """
    depth = x0 * x0 / (2.0 * mu * range_rw * range_rw)
    return SquareWell(depth_V0=depth, range_Rw=range_rw, reduced_mass_mu=mu)


def _round_trip_count(target: float, branch: int) -> int:
    """Tune an Rw = 1 well to target on branch, check that the tuned well
    reproduces it inside its branch, and return its bound-state count."""
    template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
    tuned = tune_to_scattering_length(template, target, branch=branch)
    assert tuned.range_Rw == template.range_Rw
    assert tuned.reduced_mass_mu == template.reduced_mass_mu
    lo, hi = branch * math.pi, (branch + 1) * math.pi
    # a == Rw sits at the interval's closed end, the zero of tan.
    assert lo < tuned.x0 < hi or (target == 1.0 and tuned.x0 == pytest.approx(hi, rel=1e-15))
    res = scattering_length(tuned)
    assert not res.unitary
    assert res.a == pytest.approx(target, rel=1e-9)
    return res.bound_state_count


def _check_weak_binding(ratio: float, branch: int) -> None:
    # Once a is many times the range, |eps| approaches 1/(2 mu a^2).
    template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
    tuned = tune_to_scattering_length(template, ratio * template.range_Rw, branch)
    eps = binding_energy(tuned)
    a = scattering_length(tuned).a
    product = abs(eps) * 2.0 * tuned.reduced_mass_mu * a * a
    assert 0.9 < product < 1.1
    # The agreement tightens as the state gets shallower.
    assert abs(product - 1.0) < 3.0 * template.range_Rw / a


class TestSquareWell:
    def test_x0_roundtrip(self):
        well = well_with_x0(math.pi)
        assert well.x0 == pytest.approx(math.pi, rel=1e-15)
        assert well.k0 == pytest.approx(math.pi, rel=1e-15)

    def test_x0_scales_with_range(self):
        a = well_with_x0(2.0, range_rw=1.0)
        b = SquareWell(depth_V0=a.depth_V0 / 9.0, range_Rw=3.0, reduced_mass_mu=0.5)
        assert b.x0 == pytest.approx(a.x0, rel=1e-15)

    @pytest.mark.parametrize("field", ["depth_V0", "range_Rw", "reduced_mass_mu"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_parameters(self, field, bad):
        kwargs = {"depth_V0": 1.0, "range_Rw": 1.0, "reduced_mass_mu": 0.5}
        kwargs[field] = bad
        with pytest.raises(DomainError):
            SquareWell(**kwargs)


class TestScatteringLength:
    def test_first_zero_crossing_at_pi(self):
        # tan(x0)/x0 vanishes at x0 = pi, so a returns to Rw there.
        res = scattering_length(well_with_x0(math.pi))
        assert not res.unitary
        assert res.a == pytest.approx(1.0, abs=1e-13)
        assert res.bound_state_count == 1

    def test_unitary_at_half_pi(self):
        res = scattering_length(well_with_x0(math.pi / 2.0))
        assert res.unitary
        assert res.a is None
        assert res.bound_state_count == 1

    def test_unitarity_window_is_adjustable(self):
        well = well_with_x0(math.pi / 2.0 + 1e-8)
        assert scattering_length(well).unitary is False
        wide = scattering_length(well, unitarity_tol=1e-6)
        assert wide.unitary is True
        with pytest.raises(DomainError):
            scattering_length(well, unitarity_tol=-1.0)

    @pytest.mark.parametrize(
        "x0,count",
        [(0.3, 0), (1.2, 0), (2.0, 1), (4.5, 1), (5.0, 2), (8.0, 3)],
    )
    def test_bound_state_count(self, x0, count):
        assert scattering_length(well_with_x0(x0)).bound_state_count == count

    def test_sign_pattern_below_first_divergence(self):
        # Shallow wells scatter with a < 0; between the first divergence
        # and the first zero of tan the length exceeds Rw.
        assert scattering_length(well_with_x0(0.8)).a < 0.0
        assert scattering_length(well_with_x0(2.4)).a > 1.0

    @pytest.mark.parametrize(
        "depth,mass",
        [(1e300, 0.5), (1e-300, 1e-300), (1e300, 1e300)],
        ids=["x0-past-2**52", "x0-underflows", "x0-overflows"],
    )
    def test_unrepresentable_strength_raises(self, depth, mass):
        well = SquareWell(depth_V0=depth, range_Rw=1.0, reduced_mass_mu=mass)
        with pytest.raises(DomainError):
            scattering_length(well)
        with pytest.raises(DomainError):
            binding_energy(well)

    def test_shallow_well_expansion(self):
        # For x0 -> 0, a/Rw = 1 - tan(x0)/x0 = -x0**2/3 + O(x0**4).
        x0 = 1e-4
        res = scattering_length(well_with_x0(x0))
        assert res.a == pytest.approx(-x0 * x0 / 3.0, rel=1e-7)
        assert res.bound_state_count == 0

    def test_shallow_wells_match_mpmath(self):
        # 1 - tan(x0)/x0 cancels for x0 << 1; the series form keeps a to
        # a few ulp all the way down.  x0 = 1e-8 used to give a = 0.0.
        mpmath = pytest.importorskip("mpmath")
        for x0 in (1e-150, 1e-100, 1e-16, 1e-8, 1e-6, 1e-4, 0.01, 0.3, 0.9, 1.0 - 2**-52):
            well = well_with_x0(x0)
            with mpmath.workdps(340):
                big_x0 = mpmath.mpf(well.x0)
                want = 1 - mpmath.tan(big_x0) / big_x0
                err = float(abs((mpmath.mpf(scattering_length(well).a) - want) / want))
            assert err < 2e-15, (x0, err)


class TestBindingEnergy:
    def test_none_without_bound_state(self):
        assert binding_energy(well_with_x0(math.pi / 2.0 - 0.01)) is None
        assert binding_energy(well_with_x0(0.5)) is None

    @pytest.mark.parametrize("x0", [2.0, 2.5, 4.0, 5.5, 7.0, 9.3])
    def test_satisfies_matching_condition(self, x0):
        # Plug the reported energy back into the textbook matching
        # condition k' * cot(k' R) = -kappa for the outermost state.
        well = well_with_x0(x0)
        eps = binding_energy(well)
        assert eps is not None and eps < 0.0
        mu, rw = well.reduced_mass_mu, well.range_Rw
        k_in = math.sqrt(2.0 * mu * (well.depth_V0 + eps))
        kappa_out = math.sqrt(-2.0 * mu * eps)
        lhs = k_in / math.tan(k_in * rw)
        assert lhs == pytest.approx(-kappa_out, rel=1e-8, abs=1e-8)

    def test_energy_above_well_bottom(self):
        well = well_with_x0(3.0)
        eps = binding_energy(well)
        assert -well.depth_V0 < eps < 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 100])
    def test_zero_at_threshold(self, m):
        # At x0 = (m - 1/2)*pi the outermost state sits at threshold and
        # its bracket in kappa*Rw collapses to the single point 0.
        well = well_with_x0((m - 0.5) * math.pi)
        assert scattering_length(well).bound_state_count == m
        assert binding_energy(well) == 0.0

    def test_zero_when_count_rounds_up_below_threshold(self):
        # One ulp below pi/2, floor(x0/pi + 1/2) still rounds up to 1.
        well = well_with_x0(math.nextafter(math.pi / 2.0, 0.0))
        assert scattering_length(well).bound_state_count == 1
        assert binding_energy(well) == 0.0

    @pytest.mark.parametrize(
        "branch,sign", [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)]
    )
    def test_matches_mpmath_on_tuned_wells(self, branch, sign):
        # Compare with the exact root for the same float x0 (branch 0
        # wells with a < 0 hold no bound state).  Rounding in x' ~ x0
        # leaves an absolute error ~eps*x0^2 in the matching condition,
        # so the relative error in epsilon may grow like |a|*x0^2/Rw,
        # which is the condition number of a(x0).
        mpmath = pytest.importorskip("mpmath")
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        checked = 0
        for k in range(17):
            target = sign * 10.0 ** (2.0 + k / 4.0)
            try:
                well = tune_to_scattering_length(template, target, branch=branch)
            except ConvergenceError:
                continue
            eps = binding_energy(well)
            if eps is None:
                continue
            x0, rw, mu = well.x0, well.range_Rw, well.reduced_mass_mu
            with mpmath.workdps(50):
                big_x0 = mpmath.mpf(x0)

                def matching(y):
                    xp = mpmath.sqrt(big_x0**2 - y**2)
                    return xp * mpmath.cos(xp) + y * mpmath.sin(xp)

                y = mpmath.findroot(matching, mpmath.sqrt(-2.0 * mu * eps) * rw)
                want = -(y**2) / (2 * mpmath.mpf(mu) * mpmath.mpf(rw) ** 2)
                rel = float(abs((eps - want) / want))
            bound = 16.0 * sys.float_info.epsilon * (1.0 + abs(target) * x0 * x0 / rw)
            assert rel <= bound, (target, branch, rel / bound)
            checked += 1
        assert checked >= 8

    def test_no_less_accurate_than_brent(self):
        # Relative errors of epsilon in units of 2**-53 on wells holding 1
        # to 4 states.  Brent's method, which find_root replaced, read a
        # median of 2.3089 and a 90th percentile of 11.8598 on these
        # wells (rounded up).  Both solvers land within the rounding
        # noise of the matching condition near its root, so the 90th
        # percentile of a few hundred wells spreads by +-25%; 20,000
        # resolve it.  The reference root of x' cos x' + y sin x' is one
        # 30-digit Newton step from the float root, which squares its
        # ~1e-14 error.
        mpmath = pytest.importorskip("mpmath")
        r = random.Random(21)
        errors = []
        for _ in range(20_000):
            well = well_with_x0(r.uniform(1.6, 13.0))
            eps = binding_energy(well)
            mu, rw = well.reduced_mass_mu, well.range_Rw
            with mpmath.workdps(30):
                x0 = mpmath.mpf(well.x0)
                y = mpmath.sqrt(-2 * mu * mpmath.mpf(eps)) * rw
                xp = mpmath.sqrt(x0 * x0 - y * y)
                cos, sin = mpmath.cos(xp), mpmath.sin(xp)
                y -= (xp * cos + y * sin) / ((1 + y) * (sin - y / xp * cos))
                want = -y * y / (2 * mu * rw * rw)
                errors.append(float(abs((eps - want) / want)) * 2.0**53)
        errors.sort()
        assert errors[len(errors) // 2] <= 2.3089
        assert errors[len(errors) * 9 // 10] <= 11.8598

    def test_deeper_well_binds_harder(self):
        shallow = binding_energy(well_with_x0(1.8))
        deep = binding_energy(well_with_x0(2.6))
        # Both are single-state wells on the same branch; the deeper one
        # must bind more strongly.
        assert deep < shallow < 0.0


class TestTuneToScatteringLength:
    @pytest.mark.parametrize(
        "target,branch,count",
        [
            (-5.0, 0, 0),
            (-2500.0, 0, 0),
            (5.0, 0, 1),
            (1600.0, 0, 1),
            (1.0 + 1e-9, 0, 1),
            (-0.01, 0, 0),
            (0.5, 1, 1),
            (-2500.0, 1, 1),
            (1600.0, 1, 2),
            (1600.0, 2, 3),
        ],
    )
    def test_round_trip(self, target, branch, count):
        assert _round_trip_count(target, branch) == count

    @settings(max_examples=150, deadline=None)
    @given(
        target=st.floats(-3.0, 9.0).map(lambda e: 10.0**e) | st.floats(-3.0, 9.0).map(lambda e: -(10.0**e)),
        branch=st.integers(0, 3),
    )
    def test_round_trip_over_targets_and_branches(self, target, branch):
        # Branch 0 reaches no target in (0, Rw).  From |a| ~ 1e5*Rw no
        # float64 depth reproduces the target to 1e-9, because a(x0)'s
        # condition number ~|a|*x0^2/Rw grows with it, and the tune says so
        # with ConvergenceError; every smaller target must tune.  The well
        # holds branch bound states below Rw and branch + 1 at or above it.
        assume(not (branch == 0 and 0.0 < target < 1.0))
        try:
            count = _round_trip_count(target, branch)
        except ConvergenceError:
            assert abs(target) >= 1e4
            return
        assert count == branch + (target >= 1.0)

    def test_respects_template_geometry(self):
        template = SquareWell(depth_V0=3.0, range_Rw=2.5, reduced_mass_mu=1.7)
        tuned = tune_to_scattering_length(template, -40.0)
        res = scattering_length(tuned)
        assert res.a == pytest.approx(-40.0, rel=1e-9)

    def test_deterministic(self):
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        a = tune_to_scattering_length(template, 7.7, branch=1)
        b = tune_to_scattering_length(template, 7.7, branch=1)
        assert a.depth_V0 == b.depth_V0

    def test_small_positive_target_unreachable_on_branch_zero(self):
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        with pytest.raises(UnreachableTargetError):
            tune_to_scattering_length(template, 0.5, branch=0)

    @pytest.mark.parametrize("target", [0.0, math.nan, math.inf, -math.inf])
    def test_degenerate_targets(self, target):
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        with pytest.raises(UnreachableTargetError):
            tune_to_scattering_length(template, target)

    def test_underflowing_geometry_raises(self):
        # 2*mu*Rw^2 = 2e-400 underflows to 0, so no depth reaches x0.
        template = SquareWell(depth_V0=1.0, range_Rw=1e-200, reduced_mass_mu=1.0)
        with pytest.raises(DomainError):
            tune_to_scattering_length(template, 5.0)

    @pytest.mark.parametrize(
        "template, target, value, depth",
        [
            (SquareWell(1.0, 1e-160, 1e-3), -5e-160, "2e-323", "inf"),
            (SquareWell(1.0, 1e160, 1e3), -5e160, "inf", "0.0"),
        ],
        ids=["depth-overflows", "depth-underflows"],
    )
    def test_depth_outside_float_range_raises(self, template, target, value, depth):
        # 2*mu*Rw^2 is nonzero, but x0^2 over it is no positive float:
        # the template is at fault, not a depth the caller gave.
        with pytest.raises(DomainError) as info:
            tune_to_scattering_length(template, target)
        message = str(info.value)
        assert message.startswith(f"2*mu*Rw^2 = {value} for mu = ")
        assert f"x0^2/(2*mu*Rw^2) = {depth} at x0 = " in message

    def test_tuned_strength_overflow_raises(self):
        # x ~ 1.57 gives a finite depth, but 2*mu*V0 ~ 2.4e600 overflows,
        # so the tuned well's x0 reads inf and the final check must say
        # so rather than take tan(inf).
        template = SquareWell(depth_V0=1.0, range_Rw=1e-300, reduced_mass_mu=1e300)
        with pytest.raises(DomainError, match="x0 = sqrt"):
            tune_to_scattering_length(template, -5.0)

    @pytest.mark.parametrize("branch", [0, 1, 2, 3, 4, 5])
    def test_target_equal_to_range(self, branch):
        # a == Rw sits at the zero of tan on the far side of the pole.
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        tuned = tune_to_scattering_length(template, 1.0, branch=branch)
        assert scattering_length(tuned).a == pytest.approx(1.0, rel=1e-9)
        assert scattering_length(tuned).bound_state_count == branch + 1

    @pytest.mark.parametrize(
        "target,branch", [(1e300, 0), (1e15, 1), (-1e15, 1), (-1e300, 3)]
    )
    def test_unrepresentable_target_raises(self, target, branch):
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        with pytest.raises(ConvergenceError) as info:
            tune_to_scattering_length(template, target, branch=branch)
        message = str(info.value)
        assert "1e-9 relative" in message
        assert "condition number of ~|a|*x0^2/Rw" in message
        assert "not representable with a float64 depth" in message

    @pytest.mark.parametrize("target", [-5e-324, -1e-310])
    def test_subnormal_depth_raises(self, target):
        # The solve hits these targets, but only with a subnormal depth
        # (1e-323 for -5e-324): the message names the depth, not a
        # condition number of 0.
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        with pytest.raises(ConvergenceError) as info:
            tune_to_scattering_length(template, target)
        message = str(info.value)
        assert "would be the subnormal float" in message
        assert "no normal float64 depth reaches this target" in message
        assert "condition number" not in message

    @pytest.mark.parametrize(
        "template,target",
        [
            (SquareWell(1.0, 1e300, 1e16), -2.401259243608378e-164),
            (SquareWell(1.0, 4503599627370496.0, 1.0), -4.4117989e-316),
            (SquareWell(1.0, 0.25, 2.11371095e-316), -1.7976931348623157e308),
        ],
        ids=["ratio-underflows", "ratio-underflows-cli", "ratio-overflows"],
    )
    def test_target_to_range_ratio_out_of_range_raises(self, template, target):
        # t = target/Rw reads 0 or -inf; the solve used to return x = 0
        # and the Newton slope divided by x*x*cos(x)**2 = 0.
        with pytest.raises(DomainError, match="target/Rw = .* leaves the float range"):
            tune_to_scattering_length(template, target)

    def test_shallow_targets_tune_within_tolerance(self):
        # |a| < Rw: the polish must stop on a test relative to |a|, not
        # to Rw, or the error left by the bracketed root stays.
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        for k in range(200):
            target = -(10.0 ** (-1.0 - 13.0 * k / 199))
            tuned = tune_to_scattering_length(template, target)
            assert scattering_length(tuned).a == pytest.approx(target, rel=1e-9)

    def test_shallow_branch_zero_log_grid(self):
        # Down to |a| = 1e-21 * Rw.  h(x) = sin x - c*x*cos x cancels as
        # x -> 0, and a fixed lower bracket end of 1e-8 lay above every
        # root with |a| below ~3e-17 * Rw: from a = -4.1e-15 on, 131 of
        # these 400 targets raised ConvergenceError.
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        for k in range(400):
            target = -(10.0 ** (-1.0 - 20.0 * k / 399))
            tuned = tune_to_scattering_length(template, target, 0)
            assert scattering_length(tuned).a == pytest.approx(target, rel=1e-9), target

    def test_newton_polish_stays_on_branch(self):
        # At the far end of branch 3 a Newton step on a(x) would leave
        # the bracket for a depth that overflows to inf.
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        with pytest.raises(ConvergenceError):
            tune_to_scattering_length(template, -1e300, branch=3)

    @pytest.mark.parametrize("branch", [-1, 0.5, "1"])
    def test_bad_branch(self, branch):
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        with pytest.raises(DomainError):
            tune_to_scattering_length(template, -1.0, branch=branch)


class TestSolverWork:
    def test_evaluations_per_root(self, monkeypatch):
        # The benchmark's kind of targets: 8 log-spaced |a| from 25 to 1e4
        # on branches 0-3, both signs.  Every evaluation of the matching
        # condition counts: the Newton start, the bracket ends and the
        # bracketed iterations.  Brent's method took 6.75 evaluations per
        # tuning root and 7.73 per dimer root here; the safeguarded Newton
        # solve from the false-position point took 5.31 and 6.91; started
        # at the universal estimates, the solves take 2.42 (at most 4)
        # and 5.20 (at most 7).
        counts = []
        solve = twobody._solve

        def counting(f, lo, hi, start=None):
            n = 0

            def counted(x):
                nonlocal n
                n += 1
                return f(x)

            try:
                return solve(counted, lo, hi, start)
            finally:
                counts.append(n)

        monkeypatch.setattr(twobody, "_solve", counting)
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        tune, dimer = [], []
        for branch in range(4):
            for sign in (1.0, -1.0):
                for k in range(8):
                    target = sign * 25.0 * 400.0 ** (k / 7.0)
                    counts.clear()
                    well = tune_to_scattering_length(template, target, branch)
                    tune += counts
                    counts.clear()
                    binding_energy(well)
                    dimer += counts
        assert len(tune) == 64 and len(dimer) == 56
        assert sum(tune) / len(tune) < 2.5 and max(tune) <= 4
        assert sum(dimer) / len(dimer) < 5.3 and max(dimer) <= 7


def _without_start(monkeypatch) -> None:
    solve = twobody._solve
    monkeypatch.setattr(twobody, "_solve", lambda f, lo, hi, start=None: solve(f, lo, hi))


def _bracketed_calls(monkeypatch) -> list:
    calls = []

    def spy(*args):
        calls.append(args)
        return find_root(*args)

    monkeypatch.setattr(twobody, "find_root", spy)
    return calls


class TestUniversalStart:
    """Every exit of the guarded Newton start hands the root to find_root
    on the same bracket, bit for bit as if no start were given."""

    TEMPLATE = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)

    @pytest.mark.parametrize(
        "call",
        [
            # x1 = pi/2 - 1/(pi/2 * 1.01) ~ 0.94 lies past the branch-0
            # bracket end 2*sqrt(3 * 0.01) ~ 0.35.
            lambda: tune_to_scattering_length(TestUniversalStart.TEMPLATE, -0.01, 0),
            # target == Rw: t = 1 puts x1 at infinity, so no start is made.
            lambda: tune_to_scattering_length(TestUniversalStart.TEMPLATE, 1.0, 1),
            # Rw < a < 8 Rw: below the dimer's gate.
            lambda: binding_energy(well_with_x0(1.5 * math.pi + 0.2)),
        ],
        ids=["start-outside-bracket", "target-equals-range", "dimer-below-gate"],
    )
    def test_physics_fallbacks(self, monkeypatch, call):
        calls = _bracketed_calls(monkeypatch)
        got = call()
        assert len(calls) == 1
        _without_start(monkeypatch)
        assert repr(call()) == repr(got)

    def test_dimer_gate_case_lies_between_range_and_gate(self):
        a = scattering_length(well_with_x0(1.5 * math.pi + 0.2)).a
        assert 1.0 < a < 8.0

    @pytest.mark.parametrize(
        "f,lo,hi,start",
        [
            (lambda x: (x - 0.3, 0.0), 0.0, 1.0, 0.9),
            (lambda x: (x - 0.3, math.inf), 0.0, 1.0, 0.9),
            (lambda x: (x - 0.3, math.nan), 0.0, 1.0, 0.9),
            # A triple root: Newton converges only linearly, by 2/3 a step.
            (lambda x: ((x - 0.3) ** 3, 3.0 * (x - 0.3) ** 2), 0.0, 1.0, 0.9),
            # Newton on atan overshoots from 2.2 past the root.
            (lambda x: (math.atan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)), -1.0, 3.0, 2.5),
            # The converged step lands on the bracket end.
            (lambda x: (x - 1.0, 1.0), 0.0, 1.0, 1.0 - 2.0**-53),
        ],
        ids=["zero-slope", "infinite-slope", "nan-slope", "no-convergence", "leaves-bracket",
             "converges-onto-end"],
    )
    def test_solver_fallbacks(self, monkeypatch, f, lo, hi, start):
        calls = _bracketed_calls(monkeypatch)
        got = twobody._solve(f, lo, hi, start)
        assert len(calls) == 1
        assert got.hex() == twobody._solve(f, lo, hi).hex()

    def test_converged_start_skips_the_bracket(self, monkeypatch):
        calls = _bracketed_calls(monkeypatch)
        root = twobody._solve(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, 1.5)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(root)
        assert calls == []

    def test_no_less_accurate_where_the_dimer_starts(self, monkeypatch):
        # Wells just above each of the first four divergences, with a from
        # ~8 Rw to 1e4 Rw, all past the a >= 8 Rw gate.  The relative error
        # of epsilon, in units of 2**-53, against the exact root for the
        # same float x0 (one 30-digit Newton step from the bracketed root).
        # It grows with the condition number |a|*x0^2/Rw; its median and
        # 90th percentile must not grow with the start.
        mpmath = pytest.importorskip("mpmath")
        r = random.Random(32)
        wells = []
        while len(wells) < 5000:
            p = (r.randrange(4) + 0.5) * math.pi
            well = well_with_x0(p + 1.0 / (p * 10.0 ** r.uniform(0.9, 4.0)))
            if scattering_length(well).a >= 8.0:
                wells.append(well)
        calls = _bracketed_calls(monkeypatch)
        started = [binding_energy(well) for well in wells]
        assert len(calls) < len(wells) // 10
        _without_start(monkeypatch)
        bracketed = [binding_energy(well) for well in wells]
        with_start, without = [], []
        for well, eps_s, eps_b in zip(wells, started, bracketed):
            mu, rw = well.reduced_mass_mu, well.range_Rw
            with mpmath.workdps(30):
                x0 = mpmath.mpf(well.x0)
                y = mpmath.sqrt(-2 * mu * mpmath.mpf(eps_b)) * rw
                xp = mpmath.sqrt(x0 * x0 - y * y)
                cos, sin = mpmath.cos(xp), mpmath.sin(xp)
                y -= (xp * cos + y * sin) / ((1 + y) * (sin - y / xp * cos))
                want = -y * y / (2 * mu * rw * rw)
                with_start.append(float(abs((eps_s - want) / want)) * 2.0**53)
                without.append(float(abs((eps_b - want) / want)) * 2.0**53)
        with_start.sort()
        without.sort()
        for q in (len(wells) // 2, len(wells) * 9 // 10):
            assert with_start[q] <= without[q]


class TestWeakBindingUniversality:
    @pytest.mark.parametrize("ratio", [25.0, 50.0, 200.0])
    def test_binding_tracks_inverse_square_length(self, ratio):
        _check_weak_binding(ratio, 0)

    @settings(max_examples=150, deadline=None)
    @given(ratio=st.floats(math.log10(25.0), 8.0).map(lambda e: 10.0**e), branch=st.integers(0, 3))
    def test_binding_tracks_inverse_square_length_on_every_branch(self, ratio, branch):
        # Large targets that no float64 depth reproduces raise
        # ConvergenceError (see test_round_trip_over_targets_and_branches).
        try:
            _check_weak_binding(ratio, branch)
        except ConvergenceError:
            assume(False)

    def test_holds_far_from_the_range(self):
        # Deep in the universal regime |eps| * 2 mu a^2 approaches 1 to
        # O(Rw/a), so the solve must keep eps accurate at |a| ~ 1e6.
        template = SquareWell(depth_V0=1.0, range_Rw=1.0, reduced_mass_mu=0.5)
        tuned = tune_to_scattering_length(template, 9.5e5, branch=2)
        a = scattering_length(tuned).a
        product = abs(binding_energy(tuned)) * 2.0 * tuned.reduced_mass_mu * a * a
        assert abs(product - 1.0) < 3.0 / 9.5e5


def test_default_unitarity_tolerance_value():
    assert DEFAULT_UNITARITY_TOL == 1e-12
