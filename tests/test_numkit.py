import cmath
import math
import subprocess
import sys

import numpy as np
import pytest

from efano import numkit
from efano.errors import ConvergenceError, DomainError, GammaPoleError, NoBracketError
from efano.numkit import find_root, log_gamma, seeded_gaussian_noise

from oracles import gaussian_noise_reference, log_gamma_reference

# Frozen from the product-formula reference before the implementation
# existed; see tests/oracles.py for its provenance.
ARG_GAMMA_ONE_MINUS_I = 0.30164032046753286


class TestLogGamma:
    @pytest.mark.parametrize("x", [1.0, 2.0, 0.5, 3.5, 7.25, 12.0, 41.5])
    def test_matches_lgamma_on_positive_reals(self, x):
        got = log_gamma(x)
        assert got.imag == 0.0
        assert got.real == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-14)

    def test_near_exact_integers(self):
        # The rational approximation lands within a few ulp of the true
        # zeros at z = 1 and z = 2, not exactly on them.
        assert abs(log_gamma(1.0)) < 5e-15
        assert abs(log_gamma(2.0)) < 5e-15
        assert log_gamma(1.0).imag == 0.0
        assert log_gamma(2.0).imag == 0.0

    @pytest.mark.parametrize(
        "z",
        [
            1.0 - 1.0j,
            1.0 + 1.0j,
            0.5 + 3.0j,
            2.0 - 5.0j,
            1.0 - 0.3j,
            1.0 - 5.0j,
            4.5 + 17.0j,
            0.0 + 2.0j,
            10.0 + 50.0j,
        ],
    )
    def test_matches_independent_reference(self, z):
        want = log_gamma_reference(z)
        got = log_gamma(z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_frozen_phase_at_one_minus_i(self):
        assert log_gamma(1.0 - 1.0j).imag == pytest.approx(
            ARG_GAMMA_ONE_MINUS_I, abs=1e-13
        )

    def test_left_half_plane_via_recurrence_chain(self):
        # Walk log Gamma(z) for Re(z) < 0.5 up to the reference's domain
        # with the recurrence, so the shifted branch is pinned too.
        rng = np.random.default_rng(11)
        for _ in range(25):
            z = complex(rng.uniform(-6.0, 0.4), rng.choice([-1, 1]) * rng.uniform(0.2, 8.0))
            shift = 0.0 + 0.0j
            w = z
            while w.real < 0.5:
                shift += cmath.log(w)
                w += 1.0
            want = log_gamma_reference(w) - shift
            got = log_gamma(z)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_recurrence_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-40.0, 40.0))
            if abs(z.imag) < 0.1:
                z = complex(z.real, z.imag + 0.5)
            resid = log_gamma(z + 1.0) - log_gamma(z) - cmath.log(z)
            assert abs(resid) <= 1e-10

    def test_reflection_identity_on_unit_line(self):
        for y in np.linspace(-50.0, 50.0, 101):
            if y == 0.0:
                continue
            z = complex(1.0, y)
            lhs = log_gamma(z) + log_gamma(1.0 - z)
            rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
            assert abs(lhs - rhs) <= 1e-10

    def test_branch_continuity_along_unit_line(self):
        # The principal continuation must not jump by 2*pi between
        # neighboring evaluation points anywhere on |Im z| <= 50.
        ys = np.linspace(-50.0, 50.0, 2001)
        vals = [log_gamma(complex(1.0, y)).imag for y in ys]
        steps = np.abs(np.diff(vals))
        assert float(steps.max()) < 0.5

    def test_conjugate_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = complex(rng.uniform(-5.0, 10.0), rng.uniform(0.1, 50.0))
            a = log_gamma(z)
            b = log_gamma(z.conjugate())
            assert a.real == b.real and a.imag == -b.imag

    @pytest.mark.parametrize("x", [-3.5, 0.5, 1.0, 40.0])
    def test_matches_mpmath_at_large_imaginary_parts(self, x):
        # The huge-alpha ladder path evaluates log Gamma(1 - i*alpha)
        # far up the imaginary axis; pin it against 40-digit mpmath.
        mpmath = pytest.importorskip("mpmath")
        ys = [s * m * 10.0**e for e in range(-8, 16) for m in (1.0, 3.7) for s in (1.0, -1.0)]
        for y in (y for y in ys if abs(y) <= 1e15):
            with mpmath.workdps(40):
                want = complex(mpmath.loggamma(mpmath.mpc(x, y)))
            got = log_gamma(complex(x, y))
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (x, y)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_pole_inputs_raise(self, z):
        with pytest.raises(GammaPoleError):
            log_gamma(z)

    @pytest.mark.parametrize("z", [math.inf, math.nan, complex(1.0, math.inf)])
    def test_non_finite_inputs_raise(self, z):
        with pytest.raises(DomainError):
            log_gamma(z)

    def test_far_left_half_plane_raises(self):
        # The shift takes one step per unit of |Re(z)|: at -1e6 it took
        # ~0.5 s, and from -2**53 on a step no longer moves z.
        with pytest.raises(DomainError, match=r"Re\(z\) >= -\(2\*\*16 \+ 1\)"):
            log_gamma(complex(-1e6, 0.5))

    def test_huge_negative_real_part_raises_promptly(self):
        # Before the bound this call never returned; run it apart so a
        # hang fails the test instead of stalling the suite.
        code = "from efano.numkit import log_gamma; log_gamma(complex(-1e17, 0.5))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stderr.rstrip().splitlines()[-1].startswith(
            "efano.errors.DomainError: log_gamma requires Re(z) >= "
        )

    def test_matches_mpmath_near_the_bound(self):
        mpmath = pytest.importorskip("mpmath")
        z = complex(-65536.25, 0.5)
        with mpmath.workdps(40):
            want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert abs(log_gamma(z) - want) <= 1e-14 * abs(want)


class TestFindRoot:
    def test_cubic(self):
        root = find_root(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-14)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-13)

    def test_cosine(self):
        root = find_root(math.cos, 1.0, 2.0, 1e-14)
        assert root == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_exact_zero_at_endpoint(self):
        assert find_root(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert find_root(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0

    def test_steep_and_flat_mix(self):
        f = lambda x: math.tanh(50.0 * (x - 0.7)) + 0.1 * (x - 0.7)
        root = find_root(f, -3.0, 5.0, 1e-13)
        assert abs(f(root)) < 1e-10

    def test_no_sign_change_raises(self):
        with pytest.raises(NoBracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_point_bracket(self):
        assert find_root(lambda x: x - 2.0, 2.0, 2.0, 1e-12) == 2.0
        with pytest.raises(NoBracketError):
            find_root(lambda x: x, 2.0, 2.0, 1e-12)

    @pytest.mark.parametrize("nan_at", [1.0, 3.0])
    def test_nan_endpoint_raises(self, nan_at):
        f = lambda x: math.nan if x == nan_at else x - 2.0
        with pytest.raises(NoBracketError):
            find_root(f, 1.0, 3.0, 1e-12)

    def test_invalid_bracket_raises(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 2.0, 1.0, 1e-12)
        with pytest.raises(DomainError):
            find_root(lambda x: x, -1.0, 1.0, 0.0)

    def test_iteration_cap_reported(self):
        # A sign step defeats the interpolation steps, so the solver
        # must bisect; a wide bracket and tiny tol then need far more
        # than ten halvings.
        step = lambda x: 1.0 if x >= math.pi / 10.0 else -1.0
        with pytest.raises(ConvergenceError) as info:
            find_root(step, 0.0, 4.0, 1e-15, max_iter=10)
        assert "10" in str(info.value)

    def test_deterministic(self):
        f = lambda x: math.sin(3.0 * x) - 0.2 * x
        a = find_root(f, 0.5, 1.5, 1e-13)
        b = find_root(f, 0.5, 1.5, 1e-13)
        assert a == b


NOISE_SEEDS = [0, -1, (1 << 63) - 1, (1 << 64) - 1, (1 << 64) + 5]
NOISE_SIGMAS = [0.0, 1.0, 2.5, 1e-300]


def _hex(xs):
    return [x.hex() for x in xs]


class TestSeededNoise:
    # The scalar oracle yields the stream one deviate at a time, so its
    # first n deviates are the whole answer for every shorter n.
    @pytest.mark.parametrize("seed", NOISE_SEEDS)
    @pytest.mark.parametrize("sigma", NOISE_SIGMAS)
    def test_matches_scalar_reference_bit_for_bit(self, seed, sigma):
        want = _hex(gaussian_noise_reference(seed, 20000, sigma))
        for n in range(301):
            assert _hex(seeded_gaussian_noise(seed, n, sigma)) == want[:n], n
        for n in (1999, 2000, 2001, 20000):
            assert _hex(seeded_gaussian_noise(seed, n, sigma)) == want[:n], n

    @pytest.mark.parametrize("seed, n", [(2890, 200), (1093, 301)])
    def test_short_first_block_is_topped_up(self, seed, n, monkeypatch):
        # These (seed, n) reject more pairs than the first block holds
        # spare, so the stream continues in a second block.
        blocks = []
        draw = numkit._unit_open

        def counting(*args):
            blocks.append(args)
            return draw(*args)

        monkeypatch.setattr(numkit, "_unit_open", counting)
        got = seeded_gaussian_noise(seed, n, 1.0)
        assert len(blocks) > 1
        assert _hex(got) == _hex(gaussian_noise_reference(seed, n, 1.0))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
    def test_returns_float64_array_of_length_n(self, n):
        got = seeded_gaussian_noise(4, n, 1.0)
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64
        assert got.shape == (n,)

    def test_same_seed_same_stream(self):
        assert np.array_equal(
            seeded_gaussian_noise(42, 64, 1.0), seeded_gaussian_noise(42, 64, 1.0)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            seeded_gaussian_noise(1, 32, 1.0), seeded_gaussian_noise(2, 32, 1.0)
        )

    def test_sigma_scales_stream_exactly(self):
        unit = seeded_gaussian_noise(9, 50, 1.0)
        scaled = seeded_gaussian_noise(9, 50, 2.5)
        assert np.array_equal(scaled, 2.5 * unit)

    def test_seed_wraps_at_64_bits(self):
        assert np.array_equal(
            seeded_gaussian_noise(5, 16, 1.0), seeded_gaussian_noise(5 + (1 << 64), 16, 1.0)
        )

    def test_largest_sigma_stays_finite(self):
        # u and v are odd multiples of 2**-53, so the largest unit
        # deviates come from the smallest pairs; none reaches 16, and
        # sigma up to the float maximum / 16 keeps every deviate finite.
        # sigma = 1e308 overflowed with a numpy warning.
        tiny = 2.0**-53
        worst = max(
            k * tiny * math.sqrt(-2.0 * math.log(s) / s)
            for k in range(1, 1 << 16, 2)
            for s in [(k * tiny) ** 2 + tiny**2]
        )
        assert 11.0 < worst < 12.1
        sigma = numkit._SIGMA_MAX
        assert sigma == sys.float_info.max / 16.0
        for seed in range(20):
            assert np.isfinite(seeded_gaussian_noise(seed, 1000, sigma)).all()

    def test_moments_are_sane(self):
        xs = seeded_gaussian_noise(2024, 20000, 1.0)
        assert abs(xs.mean()) < 0.05
        assert abs(xs.std() - 1.0) < 0.05

    def test_empty_and_errors(self):
        assert seeded_gaussian_noise(0, 0, 1.0).shape == (0,)
        with pytest.raises(DomainError):
            seeded_gaussian_noise(0, -1, 1.0)
        with pytest.raises(DomainError):
            seeded_gaussian_noise(0, 4, -0.5)
        with pytest.raises(DomainError):
            seeded_gaussian_noise(17, 2, 1e308)
        with pytest.raises(DomainError):
            seeded_gaussian_noise(1.5, 4, 1.0)
