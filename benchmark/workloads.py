"""Seeded inputs and operations of the four benchmark workloads.

Every workload is a fixed pool of operations built from the seed.  A
run repeats whole rounds of its pool, so each run attempts the same
operations in the same proportions whatever its length.  Continuous
parameters are drawn by Latin-hypercube stratification: each pool
covers every stratum of every range once, which keeps the mix of cheap
and costly operations, and so the median op time, nearly independent
of the seed.

Layers are called through their module attributes at call time
(``twobody.binding_energy(...)``), so the traced run can wrap them
there.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from efano import dipole_ladder, efimov, fitter, profiles, twobody

# Square well of range 1 and reduced mass 1/2, so 2*mu*Rw^2 = 1.
RANGE_RW = 1.0
MASS_MU = 0.5
TEMPLATE = twobody.SquareWell(1.0, RANGE_RW, MASS_MU)
R0 = 1.0
# Three identical bosons: s0 = 1.00624.
ALPHA_EFF = 1.00624
TARGETS_PER_ROW = 8
LADDER_N_MAX = 40

FIT_SMALL_POOL = 512
FIT_LARGE_POOL = 8
FIT_LARGE_SAMPLES = 100_000
CLI_SUBCOMMANDS = (
    "dipole-ladder",
    "scattering-length",
    "efimov-count",
    "efimov-ladder",
    "profile-gen",
    "profile-fit",
)


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in (0, 1), one in each of n equal strata, shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_lerp(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _away_from_count_boundary(a_abs: float) -> float:
    """Nudge |a| so ln(|a|/r0)/pi lies at least 2e-3 from an integer."""
    x = math.log(a_abs / R0) / math.pi
    if abs(x - round(x)) < 2e-3:
        a_abs *= math.exp(5e-3 * math.pi)
    return a_abs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------- physics


@dataclass(frozen=True)
class ScanRow:
    branch: int
    sign: int
    targets: tuple[float, ...]
    ground_factors: tuple[float, ...]
    alpha: float
    n_max: int


@dataclass(frozen=True)
class WellResult:
    target: float
    well: twobody.SquareWell
    scattering: twobody.ScatteringLengthResult
    binding: float | None
    count: int
    ladder: efimov.EfimovLadder
    partition: efimov.ThresholdPartition | None


def scan_rows(seed: int, rows: int = 128) -> list[ScanRow]:
    """Rows cycling through branches 0..3 and both signs of a."""
    rng = _rng("physics_scan", seed)
    lo_u, hi_u, alpha_u = _strata(rng, rows), _strata(rng, rows), _strata(rng, rows)
    combos = [(b, s) for b in range(4) for s in (1, -1)]
    out = []
    for i in range(rows):
        branch, sign = combos[i % len(combos)]
        lo = 25.0 * (1.0 + 0.2 * lo_u[i])
        hi = 1e4 / (1.0 + 0.2 * hi_u[i])
        step = (math.log(hi) - math.log(lo)) / (TARGETS_PER_ROW - 1)
        targets = tuple(
            _away_from_count_boundary(math.exp(math.log(lo) + k * step))
            for k in range(TARGETS_PER_ROW)
        )
        grounds = tuple(_log_lerp(0.5, 2000.0, rng.random()) for _ in targets)
        out.append(
            ScanRow(branch, sign, targets, grounds, _log_lerp(0.3, 20.0, alpha_u[i]),
                    LADDER_N_MAX)
        )
    rng.shuffle(out)
    return out


def well_chain(target_a: float, branch: int, ground_factor: float) -> WellResult:
    """Tune, then run the scattering, dimer and three-body chain on one well."""
    well = twobody.tune_to_scattering_length(TEMPLATE, target_a, branch)
    sl = twobody.scattering_length(well)
    eps = twobody.binding_energy(well)
    count = efimov.count_states(sl.a, R0)
    scale = eps if eps is not None else -1.0 / (2.0 * MASS_MU * sl.a * sl.a)
    ladder = efimov.build_efimov_ladder(ALPHA_EFF, scale * ground_factor, count)
    partition = (
        efimov.classify_states_vs_threshold(ladder, eps) if eps is not None else None
    )
    return WellResult(target_a, well, sl, eps, count, ladder, partition)


def scan_op(row: ScanRow):
    wells = tuple(
        well_chain(row.sign * t, row.branch, g)
        for t, g in zip(row.targets, row.ground_factors)
    )
    return wells, dipole_ladder.build_ladder(row.alpha, row.n_max)


def scan_fingerprint(out) -> tuple:
    wells, ladder = out
    return (tuple(w.well.depth_V0 for w in wells), ladder.entries[-1].epsilon,
            len(ladder.entries))


# ---------------------------------------------------------------- fits


@dataclass(frozen=True)
class CurveSpec:
    params: profiles.FanoParameters | profiles.BreitWignerParameters
    e_min: float
    e_max: float
    points: int
    noise: float
    seed: int

    def grid(self) -> np.ndarray:
        return np.linspace(self.e_min, self.e_max, self.points)


def _curve_specs(rng: random.Random, count: int, points, q_range, fano_share: int,
                 noise_range=(0.003, 0.03)) -> list[CurveSpec]:
    """Fano curves with the zero and the peak inside the grid, and
    Breit-Wigner curves; every fano_share-th spec is Breit-Wigner.

    |q| stays at 5 or below: from about 6.5 the Fano fit can run to the
    opposite-sign Lorentzian limit (a FOUND line in CHANGES.md)."""
    u = {k: _strata(rng, count) for k in ("n", "noise", "q", "g", "s0", "m1", "m2")}
    specs = []
    for i in range(count):
        e_r = rng.uniform(-5.0, 5.0)
        gamma = _log_lerp(0.05, 5.0, u["g"][i])
        sigma0 = _log_lerp(1e-3, 1e3, u["s0"][i])
        if i % fano_share == fano_share - 1:
            params = profiles.BreitWignerParameters(e_r, gamma, sigma0)
            lo, hi = -2.0 - 6.0 * u["m1"][i], 2.0 + 6.0 * u["m2"][i]
        else:
            q = _log_lerp(*q_range, u["q"][i]) * rng.choice((-1.0, 1.0))
            params = profiles.FanoParameters(e_r, gamma, q, sigma0)
            lo = min(-q, 1.0 / q) - 2.0 - 4.0 * u["m1"][i]
            hi = max(-q, 1.0 / q) + 2.0 + 4.0 * u["m2"][i]
        n = points if isinstance(points, int) else round(_log_lerp(*points, u["n"][i]))
        specs.append(
            CurveSpec(params, e_r + lo * gamma / 2, e_r + hi * gamma / 2, n,
                      _log_lerp(*noise_range, u["noise"][i]), rng.getrandbits(63))
        )
    rng.shuffle(specs)
    return specs


def fit_small_specs(seed: int) -> list[CurveSpec]:
    return _curve_specs(_rng("fit_small", seed), FIT_SMALL_POOL, (100, 2000),
                        (0.15, 5.0), fano_share=4)


def fit_large_specs(seed: int) -> list[CurveSpec]:
    return _curve_specs(_rng("fit_large", seed), FIT_LARGE_POOL, FIT_LARGE_SAMPLES,
                        (0.5, 5.0), fano_share=FIT_LARGE_POOL + 1,
                        noise_range=(0.005, 0.02))


def synthesize(spec: CurveSpec) -> profiles.CrossSectionCurve:
    return profiles.synthesize(spec.params, spec.grid(), spec.noise, spec.seed)


def fit_small_op(item):
    spec, curve = item
    return fitter.compare_models(curve)


def fit_large_op(spec: CurveSpec):
    curve = synthesize(spec)
    return curve, fitter.compare_models(curve)


def fit_fingerprint(reports) -> tuple:
    return tuple((r.sse, r.iterations) for r in reports)


def fit_large_fingerprint(out) -> tuple:
    curve, reports = out
    return hashlib.blake2b(curve.sigmas.tobytes()).digest(), fit_fingerprint(reports)


# ---------------------------------------------------------------- cli


@dataclass(frozen=True)
class CliCall:
    """One CLI invocation; profile-gen and profile-fit carry the curve's
    file and the spec it was generated from."""

    subcommand: str
    argv: tuple[str, ...]
    out_path: str | None = None
    spec: CurveSpec | None = None


def _opts(*pairs) -> tuple[str, ...]:
    """--name=value tokens: a separate token such as -2.6e-06 would be
    taken for an option by argparse."""
    return tuple(f"--{k}={v!r}" if isinstance(v, float) else f"--{k}={v}"
                 for k, v in pairs)


def cli_round(seed: int, workdir: str) -> list[CliCall]:
    """Each subcommand twice, in seeded order, with seeded valid arguments.

    Every profile-fit reads the curve of the latest profile-gen before
    it; the order is fixed up so one precedes the first profile-fit.
    Fano curves here keep 1 <= |q| <= 5: a Breit-Wigner fit to a
    dip-dominated small-|q| curve can overflow and print a numpy
    warning on stderr, and larger |q| can send the Fano fit astray.
    """
    rng = _rng("cli_session", seed)
    order = list(CLI_SUBCOMMANDS) * 2
    rng.shuffle(order)
    first_gen = order.index("profile-gen")
    first_fit = order.index("profile-fit")
    if first_fit < first_gen:
        order.insert(first_fit, order.pop(first_gen))
    specs = _curve_specs(rng, 2, (200, 2000), (1.0, 5.0), fano_share=2)
    calls: list[CliCall] = []
    last_gen: CliCall | None = None
    for sub in order:
        path = spec = None
        if sub == "dipole-ladder":
            argv = _opts(("alpha", _log_lerp(0.3, 20.0, rng.random())),
                         ("n-max", rng.randint(10, 40)))
        elif sub == "scattering-length":
            a = rng.choice((1.0, -1.0)) * _away_from_count_boundary(
                _log_lerp(25.0, 1e4, rng.random()))
            argv = _opts(("range", RANGE_RW), ("mass", MASS_MU), ("tune-to", a),
                         ("branch", rng.randint(0, 3)))
        elif sub == "efimov-count":
            a = rng.choice((1.0, -1.0)) * _away_from_count_boundary(
                _log_lerp(2.0, 1e12, rng.random()))
            argv = _opts(("a", a), ("r0", R0))
        elif sub == "efimov-ladder":
            ground = -_log_lerp(1e-3, 10.0, rng.random())
            argv = _opts(("alpha-eff", ALPHA_EFF), ("ground-energy", ground),
                         ("count", rng.randint(2, 6)),
                         ("threshold", ground * _log_lerp(1e-4, 1.0, rng.random())))
        elif sub == "profile-gen":
            spec = specs.pop()
            p = spec.params
            path = os.path.join(workdir, f"curve{len(calls)}.csv")
            model = (("model", "fano"), ("q", p.q)) if isinstance(
                p, profiles.FanoParameters) else (("model", "bw"),)
            argv = _opts(*model, ("er", p.E_r), ("gamma", p.Gamma), ("sigma0", p.sigma0),
                         ("emin", spec.e_min), ("emax", spec.e_max),
                         ("points", spec.points), ("noise", spec.noise),
                         ("seed", spec.seed), ("out", path))
        else:
            path, spec = last_gen.out_path, last_gen.spec
            argv = (f"--in={path}",)
        calls.append(CliCall(sub, (sub,) + argv, path, spec))
        if sub == "profile-gen":
            last_gen = calls[-1]
    return calls


def cli_op(call: CliCall):
    """Run one invocation as a subprocess; returns (code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "efano", *call.argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def cli_fingerprint(out) -> tuple:
    return out
