"""Output checks.  Each returns a list of problems; empty means correct.

They run after the timed phase and compare efano's outputs with
reference.py, never with stored outputs of an earlier efano.
"""

from __future__ import annotations

import json
import math

import numpy as np

import efano
import reference as ref
import workloads as wl

# Tolerances, each with its reason.
# tune_to_scattering_length documents 1e-9 relative, judged in double
# precision; near a pole of tan that evaluation itself is off by the
# condition number of a(x0) times a few ulp, so that much is added.
A_RTOL = 1e-9
A_ULPS = 8 * 2.0**-52
ROOT_ATOL = 1e-11  # Brent stops at 1e-13 in x'; float x0 adds ~1e-15
# Rounding in efano grows with the size of the terms it adds: the
# exponent 2 pi n / alpha of a tower level, and (n + 1/2) pi and
# arg Gamma in a ladder phase, which can nearly cancel.
GEOMETRIC_RTOL = 1e-15  # per unit of (3 + 2 pi n / alpha)
LADDER_PHASE_ATOL = 1e-13  # per unit of (1 + (n + 1/2) pi + |arg Gamma|)
LADDER_RATIO_RTOL = 1e-14  # per unit of (1 + ladder-phase size / alpha)
PROFILE_RTOL = 1e-12  # two float evaluations of one line shape
SSE_RTOL = 1e-9  # fit SSE against the SSE at the generating parameters
REFIT_RTOL = 1e-6  # scipy may not beat efano's SSE by more than this


def _rel(x, y) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


# ---------------------------------------------------------------- physics


def check_two_body(target: float, branch: int, well, sl, eps) -> list[str]:
    """Tuned depth, scattering length, state count and dimer energy."""
    errs = []
    d, rw, mu = well.depth_V0, well.range_Rw, well.reduced_mass_mu
    tag = f"a={target!r} branch={branch}"
    a_exact = ref.scattering_length(d, rw, mu)
    a_tol = A_RTOL + A_ULPS * float(ref.scattering_length_condition(d, rw, mu))
    if _rel(a_exact, target) > a_tol:
        errs.append(f"{tag}: depth {d!r} gives a = {float(a_exact)!r}")
    m = ref.bound_count(d, rw, mu)
    expect_m = branch + (1 if target >= rw else 0)
    if m != expect_m:
        errs.append(f"{tag}: tuned well holds {m} states, branch implies {expect_m}")
    if sl.unitary or sl.a is None or _rel(sl.a, a_exact) > a_tol:
        errs.append(f"{tag}: scattering_length gave {sl.a!r}, exact {float(a_exact)!r}")
    if sl.bound_state_count != m:
        errs.append(f"{tag}: bound_state_count {sl.bound_state_count}, exact {m}")
    root = ref.shallowest_root(d, rw, mu)
    if root is None:
        if eps is not None:
            errs.append(f"{tag}: binding energy {eps!r} for a well with no state")
    elif eps is None or not eps < 0.0:
        errs.append(f"{tag}: binding energy {eps!r}, expected negative")
    elif abs(ref.root_from_energy(eps, d, rw, mu) - root) > ROOT_ATOL:
        errs.append(f"{tag}: binding energy {eps!r} misses the largest "
                    f"matching root {float(root)!r}")
    return errs


def check_well(wr: wl.WellResult, branch: int, ground_factor: float) -> list[str]:
    """The two-body checks, then the three-body count, tower and partition."""
    sl = wr.scattering
    errs = check_two_body(wr.target, branch, wr.well, sl, wr.binding)
    if errs:
        return errs
    errs = check_count(sl.a, wl.R0, wr.count)
    threshold = wr.binding
    mu = wr.well.reduced_mass_mu
    scale = threshold if threshold is not None else -1.0 / (2.0 * mu * sl.a * sl.a)
    errs += check_efimov_ladder(wr.ladder, wl.ALPHA_EFF, scale * ground_factor, wr.count)
    if threshold is not None:
        errs += check_partition(wr.ladder, wr.partition, threshold)
    elif wr.partition is not None:
        errs.append(f"a={wr.target!r}: partition without a dimer")
    return errs


def check_count(a: float, r0: float, count) -> list[str]:
    if ref.efimov_boundary_distance(a, r0) < 1e-6:
        return [f"input a={a!r} lies within 1e-6 of a count boundary"]
    exact = ref.efimov_count(a, r0)
    if count != exact:
        return [f"count_states({a!r}, {r0!r}) = {count!r}, exact {exact}"]
    return []


def check_efimov_ladder(ladder, alpha: float, ground: float, count: int) -> list[str]:
    errs = []
    if ladder.alpha_eff != alpha or ladder.ground_energy != ground:
        errs.append(f"ladder echoes ({ladder.alpha_eff!r}, {ladder.ground_energy!r}), "
                    f"called with ({alpha!r}, {ground!r})")
    if [n for n, _ in ladder.entries] != list(range(count)):
        errs.append(f"ladder indices {[n for n, _ in ladder.entries]}, expected 0..{count - 1}")
    prev = -math.inf
    for n, energy in ladder.entries:
        tol = GEOMETRIC_RTOL * (3.0 + 2.0 * math.pi * n / alpha)
        if _rel(energy, ref.geometric_energy(ground, alpha, n)) > tol:
            errs.append(f"tower level {n}: {energy!r} is not ground*exp(-2 pi n/alpha)")
        if not (prev < energy < 0.0 and abs(energy) >= ref.FLOAT_MIN):
            errs.append(f"tower level {n}: {energy!r} not negative, normal and rising")
        prev = energy
    return errs


def check_partition(ladder, partition, threshold: float) -> list[str]:
    if partition is None:
        return ["no partition although a dimer exists"]
    errs = []
    if sorted(partition.bound + partition.embedded) != sorted(ladder.entries):
        errs.append("bound and embedded do not make up the ladder")
    if any(e > threshold for _, e in partition.bound):
        errs.append(f"a bound entry lies above the threshold {threshold!r}")
    if any(e <= threshold for _, e in partition.embedded):
        errs.append(f"an embedded entry lies at or below the threshold {threshold!r}")
    return errs


def check_ladder(ladder, alpha: float, n_max: int, scale: float = 2.0) -> list[str]:
    """Quantization residuals, geometric ratio and subnormal truncation."""
    errs = []
    arg_g = ref.arg_gamma(alpha)
    entries = ladder.entries
    if ladder.alpha != alpha or ladder.scale != scale:
        errs.append(f"ladder echoes alpha={ladder.alpha!r} scale={ladder.scale!r}")
    if [e.n for e in entries] != list(range(len(entries))):
        errs.append("ladder indices are not 0, 1, 2, ...")
        return errs
    for e in entries:
        size = 1.0 + (e.n + 0.5) * math.pi + abs(float(arg_g))
        resid = ref.ladder_residual(alpha, e.kappa, e.n, arg_g, scale)
        if abs(resid) > LADDER_PHASE_ATOL * size:
            errs.append(f"level {e.n}: quantization residual {float(resid):.3e}")
        if e.epsilon != -0.5 * e.kappa * e.kappa or not abs(e.epsilon) >= ref.FLOAT_MIN:
            errs.append(f"level {e.n}: epsilon {e.epsilon!r} is not -kappa^2/2 and normal")
    ratio = ref.ladder_ratio(alpha)
    for prev, cur in zip(entries, entries[1:]):
        size = 1.0 + (cur.n + 0.5) * math.pi + abs(float(arg_g))
        if _rel(cur.epsilon / prev.epsilon, ratio) > LADDER_RATIO_RTOL * (1.0 + size / alpha):
            errs.append(f"level {cur.n}: ratio {cur.epsilon / prev.epsilon!r}, "
                        f"exact {float(ratio)!r}")
    # Truncation: present levels are normal (above); the first omitted
    # level, if any, must be subnormal, and none may be omitted early.
    cut = ladder.truncated_at
    if cut is None:
        if len(entries) != n_max + 1:
            errs.append(f"{len(entries)} levels without truncation, expected {n_max + 1}")
    else:
        below = abs(ref.ladder_energy(alpha, cut, arg_g, scale)) < ref.FLOAT_MIN
        if cut != len(entries) or cut > n_max or not below:
            errs.append(f"truncated_at={cut} with {len(entries)} levels; exact "
                        f"|epsilon_{cut}| below the normal range: {below}")
    return errs


def check_scan(row: wl.ScanRow, out) -> list[str]:
    wells, ladder = out
    errs = []
    if len(wells) != len(row.targets):
        return [f"{len(wells)} wells for {len(row.targets)} targets"]
    for wr, target, g in zip(wells, row.targets, row.ground_factors):
        if wr.target != row.sign * target:
            errs.append(f"well for target {wr.target!r}, asked {row.sign * target!r}")
        errs += check_well(wr, row.branch, g)
    errs += check_ladder(ladder, row.alpha, row.n_max)
    return errs


# ---------------------------------------------------------------- curves and fits


def check_noise(seed: int, deviates) -> list[str]:
    expect = ref.gaussian_stream(seed, len(deviates))
    bad = [i for i, (x, y) in enumerate(zip(deviates, expect)) if x != y]
    if bad:
        i = bad[0]
        return [f"noise seed {seed}: {len(bad)} deviates differ, first at {i}: "
                f"{deviates[i]!r} != {expect[i]!r}"]
    return []


def check_curve(spec: wl.CurveSpec, curve, stream: bool) -> list[str]:
    """Grid, line shape and noise of a synthesized curve.

    The samples must equal, bit for bit, efano's exact profile times
    (1 + noise * g) with g from the reference stream, clamped at zero;
    the exact profile must match this benchmark's own formula.  With
    stream set, efano's deviates are also compared one by one.
    """
    errs = []
    grid = spec.grid()
    if curve.energies.shape != grid.shape or not np.array_equal(curve.energies, grid):
        return [f"curve grid differs from linspace({spec.e_min!r}, {spec.e_max!r}, "
                f"{spec.points})"]
    exact = efano.profiles.evaluate(grid, spec.params)
    mine = ref.profile(grid, spec.params)
    worst = float(np.max(np.abs(exact - mine) / np.maximum(np.abs(mine), 1e-300)))
    if worst > PROFILE_RTOL:
        errs.append(f"profile differs from the reference formula by {worst:.2e} relative")
    g = np.array(ref.gaussian_stream(spec.seed, spec.points))
    expect = np.maximum(exact * (1.0 + spec.noise * g), 0.0)
    if not np.array_equal(curve.sigmas, expect):
        n_bad = int(np.count_nonzero(curve.sigmas != expect))
        errs.append(f"{n_bad} samples differ from profile * (1 + noise * g)")
    if stream:
        errs += check_noise(spec.seed, efano.numkit.seeded_gaussian_noise(
            spec.seed, spec.points, 1.0))
    return errs


def check_fits(spec: wl.CurveSpec, curve, reports, refit: bool) -> list[str]:
    """Least-squares properties of compare_models on one curve."""
    errs = []
    fano, bw = reports
    if (fano.model, bw.model) != ("fano", "breit_wigner"):
        return [f"models {(fano.model, bw.model)}"]
    E, y = curve.energies, curve.sigmas
    sse_true = ref.sse(E, y, spec.params)
    is_fano = hasattr(spec.params, "q")
    match = fano if is_fano else bw
    if not match.sse <= sse_true * (1.0 + SSE_RTOL):
        errs.append(f"{match.model} SSE {match.sse!r} exceeds the SSE "
                    f"{sse_true!r} at the generating parameters")
    for r in reports:
        with np.errstate(all="ignore"):
            at_params = ref.sse(E, y, r.params)
        if not abs(at_params - r.sse) <= SSE_RTOL * r.sse + 1e-300:
            errs.append(f"{r.model}: reported SSE {r.sse!r}, SSE at the reported "
                        f"parameters {at_params!r}")
    if is_fano and not fano.sse <= bw.sse:
        errs.append(f"Fano SSE {fano.sse!r} above Breit-Wigner SSE {bw.sse!r} "
                    f"on a Fano curve")
    if refit:
        # A Fano fit to a lone peak stops short of the optimum under its
        # own |q| cap (see the FOUND line on lone-peak Fano fits in
        # CHANGES.md), so on Breit-Wigner curves only that model is refit.
        for r in reports if is_fano else (bw,):
            best = ref.refit_sse(E, y, r.model, r.initial_guess, efano.fitter.Q_CAP)
            if best < r.sse * (1.0 - REFIT_RTOL):
                errs.append(f"{r.model}: scipy reaches SSE {best!r} from the same "
                            f"guess, efano {r.sse!r}")
    return errs


# ---------------------------------------------------------------- cli


def _floats(values) -> list[str]:
    bad = [v for v in values if isinstance(v, float) and not math.isfinite(v)]
    return [f"non-finite value {bad[0]!r} in output"] if bad else []


def _csv(text: str) -> tuple[dict, list[list[str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing '# ' header line")
    header = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    return header, [ln.split(",") for ln in lines[1:]]


def _render(pairs: dict) -> dict:
    """Header tokens as the CLI writes them: floats in repr, bools lower-case."""
    return {k: repr(v) if isinstance(v, float) else str(v).lower() if isinstance(v, bool)
            else str(v) for k, v in pairs.items()}


def _argv_map(argv) -> dict:
    return dict(tok.split("=", 1) for tok in argv[1:])


def check_cli(call: wl.CliCall, out) -> list[str]:
    """Exit status, stderr, parse and bit-identity with the in-process call;
    then the physics or fit checks on the values."""
    code, stdout, stderr = out
    if code != 0 or stderr:
        return [f"{' '.join(call.argv)}: exit {code}, stderr {stderr[-300:]!r}"]
    try:
        return _check_cli_values(call, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{' '.join(call.argv)}: output does not parse: {exc!r}"]


def _check_cli_values(call: wl.CliCall, stdout: str) -> list[str]:
    args = _argv_map(call.argv)
    sub = call.subcommand
    if sub == "dipole-ladder":
        alpha, n_max = float(args["--alpha"]), int(args["--n-max"])
        ladder = efano.build_ladder(alpha, n_max)
        header, rows = _csv(stdout)
        values = [float(header["alpha"])] + [float(x) for r in rows for x in r[1:3]]
        got = [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
        want = [(e.n, e.kappa, e.epsilon) for e in ladder.entries]
        ratios = [r[3] for r in rows]
        want_ratios = [""] + [repr(c.epsilon / p.epsilon)
                              for p, c in zip(ladder.entries, ladder.entries[1:])]
        want_header = {"alpha": ladder.alpha, "scale": ladder.scale, "n_max": n_max}
        if ladder.truncated_at is not None:
            want_header["truncated_at"] = ladder.truncated_at
        want_header["columns"] = "n,kappa,epsilon,ratio_to_previous"
        same = got == want and ratios == want_ratios and header == _render(want_header)
        errs = _floats(values) + ([] if same else ["output differs from build_ladder"])
        return errs + check_ladder(ladder, alpha, n_max)
    if sub == "scattering-length":
        report = json.loads(stdout)
        template = efano.SquareWell(1.0, float(args["--range"]), float(args["--mass"]))
        target, branch = float(args["--tune-to"]), int(args["--branch"])
        well = efano.tune_to_scattering_length(template, target, branch)
        sl = efano.scattering_length(well)
        eps = efano.binding_energy(well)
        want = {"a": sl.a, "bound_state_count": sl.bound_state_count}
        if eps is not None:
            want["binding_energy"] = eps
        want["depth_V0"] = well.depth_V0
        errs = _floats(report.values())
        if report != want:
            errs.append(f"output {report} differs from the library {want}")
        return errs + check_two_body(target, branch, well, sl, eps)
    if sub == "efimov-count":
        a, r0 = float(args["--a"]), float(args["--r0"])
        value = json.loads(stdout)
        want = efano.count_states(a, r0)
        errs = [] if value == want else [f"count {value!r}, library {want!r}"]
        return errs + check_count(a, r0, value)
    if sub == "efimov-ladder":
        alpha, ground = float(args["--alpha-eff"]), float(args["--ground-energy"])
        count, threshold = int(args["--count"]), float(args["--threshold"])
        ladder = efano.build_efimov_ladder(alpha, ground, count)
        part = efano.classify_states_vs_threshold(ladder, threshold)
        header, rows = _csv(stdout)
        got = [(int(r[0]), float(r[1]), r[2]) for r in rows]
        label = {n: "bound" for n, _ in part.bound} | {n: "embedded" for n, _ in part.embedded}
        want = [(n, e, label[n]) for n, e in ladder.entries]
        want_header = {"alpha_eff": alpha, "ground_energy": ground, "count": count,
                       "threshold": threshold, "columns": "n,energy,classification"}
        errs = _floats([g[1] for g in got])
        if got != want or header != _render(want_header):
            errs.append("output differs from build_efimov_ladder/classify")
        return (errs + check_efimov_ladder(ladder, alpha, ground, count)
                + check_partition(ladder, part, threshold))
    if sub == "profile-gen":
        if stdout:
            return [f"profile-gen --out wrote {len(stdout)} chars to stdout"]
        with open(call.out_path, encoding="utf-8") as fh:
            header, rows = _csv(fh.read())
        curve = wl.synthesize(call.spec)
        got = np.array([[float(x) for x in r] for r in rows])
        errs = _floats(got.ravel().tolist())
        if header != _render(curve.meta) or got.shape != (len(curve), 2) or not (
                np.array_equal(got[:, 0], curve.energies)
                and np.array_equal(got[:, 1], curve.sigmas)):
            errs.append("curve file differs from synthesize")
        return errs + check_curve(call.spec, curve, stream=True)
    if sub == "profile-fit":
        reports = json.loads(stdout)
        curve = wl.synthesize(call.spec)
        lib = efano.compare_models(curve)
        want = [efano.report_to_json_dict(r) for r in lib]
        errs = _floats([v for r in reports for v in r.values()])
        if reports != want:
            errs.append("fit report differs from compare_models")
        return errs + check_fits(call.spec, curve, lib, refit=True)
    return [f"unknown subcommand {sub}"]

