"""The CLI contract, checked on generated arguments.

Every invocation either exits 0 with finite output that parses back and
nothing on stderr, or exits 2 with a single "error:" line and nothing on
stdout.  It never shows a traceback or a numpy warning.  Each file-free
subcommand gets one hypothesis test run in process through main, with
every value passed as a --name=value token so that negative numbers
parse.  profile-fit gets one that fits each generated curve, with and
without a --guess, and a few subprocess cases.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from efano.cli import MAX_LEVELS, main

# Any float, NaN and the infinities included, with ordinary magnitudes
# drawn as often as extreme ones.  A parameter that must be positive
# draws from [0, inf], whose ends are invalid, so that most runs get
# past the argument checks and those checks still run.
FLOATS = st.floats() | st.floats(-10.0, 10.0)
POSITIVE = st.floats(1e-3, 1e3) | st.floats(min_value=0.0)
NEGATIVE = POSITIVE.map(lambda x: -x)
LEVELS = st.integers(-1, MAX_LEVELS + 1)
SEEDS = st.integers(-(2**70), 2**70)
FORMATS = st.sampled_from(["csv", "json"])
LABELS = st.none() | st.text(max_size=8)
# Without the explain phase, which traces every line of each rerun: on
# a failure here it took minutes and hundreds of MB.
SETTINGS = settings(
    max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)


def _check_cell(text: str) -> None:
    """A CSV cell or header value is a finite float, a word or empty."""
    try:
        value = float(text)
    except ValueError:
        assert text == "" or text.isidentifier(), text
        return
    assert math.isfinite(value), text


def _check_label(text: str) -> None:
    """A unit label is one nonempty header token."""
    assert text and not any(c.isspace() for c in text), repr(text)


def _parses_back(out: str) -> None:
    if out.startswith(("{", "[", '"')) or out.strip().lstrip("-").isdigit():
        def reject(name):
            raise AssertionError(f"non-finite JSON constant {name}")

        json.loads(out, parse_constant=reject)
        return
    lines = out.splitlines()
    assert lines and out.endswith("\n")
    if lines[0].startswith("# "):
        for token in lines[0][2:].split(" "):
            key, eq, value = token.partition("=")
            assert key.isidentifier() and eq, token
            if key == "unit_label":
                _check_label(value)
                continue
            for part in value.split(","):
                _check_cell(part)
        lines = lines[1:]
    for line in lines:
        for cell in line.split(","):
            _check_cell(cell)


def check_contract(subcommand: str, options: dict, flags: tuple = ()) -> int:
    """Run one invocation and check it; returns its exit code.  With an
    "out" option the output file is checked in place of stdout."""
    argv = [subcommand, *flags]
    argv += [f"--{name}={value}" for name, value in options.items() if value is not None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", (code, err)
        if options.get("out") is not None:
            assert out == ""
            out = Path(options["out"]).read_text(encoding="utf-8")
        _parses_back(out)
    return code


@SETTINGS
@given(
    alpha=POSITIVE, strength=st.floats(0.25, 1e3) | st.floats(min_value=0.25),
    by_alpha=st.booleans(), n_max=LEVELS, scale=st.none() | POSITIVE, fmt=FORMATS,
    label=LABELS,
)
def test_dipole_ladder(alpha, strength, by_alpha, n_max, scale, fmt, label):
    ladder = {"alpha": alpha} if by_alpha else {"strength-a": strength}
    check_contract("dipole-ladder", {
        **ladder, "n-max": n_max, "scale": scale, "format": fmt, "unit-label": label,
    })


@SETTINGS
@given(
    depth=st.none() | POSITIVE, range_=POSITIVE, mass=POSITIVE,
    tune_to=st.none() | FLOATS, branch=st.integers(-1, 6),
    tol=st.none() | POSITIVE, fmt=FORMATS, label=LABELS,
)
def test_scattering_length(depth, range_, mass, tune_to, branch, tol, fmt, label):
    check_contract("scattering-length", {
        "depth": depth, "range": range_, "mass": mass, "tune-to": tune_to,
        "branch": branch, "unitarity-tol": tol, "format": fmt, "unit-label": label,
    })


@SETTINGS
@given(a=st.none() | FLOATS, r0=st.none() | POSITIVE, fmt=FORMATS, label=LABELS)
def test_efimov_count(a, r0, fmt, label):
    flags = ("--a-infinite",) if a is None else ()
    check_contract("efimov-count", {"a": a, "r0": r0, "format": fmt, "unit-label": label}, flags)


@SETTINGS
@given(
    alpha_eff=POSITIVE, ground=NEGATIVE, count=LEVELS, a=st.floats() | st.floats(-1e9, 1e9),
    r0=POSITIVE, by_count=st.booleans(), threshold=st.none() | NEGATIVE, fmt=FORMATS,
    label=LABELS,
)
def test_efimov_ladder(alpha_eff, ground, count, a, r0, by_count, threshold, fmt, label):
    size = {"count": count} if by_count else {"a": a, "r0": r0}
    check_contract("efimov-ladder", {
        "alpha-eff": alpha_eff, "ground-energy": ground, **size,
        "threshold": threshold, "format": fmt, "unit-label": label,
    })


@SETTINGS
@given(
    model=st.sampled_from(["fano", "bw"]), er=FLOATS, gamma=POSITIVE, q=FLOATS,
    sigma0=POSITIVE, emin=FLOATS, emax=FLOATS, points=st.integers(-1, 64),
    noise=st.none() | POSITIVE, seed=st.none() | SEEDS,
)
def test_profile_gen(model, er, gamma, q, sigma0, emin, emax, points, noise, seed):
    if emin > emax:
        emin, emax = emax, emin
    check_contract("profile-gen", {
        "model": model, "er": er, "gamma": gamma, "q": q if model == "fano" else None,
        "sigma0": sigma0, "emin": emin, "emax": emax, "points": points,
        "noise": noise, "seed": seed,
    })


# Two curves whose fits overflowed: huge values, and ordinary values on
# a grid near 1e-166, where the derivatives in 1/Gamma overflow.
@example(model="fano", guess=None, er=-3.508916091684989e+17, gamma=2.5012974506053863e+221,
         q=0.035303239161279094, sigma0=2.777552771514336e+168,
         emin=-70.7156878712475, emax=-68.94449477025283, points=283,
         noise=0.01, seed=46671387)
@example(model="fano", guess=None, er=-0.0024593769163060854, gamma=0.0035180233755935184,
         q=-1.0953413368811567e-07, sigma0=0.023533697704240953,
         emin=6.127148724079623e-168, emax=1.0004230231643449e-166, points=208,
         noise=0.1, seed=157033156)
@SETTINGS
@given(
    model=st.sampled_from(["fano", "bw"]), er=FLOATS, gamma=POSITIVE, q=FLOATS,
    sigma0=POSITIVE, emin=FLOATS, emax=FLOATS, points=st.integers(8, 300),
    noise=st.none() | st.floats(0.0, 0.3), seed=SEEDS,
    guess=st.none() | st.fixed_dictionaries(
        {"E_r": FLOATS, "Gamma": POSITIVE, "q": FLOATS, "sigma0": POSITIVE}
    ),
)
def test_profile_fit(model, er, gamma, q, sigma0, emin, emax, points, noise, seed, guess):
    # Curves of either model and any shape, fitted by each --model: a
    # Breit-Wigner fit of a Fano curve is as much a user's call as the
    # others.  A single-model fit may start from a --guess of extreme
    # floats, Infinity and NaN included, which json.dumps writes out.
    if emin > emax:
        emin, emax = emax, emin
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "curve.csv")
        code = check_contract("profile-gen", {
            "model": model, "er": er, "gamma": gamma, "q": q if model == "fano" else None,
            "sigma0": sigma0, "emin": emin, "emax": emax, "points": points,
            "noise": noise, "seed": seed, "out": path,
        })
        if code == 0:
            check_contract("profile-fit", {"in": path, "model": "both"})
            for fit_model in ("fano", "bw"):
                start = None
                if guess is not None:
                    start = json.dumps(
                        {k: v for k, v in guess.items() if fit_model == "fano" or k != "q"}
                    )
                check_contract("profile-fit", {"in": path, "model": fit_model, "guess": start})


def test_profile_fit_subprocess_exits(tmp_path):
    # One fit that succeeds, one curve the fitter cannot seed, one file
    # that is not there: exit 0, 2 and 1, each without a traceback.
    energies = [0.25 * k for k in range(16)]
    peak, monotone = tmp_path / "peak.csv", tmp_path / "monotone.csv"
    peak.write_text("".join(f"{e!r},{1.0 / (1.0 + (e - 2.0) ** 2)!r}\n" for e in energies))
    monotone.write_text("".join(f"{e!r},{1.0 + e!r}\n" for e in energies))
    for path, want in ((peak, 0), (monotone, 2), (tmp_path / "missing.csv", 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "efano", "profile-fit", f"--in={path}"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == want, proc.stderr
        if want == 0:
            assert proc.stderr == ""
            _parses_back(proc.stdout)
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
