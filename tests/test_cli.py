"""End-to-end tests for the command-line interface.

Every test drives main() in process and checks exit codes, stdout
text, and round trips through the CSV curve format.
"""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from efano import cli
from efano.cli import MAX_LEVELS, MAX_POINTS, main

KAPPA0_ALPHA_ONE = 0.3074971479608985


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_header(line: str) -> dict:
    assert line.startswith("# ")
    out = {}
    for token in line[2:].split(" "):
        key, _, value = token.partition("=")
        out[key] = value
    return out


def parse_curve_csv(text: str):
    lines = text.splitlines()
    header = parse_header(lines[0])
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return header, rows


class TestDipoleLadder:
    def test_csv_table(self, capsys):
        code, out, err = run(
            capsys, "dipole-ladder", "--alpha", "1.0", "--n-max", "3"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        header = parse_header(lines[0])
        assert header["alpha"] == "1.0"
        assert header["scale"] == "2.0"
        assert header["columns"] == "n,kappa,epsilon,ratio_to_previous"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(KAPPA0_ALPHA_ONE, rel=1e-13)
        assert first[3] == ""
        want_ratio = math.exp(-2.0 * math.pi)
        for line in lines[2:]:
            n, kappa, epsilon, ratio = line.split(",")
            assert float(epsilon) == -0.5 * float(kappa) ** 2
            assert float(ratio) == pytest.approx(want_ratio, rel=1e-12)

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "dipole-ladder", "--alpha", "0.5", "--n-max", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.5
        assert payload["truncated_at"] is None
        assert [e["n"] for e in payload["entries"]] == [0, 1, 2]
        assert payload["entries"][0]["ratio_to_previous"] is None
        assert payload["entries"][1]["ratio_to_previous"] == pytest.approx(
            math.exp(-4.0 * math.pi), rel=1e-12
        )

    def test_strength_matches_alpha(self, capsys):
        _, by_alpha, _ = run(capsys, "dipole-ladder", "--alpha", "1.0", "--n-max", "2")
        _, by_strength, _ = run(
            capsys, "dipole-ladder", "--strength-a", "1.25", "--n-max", "2"
        )
        assert by_strength == by_alpha

    def test_truncation_reported(self, capsys):
        code, out, _ = run(capsys, "dipole-ladder", "--alpha", "0.3", "--n-max", "60")
        assert code == 0
        header = parse_header(out.splitlines()[0])
        assert header["truncated_at"] == "34"
        assert len(out.splitlines()) == 1 + 34

    def test_subcritical_strength_exits_2(self, capsys):
        code, out, err = run(
            capsys, "dipole-ladder", "--strength-a", "0.2", "--n-max", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "coupling", ["--alpha=1e300", "--strength-a=1e300"], ids=["alpha", "strength"]
    )
    def test_degenerate_ladder_exits_2(self, capsys, coupling):
        # Energies overflow to -inf (alpha) or stop shrinking (strength).
        code, out, err = run(capsys, "dipole-ladder", coupling, "--n-max=2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_level_cap(self, capsys, monkeypatch):
        # n-max = MAX_LEVELS - 1 is the last value accepted (a steep
        # ladder, cut short long before); one more exits 2 before any
        # ladder is built.
        code, _, _ = run(capsys, "dipole-ladder", "--alpha=1.0", f"--n-max={MAX_LEVELS - 1}")
        assert code == 0
        monkeypatch.setattr(cli, "build_ladder", None)
        code, out, err = run(capsys, "dipole-ladder", "--alpha=1.0", f"--n-max={MAX_LEVELS}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(MAX_LEVELS) in err

    def test_alpha_and_strength_conflict(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["dipole-ladder", "--alpha", "1.0", "--strength-a", "1.25",
                  "--n-max", "3"])
        assert info.value.code == 2

    def test_unit_label_whitespace_collapsed(self, capsys):
        _, out, _ = run(
            capsys, "dipole-ladder", "--alpha", "1.0", "--n-max", "1",
            "--unit-label", "inverse  bohr",
        )
        assert parse_header(out.splitlines()[0])["unit_label"] == "inverse_bohr"


class TestScatteringLength:
    PI_SQ = repr(math.pi**2)

    def test_json_report_at_first_zero(self, capsys):
        code, out, _ = run(
            capsys, "scattering-length", "--depth", self.PI_SQ,
            "--range", "1.0", "--mass", "0.5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["a"] == pytest.approx(1.0, abs=1e-12)
        assert report["bound_state_count"] == 1
        assert report["binding_energy"] < 0.0
        assert report["depth_V0"] == math.pi**2
        assert list(report) == ["a", "bound_state_count", "binding_energy", "depth_V0"]

    def test_unitary_rendering(self, capsys):
        depth = repr((math.pi / 2.0) ** 2)
        code, out, _ = run(
            capsys, "scattering-length", "--depth", depth,
            "--range", "1.0", "--mass", "0.5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["a"] == "unitary"

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "scattering-length", "--depth", "2.0",
            "--range", "1.0", "--mass", "0.5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        header = parse_header(lines[0])
        assert header["range_Rw"] == "1.0"
        assert header["reduced_mass_mu"] == "0.5"
        keys = [line.split(",")[0] for line in lines[1:]]
        assert keys[:2] == ["a", "bound_state_count"]
        assert "depth_V0" in keys

    def test_tune_round_trip_through_depth(self, capsys):
        code, out, _ = run(
            capsys, "scattering-length", "--tune-to", "5.0",
            "--range", "1.0", "--mass", "0.5", "--format", "json",
        )
        assert code == 0
        tuned = json.loads(out)
        assert tuned["a"] == pytest.approx(5.0, rel=1e-9)
        assert tuned["bound_state_count"] == 1
        code, out, _ = run(
            capsys, "scattering-length", "--depth", repr(tuned["depth_V0"]),
            "--range", "1.0", "--mass", "0.5", "--format", "json",
        )
        assert code == 0
        again = json.loads(out)
        assert again["a"] == pytest.approx(5.0, rel=1e-9)

    def test_tune_branch_one(self, capsys):
        code, out, _ = run(
            capsys, "scattering-length", "--tune-to", "0.5", "--branch", "1",
            "--range", "1.0", "--mass", "0.5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["a"] == pytest.approx(0.5, rel=1e-9)
        assert report["bound_state_count"] == 1

    def test_depth_required_without_tune(self, capsys):
        code, _, err = run(
            capsys, "scattering-length", "--range", "1.0", "--mass", "0.5"
        )
        assert code == 2
        assert "--depth" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--depth=1e300", "--range=1", "--mass=0.5"),
            ("--depth=1e-300", "--range=1", "--mass=1e-300"),
            ("--tune-to=5", "--range=1e-200", "--mass=1"),
            ("--tune-to=-5", "--range=1e-300", "--mass=1e300"),
            ("--range=1.0", "--mass=0.5", "--tune-to=-1.5e308"),
        ],
        ids=[
            "x0-past-2**52", "x0-underflows", "range-underflows", "tuned-x0-overflows",
            "target-overflows-h",
        ],
    )
    def test_unrepresentable_well_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "scattering-length", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("--tune-to=-5e-160", "--range=1e-160", "--mass=1e-3"), "2e-323"),
            (("--tune-to=-5e160", "--range=1e160", "--mass=1e3"), "inf"),
        ],
        ids=["depth-overflows", "depth-underflows"],
    )
    def test_depth_outside_float_range_exits_2(self, capsys, argv, value):
        code, out, err = run(capsys, "scattering-length", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: 2*mu*Rw^2 = {value} for mu = ")

    def test_unreachable_target_exits_2(self, capsys):
        code, _, err = run(
            capsys, "scattering-length", "--tune-to", "0.5",
            "--range", "1.0", "--mass", "0.5",
        )
        assert code == 2
        assert err.startswith("error:")


class TestEfimovCount:
    def test_json_bare_count(self, capsys):
        a = repr(math.exp(2.0 * math.pi))
        code, out, _ = run(capsys, "efimov-count", "--a", a, "--format", "json")
        assert code == 0
        assert out == "2\n"

    def test_json_unbounded(self, capsys):
        code, out, _ = run(capsys, "efimov-count", "--a-infinite", "--format", "json")
        assert code == 0
        assert out == '"unbounded"\n'

    def test_csv_forms(self, capsys):
        _, out, _ = run(
            capsys, "efimov-count", "--a", "0.5", "--r0", "1.0", "--format", "csv"
        )
        assert out == "count,0\n"
        _, out, _ = run(capsys, "efimov-count", "--a-infinite", "--format", "csv")
        assert out == "count,unbounded\n"

    def test_json_is_the_default_format(self, capsys):
        _, out, _ = run(capsys, "efimov-count", "--a", "0.5", "--r0", "1.0")
        assert out == "0\n"

    def test_infinite_via_float_literal(self, capsys):
        code, out, _ = run(capsys, "efimov-count", "--a", "inf", "--format", "json")
        assert code == 0
        assert out == '"unbounded"\n'

    @pytest.mark.parametrize(
        "a,r0,want",
        [("1e-320", "1e308", "0\n"), ("1e308", "1e-308", "451\n")],
        ids=["ratio-underflows", "ratio-overflows"],
    )
    def test_ratio_at_float_range_ends(self, capsys, a, r0, want):
        code, out, err = run(capsys, "efimov-count", f"--a={a}", f"--r0={r0}")
        assert (code, out, err) == (0, want, "")

    def test_bad_r0_exits_2(self, capsys):
        code, _, err = run(capsys, "efimov-count", "--a", "5.0", "--r0", "-1.0")
        assert code == 2
        assert err.startswith("error:")


class TestEfimovLadder:
    def test_explicit_count_json(self, capsys):
        code, out, _ = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--count", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_eff"] == 1.0
        energies = [e["energy"] for e in payload["entries"]]
        assert energies[0] == -1.0
        assert energies[1] == pytest.approx(-math.exp(-2.0 * math.pi), rel=1e-12)
        assert "classification" not in payload["entries"][0]

    def test_window_derived_count(self, capsys):
        a = repr(math.exp(3.0 * math.pi) * 1.01)
        code, out, _ = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--a", a, "--r0", "1.0",
            "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["entries"]) == 3

    def test_threshold_classification_csv(self, capsys):
        threshold = repr(-math.exp(-2.0 * math.pi) * 1.0001)
        code, out, _ = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--count", "3",
            "--threshold", threshold,
        )
        assert code == 0
        lines = out.splitlines()
        header = parse_header(lines[0])
        assert header["columns"] == "n,energy,classification"
        tags = [line.split(",")[2] for line in lines[1:]]
        assert tags == ["bound", "embedded", "embedded"]

    def test_threshold_classification_json(self, capsys):
        code, out, _ = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--count", "2",
            "--threshold", "-0.5", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["entries"][0]["classification"] == "bound"
        assert payload["entries"][1]["classification"] == "embedded"

    def test_truncation_reported(self, capsys):
        argv = ("efimov-ladder", "--alpha-eff", "1.0", "--ground-energy", "-1.0")
        code, out, _ = run(capsys, *argv, "--count", "200")
        assert code == 0
        lines = out.splitlines()
        assert parse_header(lines[0])["truncated_at"] == "113"
        assert len(lines) == 1 + 113
        _, out, _ = run(capsys, *argv, "--count", "200", "--format", "json")
        payload = json.loads(out)
        assert payload["truncated_at"] == 113
        assert len(payload["entries"]) == 113
        _, out, _ = run(capsys, *argv, "--count", "3", "--format", "json")
        assert json.loads(out)["truncated_at"] is None
        _, out, _ = run(capsys, *argv, "--count", "3")
        assert "truncated_at" not in parse_header(out.splitlines()[0])

    def test_negative_exponent_value_needs_equals_form(self, capsys):
        # argparse reads a lone "-2.5e-06" token as an option, not a
        # number; the documented spelling is --name=value.
        argv = ("efimov-ladder", "--alpha-eff", "1.0", "--ground-energy", "-1.0")
        code, out, _ = run(capsys, *argv, "--count", "3", "--threshold=-2.5e-06")
        assert code == 0
        assert parse_header(out.splitlines()[0])["threshold"] == "-2.5e-06"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--count", "3", "--threshold", "-2.5e-06"])
        assert exit_info.value.code == 2
        assert "--threshold: expected one argument" in capsys.readouterr().err

    def test_level_cap(self, capsys, monkeypatch):
        argv = ("efimov-ladder", "--alpha-eff=1.0", "--ground-energy=-1.0")
        code, _, _ = run(capsys, *argv, f"--count={MAX_LEVELS}")
        assert code == 0
        monkeypatch.setattr(cli, "build_efimov_ladder", None)
        code, out, err = run(capsys, *argv, f"--count={MAX_LEVELS + 1}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(MAX_LEVELS) in err

    def test_count_and_window_conflict(self, capsys):
        code, _, err = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--count", "2", "--a", "10.0", "--r0", "1.0",
        )
        assert code == 2
        assert "either" in err

    def test_window_requires_both_lengths(self, capsys):
        code, _, err = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--a", "10.0",
        )
        assert code == 2

    def test_no_window_exits_2(self, capsys):
        code, _, err = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--a", "1.05", "--r0", "1.0",
        )
        assert code == 2
        assert "no Efimov window" in err

    def test_infinite_a_needs_explicit_count(self, capsys):
        code, _, err = run(
            capsys, "efimov-ladder", "--alpha-eff", "1.0",
            "--ground-energy", "-1.0", "--a", "inf", "--r0", "1.0",
        )
        assert code == 2
        assert "unbounded" in err


GEN_ARGS = (
    "profile-gen", "--model", "fano", "--er", "1.63", "--gamma", "0.25",
    "--q", "4.0", "--sigma0", "1.0", "--emin", "0.5", "--emax", "3.5",
    "--points", "200",
)


class TestProfileGen:
    def test_noiseless_curve(self, capsys):
        code, out, _ = run(capsys, *GEN_ARGS)
        assert code == 0
        header, rows = parse_curve_csv(out)
        assert header["model"] == "fano"
        assert header["E_r"] == "1.63"
        assert header["q"] == "4.0"
        assert header["clamped"] == "0"
        assert len(rows) == 200
        assert rows[0][0] == 0.5
        assert rows[-1][0] == 3.5
        # The interference zero sits at E_r - q*Gamma/2 = 1.13; the
        # smallest sample must land within one grid spacing of it.
        spacing = 3.0 / 199.0
        e_min = min(rows, key=lambda r: r[1])[0]
        assert abs(e_min - 1.13) <= spacing

    def test_noisy_curve_is_deterministic(self, capsys):
        argv = GEN_ARGS + ("--noise", "0.01", "--seed", "7")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        header, _ = parse_curve_csv(first)
        assert header["noise"] == "0.01"
        assert header["seed"] == "7"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, *GEN_ARGS, "--out", str(path))
        assert code == 0 and out == ""
        _, direct, _ = run(capsys, *GEN_ARGS)
        assert path.read_text(encoding="utf-8") == direct

    def test_bw_model(self, capsys):
        code, out, _ = run(
            capsys, "profile-gen", "--model", "bw", "--er", "2.0",
            "--gamma", "0.5", "--sigma0", "3.0", "--emin", "0.5",
            "--emax", "3.5", "--points", "64",
        )
        assert code == 0
        header, rows = parse_curve_csv(out)
        assert header["model"] == "breit_wigner"
        assert "q" not in header
        peak = max(rows, key=lambda r: r[1])
        assert abs(peak[0] - 2.0) <= 3.0 / 63.0

    @pytest.mark.parametrize(
        "extra",
        [
            ("--points", "7"),
            ("--points", "1"),
            ("--points", "-5"),
            ("--emin", "4.0"),
        ],
        ids=["seven-points", "one-point", "negative-points", "inverted-window"],
    )
    def test_bad_grid_exits_2(self, capsys, extra):
        argv = list(GEN_ARGS)
        for i in range(0, len(extra), 2):
            idx = argv.index(extra[i])
            argv[idx + 1] = extra[i + 1]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("--er=0", "--gamma=1", "--sigma0=1", "--emin=-1e308", "--emax=1e308",
              "--points=8"), 2),
            (("--er=0", "--gamma=1", "--sigma0=1", "--emin=-inf", "--emax=1e308",
              "--points=8"), 2),
            (("--er=0", "--gamma=1", "--sigma0=1", "--emin=0",
              "--emax=1.7976931348623157e+308", "--points=8"), 0),
            (("--er=-1.3327984383514787e-147", "--gamma=1.6551293780612875e-124",
              "--sigma0=4.264141038516352e+181", "--emin=-8.799125845618029e+305",
              "--emax=6.946560330043752e-270", "--points=16",
              "--noise=9.70579956874667e-301"), 0),
            (("--er=0", "--gamma=1e308", "--sigma0=1e308", "--emin=-1", "--emax=1",
              "--points=8", "--noise=1e308"), 2),
        ],
        ids=["span-overflows", "emin-infinite", "last-point-overflows",
             "reduced-energy-overflows", "noise-overflows"],
    )
    def test_overflow_exits_cleanly(self, capsys, argv, want):
        # linspace, the profile and the noise product each overflowed
        # with a numpy RuntimeWarning on stderr.  At emax = float max
        # the span is finite, but linspace's (n - 1) * step is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "profile-gen", "--model=bw", *argv)
        assert code == want
        if want == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
        else:
            assert err == "" and out.startswith("# model=breit_wigner")

    def test_far_wing_exits_0(self, capsys):
        # 1e200 half-widths out both squares of the Fano form overflow,
        # and the quotient read inf/inf = nan; the profile there is
        # sigma0, as the sample at --emin shows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "profile-gen", "--model=fano", "--er=0", "--gamma=1", "--q=1",
                "--sigma0=1", "--emin=-1e200", "--emax=1", "--points=8",
            )
        assert code == 0 and err == ""
        _, rows = parse_curve_csv(out)
        assert rows[0] == (-1e200, 1.0)
        assert all(math.isfinite(sigma) for _, sigma in rows)

    def test_points_cap_exits_2_before_allocating(self, capsys):
        argv = list(GEN_ARGS)
        argv[argv.index("--points") + 1] = str(MAX_POINTS + 1)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(MAX_POINTS) in err
        # The grid alone would take 80 MB.
        assert peak < 1 << 20

    def test_q_model_mismatch(self, capsys):
        code, _, err = run(
            capsys, "profile-gen", "--model", "bw", "--er", "2.0",
            "--gamma", "0.5", "--q", "4.0", "--sigma0", "3.0",
            "--emin", "0.5", "--emax", "3.5", "--points", "64",
        )
        assert code == 2
        code, _, err = run(
            capsys, "profile-gen", "--model", "fano", "--er", "2.0",
            "--gamma", "0.5", "--sigma0", "3.0",
            "--emin", "0.5", "--emax", "3.5", "--points", "64",
        )
        assert code == 2


class TestProfileFit:
    def gen_file(self, capsys, tmp_path, *extra):
        path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, *GEN_ARGS, *extra, "--out", str(path))
        assert code == 0
        return path

    @pytest.mark.parametrize("model", ["both", "fano", "bw"])
    @pytest.mark.parametrize(
        "spec",
        [
            ("--er=0", "--gamma=1", "--q=2", "--sigma0=1e160", "--emin=-3", "--emax=3",
             "--points=50", "--noise=0.01", "--seed=3"),
            ("--er=-3.508916091684989e+17", "--gamma=2.5012974506053863e+221",
             "--sigma0=2.777552771514336e+168", "--emin=-70.7156878712475",
             "--emax=-68.94449477025283", "--points=283", "--noise=0.01",
             "--seed=46671387", "--q=0.035303239161279094"),
            ("--er=-0.0024593769163060854", "--gamma=0.0035180233755935184",
             "--sigma0=0.023533697704240953", "--emin=6.127148724079623e-168",
             "--emax=1.0004230231643449e-166", "--points=208", "--noise=0.1",
             "--seed=157033156", "--q=-1.0953413368811567e-07"),
        ],
        ids=["sigma0-1e160", "huge-values", "tiny-grid"],
    )
    def test_overflowing_fit_exits_2(self, capsys, tmp_path, spec, model):
        # Each fit's sums of squares or derivative sums overflowed: it
        # exited 0 with numpy warnings on stderr, and at 1e160 printed
        # "sse": Infinity.  On the tiny grid the values are ordinary but
        # the derivatives in 1/Gamma overflow.
        path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "profile-gen", "--model=fano", *spec, f"--out={path}")
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "profile-fit", f"--in={path}", f"--model={model}")
        assert code == 2 and out == ""
        assert err.startswith("error: fit overflowed") and err.count("\n") == 1

    def test_fano_round_trip(self, capsys, tmp_path):
        path = self.gen_file(capsys, tmp_path)
        code, out, _ = run(
            capsys, "profile-fit", "--in", str(path), "--model", "fano"
        )
        assert code == 0
        report = json.loads(out)
        assert report["model"] == "fano"
        assert report["converged"] is True
        assert report["E_r"] == pytest.approx(1.63, rel=1e-6)
        assert report["Gamma"] == pytest.approx(0.25, rel=1e-6)
        assert report["q"] == pytest.approx(4.0, rel=1e-6)
        assert report["sigma0"] == pytest.approx(1.0, rel=1e-6)

    def test_both_returns_ordered_array(self, capsys, tmp_path):
        path = self.gen_file(capsys, tmp_path, "--noise", "0.01", "--seed", "7")
        code, out, _ = run(capsys, "profile-fit", "--in", str(path))
        assert code == 0
        fano_rep, bw_rep = json.loads(out)
        assert fano_rep["model"] == "fano"
        assert bw_rep["model"] == "breit_wigner"
        assert "q" not in bw_rep
        assert bw_rep["sse"] > fano_rep["sse"]

    def test_bw_model_fit(self, capsys, tmp_path):
        path = tmp_path / "bw.csv"
        run(
            capsys, "profile-gen", "--model", "bw", "--er", "2.0",
            "--gamma", "0.5", "--sigma0", "3.0", "--emin", "0.5",
            "--emax", "3.5", "--points", "128", "--out", str(path),
        )
        code, out, _ = run(capsys, "profile-fit", "--in", str(path), "--model", "bw")
        assert code == 0
        report = json.loads(out)
        assert report["model"] == "breit_wigner"
        assert report["E_r"] == pytest.approx(2.0, rel=1e-8)
        assert report["Gamma"] == pytest.approx(0.5, rel=1e-8)

    def test_guess_accepted(self, capsys, tmp_path):
        path = self.gen_file(capsys, tmp_path)
        guess = json.dumps({"E_r": 1.6, "Gamma": 0.3, "q": 3.0, "sigma0": 1.2})
        code, out, _ = run(
            capsys, "profile-fit", "--in", str(path), "--model", "fano",
            "--guess", guess,
        )
        assert code == 0
        assert json.loads(out)["E_r"] == pytest.approx(1.63, rel=1e-6)

    @pytest.mark.parametrize(
        "guess",
        [
            "not json",
            "[1, 2, 3]",
            '{"E_r": 1.6, "Gamma": 0.3}',
            '{"E_r": 1.6, "Gamma": 0.3, "q": 3.0, "sigma0": 1.2, "extra": 0}',
            '{"E_r": "x", "Gamma": 1, "q": 1, "sigma0": 1}',
            '{"E_r": null, "Gamma": 1, "q": 1, "sigma0": 1}',
            '{"E_r": true, "Gamma": 1, "q": 1, "sigma0": 1}',
            '{"E_r": "1.6", "Gamma": 1, "q": 1, "sigma0": 1}',
        ],
        ids=[
            "invalid", "non-object", "missing-keys", "extra-key",
            "non-numeric-string", "null", "bool", "numeric-string",
        ],
    )
    def test_bad_guess_exits_2(self, capsys, tmp_path, guess):
        path = self.gen_file(capsys, tmp_path)
        code, _, err = run(
            capsys, "profile-fit", "--in", str(path), "--model", "fano",
            "--guess", guess,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_guess_requires_single_model(self, capsys, tmp_path):
        path = self.gen_file(capsys, tmp_path)
        guess = json.dumps({"E_r": 1.6, "Gamma": 0.3, "q": 3.0, "sigma0": 1.2})
        code, _, err = run(
            capsys, "profile-fit", "--in", str(path), "--guess", guess
        )
        assert code == 2
        assert "single --model" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "profile-fit", "--in", str(tmp_path / "absent.csv")
        )
        assert code == 1
        assert err.startswith("error:")

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("# caf\u00e9\n1.0,2.0\n".encode("latin-1"))
        code, out, err = run(capsys, "profile-fit", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_monotone_curve_exits_2(self, capsys, tmp_path):
        path = tmp_path / "mono.csv"
        rows = "\n".join(f"{i / 10.0},{i / 5.0}" for i in range(16))
        path.write_text("# model=none\n" + rows + "\n", encoding="utf-8")
        code, _, err = run(capsys, "profile-fit", "--in", str(path))
        assert code == 2

    def test_malformed_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        code, _, err = run(capsys, "profile-fit", "--in", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_numeric_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "words.csv"
        path.write_text("1.0,abc\n", encoding="utf-8")
        code, out, err = run(capsys, "profile-fit", "--in", str(path))
        assert (code, out) == (2, "")
        assert "non-numeric curve row at line 1" in err

    def test_comments_only_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n\n", encoding="utf-8")
        code, _, err = run(capsys, "profile-fit", "--in", str(path))
        assert code == 2
        assert "no data rows" in err


class TestGoldenCurve:
    """Byte-stability of generated output against a committed fixture.

    The fixture was produced by the exact command below; any change to
    float formatting, the noise stream, or the header grammar shows up
    as a byte difference.
    """

    ARGS = (
        "profile-gen", "--model", "fano", "--er", "1.63", "--gamma", "0.25",
        "--q", "4.0", "--sigma0", "1.0", "--emin", "0.5", "--emax", "3.5",
        "--points", "200", "--noise", "0.01", "--seed", "7",
    )

    def golden_path(self):
        import pathlib

        return pathlib.Path(__file__).parent / "golden" / "fano_noisy_seed7.csv"

    def test_regenerates_byte_identical(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert out == self.golden_path().read_text(encoding="utf-8")

    def test_golden_file_fits_back_to_truth(self, capsys):
        code, out, _ = run(
            capsys, "profile-fit", "--in", str(self.golden_path()),
            "--model", "fano",
        )
        assert code == 0
        report = json.loads(out)
        assert report["E_r"] == pytest.approx(1.63, rel=0.02)
        assert report["Gamma"] == pytest.approx(0.25, rel=0.02)
        assert report["q"] == pytest.approx(4.0, rel=0.02)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "efano 0.1.0" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "efano", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "efano" in proc.stdout
