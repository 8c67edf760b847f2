"""Tests of the benchmark itself: a quick run of every workload with all
checks, and each check fed a corrupted output.

    python3 -m pytest benchmark/tests -q      (from the repository root)
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "benchmark")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import efano  # noqa: E402
import efano.cli  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------- quick mode


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_directory_without_efano(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("physics_scan", 0, cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_failed_ops_are_counted_in_whole_rounds(monkeypatch):
    calls = {"drift": 0}

    def op(item):
        if item == "raises":
            raise ValueError("boom")
        if item == "drifts":
            calls["drift"] += 1
            return calls["drift"]
        return 1

    monkeypatch.setattr(worker, "check", lambda workload, i, item, out: [])
    phase = worker.timed_phase(["ok", "raises", "drifts"], op, lambda out: out, 0.02,
                               worker.resource.RUSAGE_SELF, keep=False,
                               reference=worker.REFERENCES["physics_scan"])
    assert phase["rounds"] >= 2
    failed, wrong, raised = worker.judge("fit_small", ["ok", "raises", "drifts"], phase)
    assert phase["ops"] == 3 * phase["rounds"]
    assert failed == phase["rounds"] + (phase["rounds"] - 1)
    assert len(raised) == 1 and len(wrong) == phase["rounds"] - 1


# ---------------------------------------------------------------- physics


@pytest.fixture(scope="module")
def scan():
    row = next(r for r in wl.scan_rows(5) if r.branch == 2 and r.sign == 1)
    return row, wl.scan_op(row)


def test_scan_output_passes(scan):
    row, out = scan
    assert checks.check_scan(row, out) == []


def _with_well(out, k, **changes):
    wells, ladder = out
    wells = list(wells)
    wells[k] = dataclasses.replace(wells[k], **changes)
    return tuple(wells), ladder


def test_depth_off_by_1e6_is_rejected(scan):
    row, out = scan
    well = out[0][3].well
    bad = dataclasses.replace(well, depth_V0=well.depth_V0 * (1 + 1e-6))
    assert checks.check_scan(row, _with_well(out, 3, well=bad))


def test_binding_energy_off_the_root_is_rejected(scan):
    row, out = scan
    eps = out[0][0].binding
    assert checks.check_scan(row, _with_well(out, 0, binding=eps * (1 + 1e-6)))


def test_wrong_three_body_count_and_partition_are_rejected(scan):
    row, out = scan
    wr = out[0][2]
    assert checks.check_scan(row, _with_well(out, 2, count=wr.count + 1))
    part = wr.partition
    swapped = dataclasses.replace(part, bound=part.embedded, embedded=part.bound)
    assert checks.check_scan(row, _with_well(out, 2, partition=swapped))


def test_ladder_faults_are_rejected():
    ladder = efano.build_ladder(0.31, 40)
    assert ladder.truncated_at is not None
    assert checks.check_ladder(ladder, 0.31, 40) == []
    late = dataclasses.replace(ladder, truncated_at=ladder.truncated_at + 1)
    assert checks.check_ladder(late, 0.31, 40)
    early = dataclasses.replace(ladder, entries=ladder.entries[:-1],
                                truncated_at=ladder.truncated_at - 1)
    assert checks.check_ladder(early, 0.31, 40)
    e = ladder.entries[5]
    nudged = dataclasses.replace(e, kappa=e.kappa * (1 + 1e-10),
                                 epsilon=-0.5 * (e.kappa * (1 + 1e-10)) ** 2)
    entries = ladder.entries[:5] + (nudged,) + ladder.entries[6:]
    assert checks.check_ladder(dataclasses.replace(ladder, entries=entries), 0.31, 40)


# ---------------------------------------------------------------- noise and fits


def test_one_deviate_one_ulp_off_is_rejected():
    deviates = efano.seeded_gaussian_noise(12345, 3001, 1.0)
    assert checks.check_noise(12345, deviates) == []
    deviates[1777] = math.nextafter(deviates[1777], math.inf)
    assert checks.check_noise(12345, deviates)


@pytest.fixture(scope="module")
def fitted():
    specs = wl.fit_small_specs(3)
    spec = next(s for s in specs if isinstance(s.params, efano.FanoParameters))
    curve = wl.synthesize(spec)
    return spec, curve, efano.compare_models(curve)


def test_fit_output_passes(fitted):
    spec, curve, reports = fitted
    assert checks.check_curve(spec, curve, stream=True) == []
    assert checks.check_fits(spec, curve, reports, refit=True) == []


@pytest.mark.parametrize("field", ["E_r", "Gamma", "q", "sigma0"])
def test_perturbed_fit_parameters_are_rejected(fitted, field):
    spec, curve, (fano, bw) = fitted
    p = fano.params
    value = getattr(p, field)
    moved = value + 1e-3 * p.Gamma if field == "E_r" else value * (1 + 1e-3)
    bad = dataclasses.replace(fano, params=dataclasses.replace(p, **{field: moved}))
    assert checks.check_fits(spec, curve, (bad, bw), refit=False)


def test_fit_stopped_early_is_rejected(fitted):
    spec, curve, (fano, bw) = fitted
    early = efano.fit(curve, "fano", fano.initial_guess)
    guess_only = dataclasses.replace(
        early, params=fano.initial_guess,
        sse=checks.ref.sse(curve.energies, curve.sigmas, fano.initial_guess))
    assert checks.check_fits(spec, curve, (guess_only, bw), refit=True)


def test_curve_sample_off_is_rejected(fitted):
    spec, curve, _ = fitted
    sigmas = curve.sigmas.copy()
    sigmas[7] = math.nextafter(sigmas[7], math.inf)
    bad = efano.CrossSectionCurve(curve.energies, sigmas)
    assert checks.check_curve(spec, bad, stream=False)


# ---------------------------------------------------------------- cli


def _in_process(call) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert efano.cli.main(list(call.argv)) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    calls = wl.cli_round(4, str(tmp_path_factory.mktemp("cli")))
    return [(call, _in_process(call)) for call in calls]


def test_cli_outputs_pass(cli_outputs):
    for call, stdout in cli_outputs:
        assert checks.check_cli(call, (0, stdout, "")) == [], call.argv


def _flip_digit(text: str, which: int = 0) -> str:
    """Change the last digit of one float that has 12 or more digits:
    the first such float for which=0, the last for which=-1."""
    m = list(re.finditer(r"\d\.\d{11,}", text))[which]
    i = m.end() - 1
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("sub", ["dipole-ladder", "scattering-length",
                                 "efimov-ladder", "profile-fit"])
def test_cli_wrong_digit_is_rejected(cli_outputs, sub, which):
    call, stdout = next((c, s) for c, s in cli_outputs if c.subcommand == sub)
    assert checks.check_cli(call, (0, _flip_digit(stdout, which), ""))


def test_cli_curve_file_with_a_wrong_digit_is_rejected(cli_outputs):
    call = next(c for c, _ in cli_outputs if c.subcommand == "profile-gen")
    assert checks.check_cli(call, (0, "", "")) == []
    with open(call.out_path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines(keepends=True)
    lines[9] = _flip_digit(lines[9])
    with open(call.out_path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    try:
        assert checks.check_cli(call, (0, "", ""))
    finally:
        with open(call.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def test_cli_exit_code_and_stderr_are_checked(cli_outputs):
    call, stdout = next((c, s) for c, s in cli_outputs if c.subcommand == "efimov-count")
    assert checks.check_cli(call, (0, str(json.loads(stdout) + 1) + "\n", ""))
    assert checks.check_cli(call, (1, stdout, ""))
    assert checks.check_cli(call, (0, stdout, "RuntimeWarning: overflow\n"))
