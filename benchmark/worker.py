"""One benchmark run of one workload, in a fresh process.

    python3 benchmark/worker.py --workload NAME --seed N --seconds S
                                [--trace] [--setup-only] --out-dir DIR

Set-up starts at ``import efano``: it imports the package, builds the
workload's pool of operations from the seed with efano's own functions
and runs one untimed warm-up op.  The timed phase then repeats whole
rounds of the pool until --seconds have passed, timing every op.  The
checks run afterwards, outside the timed phase.  The result is one
JSON object on the last line of stdout.  run.py starts this script with
PYTHONPATH pointing at the checkout's src and BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from statistics import median

WORKLOADS = ("physics_scan", "fit_small", "fit_large", "cli_session")
# Subsets that get the costlier checks: a scipy refit of both models,
# and a recomputation of efano's own deviate stream.
REFIT_EVERY = {"fit_small": 32, "fit_large": 4}
STREAM_EVERY = {"fit_small": 1, "fit_large": 4}
CLI_IN_PROCESS_REPEATS = 3
IMPORT_PROBES = 5
# The host's speed drifts by up to 40% over tens of seconds, and raw
# times drift with it.  Each run therefore repeats a fixed reference
# task between ops and scales its times by the task's nominal time over
# its measured mean.  The task matches the workload's kind of work (the
# choice is measured in README.md): interpreter work alone for
# physics_scan, which runs no numpy; interpreter and numpy work for the
# fits; a bare interpreter start-up for the CLI, whose ops are mostly
# process start-up.  Nominal times are near the typical times on the
# 2-core host of the README's figures.
REF_PROBE_SECONDS = 0.1
_REF_ARRAY: list = []


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_loop(with_numpy: bool) -> None:
    """Fixed work independent of efano: small frozen dataclasses, math
    calls, dict stores and repr in the interpreter and, with_numpy, six
    passes over 10^5 doubles."""
    d = {}
    for i in range(400):
        p = _Point(i * 0.5, math.sqrt(i + 1.0))
        d[i % 17] = (p.x * p.y, repr(p.y)[:4], max(p.x, 1.0))
    if with_numpy:
        import numpy as np

        if not _REF_ARRAY:
            _REF_ARRAY.append(np.linspace(0.0, 1.0, 100_000))
        a = _REF_ARRAY[0]
        for _ in range(6):
            a = a * 1.0001 + 0.5


def bare_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


# workload -> (reference task, its nominal seconds, seconds between runs)
REFERENCES = {
    "physics_scan": (functools.partial(reference_loop, False), 1.25e-3, 0.05),
    "fit_small": (functools.partial(reference_loop, True), 3.0e-3, 0.05),
    "fit_large": (functools.partial(reference_loop, True), 3.0e-3, 0.05),
    "cli_session": (bare_interpreter, 0.08, 0.5),
}


def speed_factor(workload: str) -> float:
    """Mean reference-task time over its nominal time, from runs of about
    REF_PROBE_SECONDS; above 1 on a slow spell."""
    task, nominal, _ = REFERENCES[workload]
    task()
    loops = max(1, round(REF_PROBE_SECONDS / nominal))
    start = time.perf_counter()
    for _ in range(loops):
        task()
    return (time.perf_counter() - start) / loops / nominal


def build(workload: str, seed: int, workdir: str):
    """(pool, op, fingerprint) for a workload."""
    import workloads as wl

    if workload == "physics_scan":
        return wl.scan_rows(seed), wl.scan_op, wl.scan_fingerprint
    if workload == "fit_small":
        pool = [(spec, wl.synthesize(spec)) for spec in wl.fit_small_specs(seed)]
        return pool, wl.fit_small_op, wl.fit_fingerprint
    if workload == "fit_large":
        return wl.fit_large_specs(seed), wl.fit_large_op, wl.fit_large_fingerprint
    return wl.cli_round(seed, workdir), wl.cli_op, wl.cli_fingerprint


def check(workload: str, index: int, item, out) -> list[str]:
    import checks

    if workload == "physics_scan":
        return checks.check_scan(item, out)
    refit = index % REFIT_EVERY.get(workload, 1) == 0
    stream = index % STREAM_EVERY.get(workload, 1) == 0
    if workload == "fit_small":
        spec, curve = item
        return (checks.check_curve(spec, curve, stream)
                + checks.check_fits(spec, curve, out, refit))
    if workload == "fit_large":
        curve, reports = out
        return (checks.check_curve(item, curve, stream)
                + checks.check_fits(item, curve, reports, refit))
    return checks.check_cli(item, out)


def cpu_seconds(who: int) -> float:
    """CPU time of this process (precise clock) or of its waited-for children."""
    if who == resource.RUSAGE_SELF:
        return time.process_time()
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_phase(pool, op, fingerprint, seconds: float, who: int, keep: bool,
                reference: tuple) -> dict:
    """Whole rounds of the pool until seconds have passed.

    Memory does not grow with the number of ops: each op keeps its first
    output and fingerprint, the sum of its times and, with keep set, its
    durations; a later repeat is only compared with the first.  The
    reference task, an entry of REFERENCES, runs between ops and is left
    out of every op time, of the phase's wall time and of its CPU time.
    """
    task, nominal, every = reference
    n = len(pool)
    first: list = [None] * n
    prints: list = [None] * n
    total = [0.0] * n
    durations: list[list[float]] = [[] for _ in range(n)]
    differ: list[tuple[int, int]] = []
    ref_wall = ref_cpu = 0.0
    ref_loops = 0
    clock = time.perf_counter
    cpu0 = cpu_seconds(who)
    start = next_ref = clock()
    rounds = 0
    while True:
        for i, item in enumerate(pool):
            t = clock()
            try:
                out = op(item)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            t_end = clock()
            d = t_end - t
            total[i] += d
            if keep:
                durations[i].append(d)
            fp = repr(out) if isinstance(out, Exception) else fingerprint(out)
            if rounds == 0:
                first[i], prints[i] = out, fp
            elif fp != prints[i]:
                differ.append((rounds, i))
            if t_end >= next_ref:
                c = cpu_seconds(who)
                task()
                now = clock()
                ref_cpu += cpu_seconds(who) - c
                ref_wall += now - t_end
                ref_loops += 1
                next_ref = now + every
        rounds += 1
        if clock() - start >= seconds:
            break
    wall = clock() - start - ref_wall
    cpu = cpu_seconds(who) - cpu0 - ref_cpu
    return {"ops": rounds * n, "rounds": rounds, "total": total, "durations": durations,
            "first": first, "differ": differ, "wall": wall, "cpu": cpu,
            "speed": ref_wall / ref_loops / nominal,
            "peak_kb": resource.getrusage(who).ru_maxrss}


def op_ms_p50(phase: dict) -> float:
    """Median over the pool's ops of each op's mean time, in ms.

    Each op's mean over its repeats, rather than every op time, keeps the
    median from jumping between fast and slow spells of the host.
    """
    return median(phase["total"]) / phase["rounds"] * 1e3


def judge(workload: str, pool, phase: dict) -> tuple[int, list[str], list[str]]:
    """Failed op count, the problems found in outputs, and the ops that raised.

    An op fails when it raised, when its output fails its check, or when
    a repeat of it in a later round differs from its first output."""
    wrong: dict[int, list[str]] = {}
    raised: dict[int, str] = {}
    for i, (item, out) in enumerate(zip(pool, phase["first"])):
        if isinstance(out, Exception):
            raised[i] = f"op {i} raised {out!r}"
        else:
            errs = check(workload, i, item, out)
            if errs:
                wrong[i] = [f"op {i}: {e}" for e in errs]
    bad = set(wrong) | set(raised)
    failed = phase["rounds"] * len(bad) + sum(1 for _, i in phase["differ"] if i not in bad)
    for r, i in phase["differ"]:
        wrong.setdefault(i, []).append(f"op {i}: repeat {r} differs")
    return failed, [e for errs in wrong.values() for e in errs], list(raised.values())


# ---------------------------------------------------------------- traced run


def import_times() -> dict:
    """Median import times from fresh processes run with -X importtime."""
    found: dict[str, list[float]] = {"efano": [], "numpy": [], "python": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import efano"],
                              capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("efano", "numpy"):
                found[parts[2].strip()].append(int(parts[1]) / 1000.0)
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        found["python"].append((time.perf_counter() - t) * 1000.0)
    return {k: median(v) for k, v in found.items()}


def cli_in_process(pool) -> int:
    """Run every call of the round through efano.cli.main, traced."""
    import contextlib
    import io

    import efano.cli

    runs = 0
    for _ in range(CLI_IN_PROCESS_REPEATS):
        for call in pool:
            with contextlib.redirect_stdout(io.StringIO()):
                code = efano.cli.main(list(call.argv))
            if code != 0:
                raise RuntimeError(f"in-process {call.argv} exited {code}")
            runs += 1
    return runs


def layer_metrics(tracer, workload: str, phase: dict, pool) -> dict:
    """Per-layer metrics of a traced run, as name -> (value, unit).

    Times named self_ms are milliseconds per op; counts are per round of
    the pool, which every run repeats identically.  On cli_session the
    library spans come from running each call of the round in-process
    through efano.cli.main, after the timed phase.
    """
    from workloads import CLI_SUBCOMMANDS

    imports = import_times()
    ops = phase["ops"]
    rounds, lib_ops = phase["rounds"], ops
    cli_wall: dict[str, list[float]] = {}
    if workload == "cli_session":
        for call, durations in zip(pool, phase["durations"]):
            cli_wall.setdefault(call.subcommand, []).extend(d * 1e3 for d in durations)
        lib_ops = cli_in_process(pool)
        rounds = CLI_IN_PROCESS_REPEATS
    t = tracer.get
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, unit: str, value: float) -> None:
        m[name] = (value, unit)

    def calls(name: str) -> None:
        put(name + ".calls", "count", t(name).calls // rounds)

    def self_ms(name: str, prefix: str | None = None) -> None:
        put(name + ".self_ms", "ms", tracer.self_ms(prefix or name) / lib_ops)

    def per_iter(model: str) -> None:
        fit = t("fitter.fit." + model)
        put(f"fitter.fit.{model}.us_per_iter", "us",
            fit.self_ns / fit.count / 1e3 if fit.count else 0.0)

    for name in ("efano", "numpy", "python"):
        put(f"import.{name}_ms", "ms", imports[name])
    for sub in CLI_SUBCOMMANDS:
        selfs = t("cli.main." + sub).selfs
        put(f"cli.{sub}.wall_ms_p50", "ms", median(cli_wall[sub]) if sub in cli_wall else 0.0)
        put(f"cli.{sub}.self_ms_p50", "ms", median(selfs) / 1e6 if selfs else 0.0)
    for name in ("numkit.log_gamma", "numkit.find_root"):
        calls(name)
        self_ms(name)
    noise = t("numkit.seeded_gaussian_noise")
    put("numkit.seeded_gaussian_noise.deviates", "count", noise.count // rounds)
    put("numkit.seeded_gaussian_noise.ns_per_deviate", "ns",
        noise.self_ns / noise.count if noise.count else 0.0)
    put("dipole_ladder.build_ladder.levels", "count",
        t("dipole_ladder.build_ladder").count // rounds)
    self_ms("dipole_ladder.build_ladder")
    calls("dipole_ladder.kappa_n")
    self_ms("dipole_ladder.kappa_n")
    for name in ("tune_to_scattering_length", "binding_energy", "scattering_length"):
        self_ms("twobody." + name)
    self_ms("efimov", "efimov.")
    put("profiles.synthesize.samples", "count", t("profiles.synthesize").count // rounds)
    self_ms("profiles.synthesize")
    self_ms("profiles.CrossSectionCurve")
    for model in ("fano", "breit_wigner"):
        put(f"fitter.fit.{model}.ms_p50", "ms", tracer.p50_ms("fitter.fit." + model))
    self_ms("fitter.initial_guess")
    for model in ("fano", "breit_wigner"):
        put(f"fitter.iterations.{model}", "count", t("fitter.fit." + model).count // rounds)
    per_iter("fano")
    per_iter("breit_wigner")

    # Accounting: a traced op's wall time is the layers' self time plus
    # the benchmark's glue.  The tracing overhead is the traced op time
    # minus the untraced one, from the untraced run.
    library = sum(v.self_ns for n, v in tracer.totals.items() if n != "bench.op") / 1e6
    spans = sum(v.calls for n, v in tracer.totals.items() if n != "bench.op")
    op_mean = phase["wall"] * 1e3 / ops
    layers = library / lib_ops
    if workload == "cli_session":
        # A CLI op is interpreter start-up, import efano, then main().
        layers += imports["python"] + imports["efano"]
    put("trace.op_ms_mean", "ms", op_mean)
    put("trace.layers_ms_per_op", "ms", layers)
    put("trace.glue_ms_per_op", "ms", op_mean - layers)
    put("trace.spans_per_op", "count", spans / lib_ops)
    put("trace.speed_factor", "x", phase["speed"])
    return m


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import efano

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(efano.__file__).startswith(src + os.sep):
        print(f"efano imported from {efano.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=args.out_dir)
    try:
        pool, op, fingerprint = build(args.workload, args.seed, workdir)
        op(pool[0])
        setup_s = time.perf_counter() - start
        setup_s /= speed_factor(args.workload)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            op = tracer.span("bench.op", op)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        phase = timed_phase(pool, op, fingerprint, args.seconds, who, args.trace,
                            REFERENCES[args.workload])
        layers = {}
        if tracer is not None:
            layers = layer_metrics(tracer, args.workload, phase, pool)
            tracer.uninstall()
            tracer.write(os.path.join(
                args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        failed, wrong, raised = judge(args.workload, pool, phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops, speed = phase["ops"], phase["speed"]
    for line in (wrong + raised)[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": ops,
        "failed": failed,
        "setup_s": setup_s,
        "ops_per_s": ops / phase["wall"] * speed,
        "op_ms_p50": op_ms_p50(phase) / speed,
        "cpu_ms_per_op": phase["cpu"] * 1e3 / ops / speed,
        "peak_rss_mb": phase["peak_kb"] / 1024.0,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
