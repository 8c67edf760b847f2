"""efano benchmark: one closed-loop workload per run, timed from outside.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an efano checkout; it imports efano from the
checkout's src directory and exits with status 2 if there is none.
Each run uses fresh processes with one client, and BLAS pinned to one
thread.  With --trace 0 it starts SETUP_PROBES set-up-only processes and
one measuring process, and prints the end-to-end metrics; setup_s is
the median of the set-up times of all of them.  With --trace 1 it
starts one traced process and prints the per-layer metrics.  End-to-end
times are scaled to a reference speed (worker.REFERENCES, README.md).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
Scratch files and span dumps go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
OUT_DIR = ".bench_out"
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def run_worker(args, extra: list[str], env: dict, out_dir: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out-dir", out_dir,
           *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(extra) or 'run'} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="efano benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "efano", "__init__.py")):
        print(f"error: no efano source under {root}/src; run from an efano checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env(root)

    if args.trace:
        result = run_worker(args, ["--trace"], env, out_dir, timeout=170)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        setups = [run_worker(args, ["--setup-only"], env, out_dir, timeout=30)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = run_worker(args, [], env, out_dir, timeout=150)
        result["setup_s"] = median(setups + [result["setup_s"]])
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
