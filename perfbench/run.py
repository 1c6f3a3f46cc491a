"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload budget-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh interpreter
(perfbench/workload.py) with OpenMP, OpenBLAS and MKL pinned to one thread and
lisopt imported from the checkout's ``src``. With ``--trace 0`` the metrics are
the end-to-end ones in BENCHMARK.json; set-up time is the median of several
fresh interpreters that import lisopt, parse the workload's scenario and solve
its warm-up cell. With ``--trace 1`` the metrics are the per-layer ones, taken
from spans around calls into lisopt. The full record, with the environment,
the determinism fingerprint and (traced) the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
WORKLOADS = ("budget-sweep", "snr-qos", "elements-fanout", "oracle-gap")
SETUP_STARTS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def setup_seconds(args, env) -> float:
    """Median wall time of fresh interpreters doing the set-up a run pays.

    Each start ends by timing the benchmark's reference solve, which is taken
    off its wall time and gives the speed scale its time is multiplied by.
    """
    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for start in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if start:  # the first start writes the bytecode caches; it is not timed
            probe = json.loads(proc.stdout.splitlines()[-1])
            times.append((wall - probe["reference_s"]) * probe["scale"])
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one lisopt benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, default=None,
                        help="override the scenario's harness threads (self-test)")
    parser.add_argument("--result", default=None,
                        help="record path (default .perfbench_out/<workload>-seed<n>-trace<t>.json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lisopt" / "__init__.py").is_file():
        print(f"no lisopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result_path = Path(args.result) if args.result else (
        ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")

    env = pinned_env()
    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if args.workers is not None:
        cmd += ["--workers", str(args.workers)]
    try:
        setup_s = None if args.trace else setup_seconds(args, env)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"workload failed: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("\n".join(lines[-1:]))
        print(f"workload exited with code {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    values = result["metrics"]
    if setup_s is not None:
        values["setup_s"] = setup_s
    if set(values) != set(units):
        print(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
