"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads budget-sweep,oracle-gap]
                                [--trace 0|1] [--out perfbench/baseline.json]

Spread is (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4),
the rule an end-to-end metric's bound in BENCHMARK.json is checked against
(set-up time excepted). Each run goes through run.py, as a benchmark run does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                print(f"{workload} seed {seed}: run failed with code {proc.returncode}")
                return 1
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
                if args.trace == 0), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is not None:
                stats["bound"] = bound
                stats["within_third"] = name == "setup_s" or stats["spread"] < bound / 3
                ok &= name == "setup_s" or stats["spread"] <= bound
                print(f"  {workload:16s} {name:14s} median {stats['median']:12.6g} "
                      f"spread {stats['spread']:.4f} bound {bound} "
                      f"{'ok' if stats['within_third'] else 'WIDE'}")
            metrics[name] = stats
        if args.trace:
            med = {name: stats["median"] for name, stats in metrics.items()}
            print(f"  {workload:16s} phases share {med['phases.solve_share']:.3f}, "
                  f"power+model share {med['power.solve_share'] + med['model.solve_share']:.3f}, "
                  f"busy ratio {med['harness.busy_ratio']:.3f}, "
                  f"traced rows/s {med['trace.rows_per_s']:.4g}")
        summary[workload] = {"seeds": seed_list(args.seeds),
                             "attempted": [r["attempted"] for r in runs],
                             "failed": [r["failed"] for r in runs], "metrics": metrics}
    if args.out:
        out = Path(args.out)
        previous = json.loads(out.read_text()) if out.is_file() else {}
        previous.setdefault(f"trace{args.trace}", {}).update(summary)
        out.write_text(json.dumps(previous, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
