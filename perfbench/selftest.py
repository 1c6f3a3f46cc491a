"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its schema and that interactions.json
covers its per-layer metrics; that every workload, timed
and traced, prints each named metric with its unit; that the traced run's
self times add up to its wall time; that timed and traced runs (and the
threaded and serial elements sweep) have the same determinism fingerprint
and the same attempted and failed counts;
that the correctness gate trips on corrupted reports; and that the benchmark
fails without the program's sources. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out" / "selftest"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"SELFTEST FAILED: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
          "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "number of workloads")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w}")
        names.append(w["name"])
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            check(set(m) == keys, f"{group} entry {m}")
            check(bool(UNIT.fullmatch(m["unit"])), f"unit of {m['name']}")
            check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
            if "bound" in m:
                check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
            names.append(m["name"])
    check(all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    check(len(names) == len(set(names)), "names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must exist, in s, lower is better, with the largest bound")

    table = json.loads((HERE / "interactions.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    check(set(table) == {m["name"] for m in spec["per_layer"]},
          "interactions.json must cover exactly the per-layer metrics")
    for name, row in table.items():
        check(all(m["metric"] in end_to_end and m["workload"] in workloads
                  for m in row["moves"]) and set(row["flat"]) <= workloads,
              f"interactions.json: {name} names an unknown metric or workload")


def run_bench(cwd: Path, workload: str, trace: int, result: Path | None, *extra) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), *extra]
    if result is not None:
        cmd += ["--result", str(result)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def check_output(spec, workload, trace, rc, lines) -> dict:
    check(rc == 0, f"{workload} trace={trace} exited with {rc}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys")
    check(result["correct"] is True and result["attempted"] >= 1, f"{workload}: not correct")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == wanted, f"{workload} trace={trace}: names or units differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{workload}: {name} is not a finite number")
        check(trace or value > 0, f"{workload}: end-to-end {name} is 0")
    return result


def check_gate() -> None:
    """The gate passes on genuine reports and trips on each kind of corruption."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workload as wl
    from lisopt import harness

    lisopt = wl.import_lisopt()
    captured = []
    wl.capture_reports(harness, "alternating_ee_max", captured, lambda r: r[0])
    wl.capture_reports(harness, "exhaustive_search", captured, lambda r: r)
    scenario = wl.scenario_for(lisopt, wl.Part("oracle_gap.scn", 4, (4,)), 5, 0, 0, None)
    rows = lisopt.run_scenario(scenario)
    check(not wl.check_rows(rows) and not wl.check_oracle(lisopt, [rows], captured),
          "gate fails on genuine reports")

    good = next(i for i, r in enumerate(rows) if r.feasible)
    bent = rows[:good] + [replace(rows[good], ee=rows[good].ee * (1 + 1e-9))] + rows[good + 1:]
    check(bool(wl.check_rows(bent)), "gate missed ee * total_power != sum_rate")

    channels, cfg, report = next(c for c in captured if c[2].feasible)
    loud = replace(report, powers=lisopt.PowerAllocation(p=report.powers.p * 10.0))
    check(bool(wl.check_oracle(lisopt, [], [(channels, cfg, loud)])),
          "gate missed a report over the radiated-power budget")
    strict = replace(cfg, r_min=cfg.r_min + 20.0)
    check(bool(wl.check_oracle(lisopt, [], [(channels, strict, report)])),
          "gate missed a report under its QoS floors")

    exh = next(r for r in rows if r.method == "exhaustive" and r.feasible)
    alt = next(r for r in rows if r.method == "lis-1bit" and r.sweep == exh.sweep
               and r.trial == exh.trial)
    better = replace(alt, feasible=True, ee=exh.ee * 1.01)
    swapped = [better if r is alt else r for r in rows]
    check(bool(wl.check_oracle(lisopt, [swapped], [])),
          "gate missed an alternating result above the oracle")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    shutil.rmtree(OUT, ignore_errors=True)
    fingerprints, counts = {}, {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            path = OUT / f"{name}-trace{trace}.json"
            rc, lines = run_bench(ROOT, name, trace, path)
            result = check_output(spec, name, trace, rc, lines)
            counts[(name, trace)] = (result["attempted"], result["failed"])
            record = json.loads(path.read_text())
            fingerprints[(name, trace)] = record["fingerprint"]
            if trace and name != "elements-fanout":
                check(math.isclose(record["self_time_sum_s"], record["timed_root_s"],
                                   rel_tol=1e-9),
                      f"{name}: self times add to {record['self_time_sum_s']} s, "
                      f"wall is {record['timed_root_s']} s")
        check(fingerprints[(name, 0)] == fingerprints[(name, 1)],
              f"{name}: timed and traced runs give different fingerprints")
        check(counts[(name, 0)] == counts[(name, 1)],
              f"{name}: timed and traced runs attempt or fail different numbers of rows")
        print(f"ok {name}: metrics, units, gate, fingerprint {fingerprints[(name, 0)][:19]}")

    path = OUT / "elements-fanout-serial.json"
    rc, lines = run_bench(ROOT, "elements-fanout", 1, path, "--workers", "1")
    result = check_output(spec, "elements-fanout", 1, rc, lines)
    check(json.loads(path.read_text())["fingerprint"] == fingerprints[("elements-fanout", 1)],
          "elements-fanout: threaded and serial runs give different fingerprints")
    check((result["attempted"], result["failed"]) == counts[("elements-fanout", 1)],
          "elements-fanout: threaded and serial runs attempt or fail different numbers of rows")
    print("ok elements-fanout: threaded run matches the serial one")

    check_gate()
    print("ok correctness gate trips on corrupted reports")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run_bench(bare, "budget-sweep", 0, None)
    shutil.rmtree(bare)
    check(rc != 0 and not any(line.startswith("{") for line in lines),
          "the benchmark must fail, printing no result, without the program's sources")
    print("ok fails without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
