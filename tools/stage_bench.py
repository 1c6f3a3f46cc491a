"""Stage timings of the solver on fixed inputs, one column per benchmark workload's shapes.

    python tools/stage_bench.py [--out BENCH.json]

Run from anywhere; lisopt is imported from the checkout's ``src`` with BLAS
pinned to one thread. Each workload's base config comes from its scenario
file under ``perfbench/scenarios`` (read only), with N fixed per workload,
and its channels are seeded draws of sample_channels. The stages:

- ``trace_value_and_grad`` at B = 1, 2 and 32 rows, us per call;
- the beam norms of ``zf_gram_inverse`` at B = 1 .. 4096 rows, us per row;
- ``dinkelbach_batch`` on those beam norms at B = 1 and 25 rows, us per call.

Each figure is the best of a few repeats, so the table moves with the code,
not with a rename or a re-route of the calls around it. The table is printed
and, with ``--out``, written as JSON with the interpreter, numpy and thread
settings. The whole run takes a few seconds.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so the pin comes before the imports below
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import json
import platform
import sys
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lisopt import load_scenario, qos_min_powers, sample_channels
from lisopt.model import PowerAllocation, effective_channels, zf_gram_inverse
from lisopt.phases import stack_rows, trace_value_and_grad
from lisopt.power import dinkelbach_batch

# workload: (scenario file, N): the file's own N, or for an N sweep its largest value
# (elements-fanout) or one in its middle (oracle-gap)
WORKLOADS = {
    "budget-sweep": ("budget_sweep.scn", 8),
    "snr-qos": ("snr_qos.scn", 8),
    "elements-fanout": ("elements_fanout.scn", 16),
    "oracle-gap": ("oracle_gap.scn", 6),
}
TRACE_ROWS = (1, 2, 32)
NORM_ROWS = (1, 9, 25, 100, 400, 4096)
DINKELBACH_ROWS = (1, 25)
REPEATS = 7
TARGET_S = 0.01  # each repeat runs the call about this long


def stage_calls() -> list:
    """(stage, workload, call, rows the figure is divided by) of every cell of the table.

    Each workload's inputs are the channels of seeds 0 .. max(NORM_ROWS) - 1
    and phases drawn from default_rng(max(NORM_ROWS)).
    """
    calls = []
    rows = max(NORM_ROWS)
    for name, (scenario_file, n) in WORKLOADS.items():
        scenario = load_scenario(ROOT / "perfbench" / "scenarios" / scenario_file)
        config = replace(scenario.config, n=n)
        channels = [sample_channels(config, seed) for seed in range(rows)]
        thetas = np.random.default_rng(rows).uniform(0.0, 2.0 * np.pi, (rows, n))
        powers = PowerAllocation(p=np.full(config.k, config.p_budget / config.k))
        for b in TRACE_ROWS:
            data = stack_rows([(c, powers) for c in channels[:b]], 1)
            calls.append((f"trace_value_and_grad B={b} (us/call)", name,
                          functools.partial(trace_value_and_grad, thetas[:b], *data), 1))
        h_eff = effective_channels(*(np.stack([getattr(c, f) for c in channels])
                                     for f in ("h1", "h2", "h")), np.exp(1j * thetas))
        for b in NORM_ROWS:
            calls.append((f"beam norms B={b} (us/row)", name,
                          functools.partial(zf_gram_inverse, h_eff[:b]), b))
        weights = zf_gram_inverse(h_eff)[1]
        terms = (qos_min_powers(config), config.mu, config.sigma2, config.p_budget,
                 config.k * config.p_c + config.n * config.p_n_of_b[config.b], config.epsilon)
        for b in DINKELBACH_ROWS:
            calls.append((f"dinkelbach_batch B={b} (us/call)", name,
                          functools.partial(dinkelbach_batch, weights[:b], *terms), 1))
    return calls


def stage_table() -> dict:
    """Microseconds per stage (rows) and workload (columns).

    Each cell is the best of REPEATS timings of about TARGET_S each. The
    repeats go round the whole table, so a burst of load on the machine
    spoils one timing of many cells, not every timing of one.
    """
    calls = stage_calls()
    numbers = []
    for _, _, call, _ in calls:
        start = timeit.default_timer()
        call()
        numbers.append(max(1, int(TARGET_S / max(timeit.default_timer() - start, 1e-7))))
    best = [np.inf] * len(calls)
    for _ in range(REPEATS):
        for i, ((_, _, call, _), number) in enumerate(zip(calls, numbers)):
            best[i] = min(best[i], timeit.timeit(call, number=number) / number)
    table = {}
    for (stage, name, _, rows), seconds in zip(calls, best):
        table.setdefault(stage, {})[name] = 1e6 * seconds / rows
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the table and environment as JSON")
    args = parser.parse_args(argv)
    table = stage_table()
    width = max(map(len, table))
    print(f"{'stage':<{width}}" + "".join(f"{name:>17}" for name in WORKLOADS))
    for stage, row in table.items():
        print(f"{stage:<{width}}" + "".join(f"{row[name]:>17.2f}" for name in WORKLOADS))
    if args.out:
        record = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "shapes": {name: {"scenario": f, "n": n} for name, (f, n) in WORKLOADS.items()},
            "stages_us": table,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
