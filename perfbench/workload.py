"""One benchmark workload in a fresh interpreter: warm up, measure, check, report.

run.py starts this file with BLAS pinned to one thread and PYTHONPATH set to
the checkout's ``src``. The last line of stdout is a JSON object with the
measurements; a failed correctness gate exits with code 1.

A batch runs each part of the workload once through
load_scenario -> run_scenario -> aggregate -> emit_outputs. The first
``prefix`` batches always run and are the quality set: every quality metric,
count and the fingerprint come from them, so they are exact for a seed. More
batches follow until ``--seconds`` have passed; timing metrics use all of them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Relative tolerances of the correctness gate.
IDENTITY_RTOL = 1e-12   # ee * total_power == sum_rate
BUDGET_RTOL = 1e-9      # radiated power <= p_budget, same slack as the phase gate
ORACLE_RTOL = 1e-9      # alternating ee <= exhaustive ee

# Share of --seconds the quality set takes at the seed commit on a 2-core box.
QUALITY_SHARE = 0.8

# Seconds reference_s() takes on a 2-core Xeon box in its fast phase; scaled
# times read as times on that box.
NOMINAL_REFERENCE_S = 0.075
SCALE_WINDOW_S = 4.0


@dataclass(frozen=True)
class Part:
    scenario: str          # file under perfbench/scenarios
    trials: int            # trials of this part in one batch
    values: tuple = ()     # sweep values to keep; () keeps the file's


@dataclass(frozen=True)
class Workload:
    parts: tuple
    batch_s: float         # seconds a batch takes at the seed commit on a 2-core box
    oracle: bool = False   # pair lis-1bit with exhaustive and check the pairs

    def prefix(self, seconds: float) -> int:
        return max(1, int(QUALITY_SHARE * seconds / self.batch_s))


# The oracle batch mixes sizes on purpose. n = 2 gets the most trials because
# it is cheap and holds most false infeasibles. Four n = 6 trials put
# solve_ms_p90 near the middle of the n = 6 exhaustive rows (12.5% of rows,
# above 3% of n = 8 ones), not on a boundary between sizes, whose solve times
# differ 4x. Exhaustive search keeps ~85% of the batch's time.
WORKLOADS = {
    "budget-sweep": Workload((Part("budget_sweep.scn", 1),), batch_s=0.7),
    "snr-qos": Workload((Part("snr_qos.scn", 1),), batch_s=1.0),
    "elements-fanout": Workload((Part("elements_fanout.scn", 1),), batch_s=1.5),
    "oracle-gap": Workload((Part("oracle_gap.scn", 8, (2,)), Part("oracle_gap.scn", 3, (4,)),
                            Part("oracle_gap.scn", 4, (6,)), Part("oracle_gap.scn", 1, (8,))),
                           batch_s=4.5, oracle=True),
}


def master_seed(seed: int, batch: int, part: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, batch, part]).generate_state(1, np.uint64)[0])


WARMUP_BATCH = 2 ** 31  # batch index of the untimed warm-up cell, never a timed batch


def import_lisopt():
    import lisopt
    where = Path(lisopt.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"lisopt was imported from {where}, not from {ROOT / 'src'}")
    return lisopt


def scenario_for(lisopt, part: Part, seed: int, batch: int, index: int, workers):
    scenario = lisopt.load_scenario(HERE / "scenarios" / part.scenario)
    return replace(scenario, values=part.values or scenario.values, trials=part.trials,
                   master_seed=master_seed(seed, batch, index),
                   workers=workers or scenario.workers)


def reference_s(threads: int = 1) -> float:
    """Seconds a fixed phase-step-like solve takes: L-BFGS-B with numeric
    gradients over a 4-user trace-inverse objective, then a scalar bisection.
    With ``threads`` > 1, that many copies run at once, as the harness's
    threads do, and the wall time is divided by ``threads``.

    It runs no lisopt code, so its time moves only with the machine's speed.
    A shared host runs this box up to ~1.5x slower for tens of seconds at a
    time; the benchmark samples this solve between parts and scales every
    time it reports by NOMINAL_REFERENCE_S over the median of the samples
    around it (see speed_scales). On a 2-core Xeon VM, three budget-sweep
    runs of one seed then agreed within ~2% where unscaled they spread ~18%.
    """
    import numpy as np
    from scipy.optimize import minimize

    rng = np.random.default_rng(0)
    b = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    eye = np.eye(4)

    def objective(theta):
        gram = (b * np.exp(1j * theta)) @ b.conj().T + eye
        return float(np.real(np.trace(np.linalg.inv(gram))))

    def solve():
        minimize(objective, np.full(8, 0.3), method="L-BFGS-B",
                 bounds=[(0.0, 2.0 * np.pi)] * 8, options={"maxiter": 30})
        w = np.linalg.svd(b, compute_uv=False)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(np.dot(w, np.maximum(1.0 / (mid + w), 0.1))) > 3.0:
                lo = mid
            else:
                hi = mid

    t0 = time.perf_counter()
    if threads == 1:
        solve()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(solve) for _ in range(threads)]:
                future.result()
    return (time.perf_counter() - t0) / threads


def speed_scales(samples: list) -> list:
    """Scale of each part from (time taken, clock) reference samples.

    Part i runs between samples i and i + 1; its scale is nominal over the
    median of those two and of every sample taken within SCALE_WINDOW_S of
    the part's midpoint. The slow phases last tens of seconds, so the window
    follows them while damping the noise of any one sample.
    """
    scales = []
    for i in range(len(samples) - 1):
        mid = 0.5 * (samples[i][1] + samples[i + 1][1])
        near = [taken for j, (taken, at) in enumerate(samples)
                if j in (i, i + 1) or abs(at - mid) <= SCALE_WINDOW_S]
        scales.append(NOMINAL_REFERENCE_S / statistics.median(near))
    return scales


def warm_up(lisopt, workload: Workload, seed: int, workers) -> None:
    """Solve one cell untimed, so first-call costs stay out of the timed part."""
    part = workload.parts[0]
    scenario = scenario_for(lisopt, part, seed, WARMUP_BATCH, 0, workers)
    lisopt.run_scenario(replace(scenario, values=scenario.values[:1], trials=1))


# ---------------------------------------------------------------------------
# Correctness gate


def check_rows(rows) -> list:
    problems = []
    for r in rows:
        where = f"{r.method} sweep={r.sweep} trial={r.trial}"
        if not r.feasible:
            if (r.ee, r.sum_rate, r.total_power) != (0.0, 0.0, 0.0):
                problems.append(f"{where}: infeasible row carries non-zero figures")
            continue
        if not (r.ee > 0.0 and r.total_power > 0.0 and r.sum_rate > 0.0):
            problems.append(f"{where}: feasible row has a non-positive figure")
        elif abs(r.ee * r.total_power - r.sum_rate) > IDENTITY_RTOL * r.sum_rate:
            problems.append(f"{where}: ee * total_power != sum_rate")
    return problems


def check_oracle(lisopt, runs, captured) -> list:
    """Budget and QoS floors of every captured report; alternating <= exhaustive."""
    problems = []
    for channels, cfg, report in captured:
        if not report.feasible:
            continue
        radiated = lisopt.trace_objective(report.phases.theta, channels, report.powers)
        if not radiated <= cfg.p_budget * (1.0 + BUDGET_RTOL):
            problems.append(f"{report.method_tag} n={cfg.n}: radiates {radiated!r} W, "
                            f"budget {cfg.p_budget!r} W")
        floors = lisopt.qos_min_powers(cfg)
        if any(p < f for p, f in zip(report.powers.p, floors)):
            problems.append(f"{report.method_tag} n={cfg.n}: a power is below its QoS floor")
    for pair in oracle_pairs(runs):
        alt, exh = pair["lis-1bit"], pair["exhaustive"]
        if alt.feasible and exh.feasible and alt.ee > exh.ee * (1.0 + ORACLE_RTOL):
            problems.append(f"n={alt.sweep} trial={alt.trial}: alternating ee {alt.ee!r} "
                            f"exceeds exhaustive {exh.ee!r}")
    return problems


def oracle_pairs(runs):
    for rows in runs:
        cells = defaultdict(dict)
        for r in rows:
            cells[(r.sweep, r.trial)][r.method] = r
        yield from cells.values()


def capture_reports(owner, attr: str, sink: list, pick) -> None:
    """Keep (channels, config, report) of every call of ``owner.attr``."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def capturing(channels, config, *args, **kwargs):
        result = fn(channels, config, *args, **kwargs)
        sink.append((channels, config, pick(result)))
        return result

    setattr(owner, attr, capturing)


# ---------------------------------------------------------------------------
# Tracing


def instrument(tracer) -> None:
    """Wrap every call site the per-layer metrics need, under the caller's name."""
    import numpy as np
    from lisopt import harness, phases, power, solver

    def probes(args, result):
        return int(np.atleast_2d(args[0]).shape[0])

    tracer.wrap(solver, "solve_phase_subproblem", info=lambda a, r: bool(r.feasible))
    tracer.wrap(solver, "zf_power_weights")
    tracer.wrap(solver, "dinkelbach_allocation", info=lambda a, r: r[1].iterations)
    tracer.wrap(solver, "solve_inner")
    tracer.wrap(solver, "zf_precoder")
    tracer.wrap(phases, "solve_relaxed")
    tracer.wrap(phases, "trace_values", info=probes)
    tracer.wrap(power, "solve_inner")
    tracer.wrap(power, "zf_precoder")
    tracer.wrap(harness, "sample_channels")
    tracer.wrap(harness, "alternating_ee_max", new_row=True,
                info=lambda a, r: [r[1].termination, len(r[1].iterates)])
    tracer.wrap(harness, "exhaustive_search", new_row=True,
                info=lambda a, r: r.outer_iterations)
    tracer.wrap(harness, "relay_baseline", new_row=True)
    tracer.wrap(harness, "max_rate_power_fill", same_row=True)
    tracer.wrap(harness, "zf_precoder")


ROW_SOLVERS = ("solver.alternating_ee_max", "solver.exhaustive_search",
               "solver.relay_baseline", "solver.max_rate_power_fill")


def layer_metrics(spans, selfs, n_prefix, wall, runs_prefix, busy, emitted,
                  overhead_s) -> dict:
    """Per-layer figures: counts over the quality set, unscaled times over the run."""
    every = defaultdict(list)
    for s in spans:
        every[s.name].append(s)
    first = defaultdict(list)
    for s in spans[:n_prefix]:
        first[s.name].append(s)

    def total(name):
        return sum(s.duration for s in every[name])

    def per_call(name, scale):
        calls = every[name]
        return scale * total(name) / len(calls) if calls else 0.0

    def calls(name):
        return len(first[name])

    def self_of(pred):
        return sum(selfs[s.id] for s in spans if pred(s))

    solve_s = sum(total(name) for name in ROW_SOLVERS)
    layer_self = {layer: self_of(lambda s, layer=layer: s.layer == layer)
                  for layer in ("channels", "model", "phases", "power", "solver", "harness")}

    def solve_share(layer):
        inside = self_of(lambda s: s.layer == layer and s.row != 0)
        return inside / solve_s if solve_s else 0.0

    gate = [s.info for s in first["phases.solve_phase_subproblem"]]
    probes = sum(s.info or 0 for s in first["phases.trace_values"])
    probe_s = total("phases.trace_values")
    probes_all = sum(s.info or 0 for s in every["phases.trace_values"])
    dink_ok = [s for s in first["power.dinkelbach_allocation"] if s.error is None]
    alt_first = first["solver.alternating_ee_max"]
    terminations = Counter(s.info[0] if s.error is None else "error" for s in alt_first)
    exh_rows = {s.row for s in first["solver.exhaustive_search"]}
    candidates = sum(s.info or 0 for s in first["solver.exhaustive_search"])
    candidates_all = sum(s.info or 0 for s in every["solver.exhaustive_search"])
    exh_feasible = sum(1 for s in dink_ok if s.row in exh_rows)
    gap_median, false_infeasible = oracle_quality(runs_prefix)

    def rate(name, count):
        return count / total(name) if every[name] else 0.0

    metrics = {
        "phases.solve_phase_subproblem.calls": calls("phases.solve_phase_subproblem"),
        "phases.gate_pass_ratio": sum(gate) / len(gate) if gate else 0.0,
        "phases.solve_relaxed.calls": calls("phases.solve_relaxed"),
        "phases.solve_relaxed.ms_per_call": per_call("phases.solve_relaxed", 1e3),
        "phases.solve_relaxed.self_s": self_of(lambda s: s.name == "phases.solve_relaxed"),
        "phases.trace_values.calls": calls("phases.trace_values"),
        "phases.trace_values.probes": probes,
        "phases.trace_values.us_per_probe": 1e6 * probe_s / probes_all if probes_all else 0.0,
        "phases.self_s": layer_self["phases"],
        "phases.solve_share": solve_share("phases"),
        "power.zf_power_weights.calls": calls("power.zf_power_weights"),
        "power.zf_power_weights.us_per_call": per_call("power.zf_power_weights", 1e6),
        "power.dinkelbach_allocation.calls": calls("power.dinkelbach_allocation"),
        "power.dinkelbach_allocation.ms_per_call": per_call("power.dinkelbach_allocation", 1e3),
        "power.dinkelbach_allocation.iters_per_call":
            sum(s.info for s in dink_ok) / len(dink_ok) if dink_ok else 0.0,
        "power.dinkelbach_allocation.failed":
            calls("power.dinkelbach_allocation") - len(dink_ok),
        "power.solve_inner.calls": calls("power.solve_inner"),
        "power.solve_inner.us_per_call": per_call("power.solve_inner", 1e6),
        "power.self_s": layer_self["power"],
        "power.solve_share": solve_share("power"),
        "model.zf_precoder.calls": calls("model.zf_precoder"),
        "model.zf_precoder.us_per_call": per_call("model.zf_precoder", 1e6),
        "model.solve_share": solve_share("model"),
        "solver.alternating_ee_max.ms_per_call": per_call("solver.alternating_ee_max", 1e3),
        "solver.alternating_ee_max.outer_per_call":
            sum(s.info[1] for s in alt_first if s.error is None) / len(alt_first)
            if alt_first else 0.0,
        "solver.termination.converged": terminations["converged"],
        "solver.termination.infeasible": terminations["infeasible"],
        "solver.termination.iteration-cap": terminations["iteration-cap"],
        "solver.exhaustive_search.candidates_per_s":
            rate("solver.exhaustive_search", candidates_all),
        "solver.exhaustive_search.feasible_candidate_ratio":
            exh_feasible / candidates if candidates else 0.0,
        "solver.relay_baseline.calls_per_s":
            rate("solver.relay_baseline", len(every["solver.relay_baseline"])),
        "solver.max_rate_power_fill.calls_per_s":
            rate("solver.max_rate_power_fill", len(every["solver.max_rate_power_fill"])),
        "solver.self_s": layer_self["solver"],
        "solver.solve_share": solve_share("solver"),
        "solver.oracle_gap_median": gap_median,
        "solver.false_infeasible_frac": false_infeasible,
        "harness.load_scenario.ms": per_call("harness.load_scenario", 1e3),
        "harness.run_scenario.s": per_call("harness.run_scenario", 1.0),
        "harness.busy_ratio": busy,
        "harness.self_s": layer_self["harness"],
        "harness.aggregate.ms": per_call("harness.aggregate", 1e3),
        "harness.emit_outputs.ms": per_call("harness.emit_outputs", 1e3),
        "harness.emit_outputs.bytes": sum(emitted) / len(emitted) if emitted else 0.0,
        "channels.sample_channels.calls": calls("channels.sample_channels"),
        "channels.sample_channels.us_per_call": per_call("channels.sample_channels", 1e6),
        "trace.spans_per_row": len(spans) / max(1, len({s.row for s in spans} - {0})),
        "trace.overhead_share": overhead_s * len(spans) / wall,
    }
    return metrics


def oracle_quality(runs):
    """(median gap over pairs both solvers solved, false-infeasible share of pairs)."""
    gaps, false_infeasible, pairs = [], 0, 0
    for pair in oracle_pairs(runs):
        if "exhaustive" not in pair:
            return 0.0, 0.0
        alt, exh = pair["lis-1bit"], pair["exhaustive"]
        pairs += 1
        if exh.feasible and not alt.feasible:
            false_infeasible += 1
        if alt.feasible and exh.feasible:
            gaps.append((exh.ee - alt.ee) / exh.ee)
    return (statistics.median(gaps) if gaps else 0.0,
            false_infeasible / pairs if pairs else 0.0)


# ---------------------------------------------------------------------------


def rows_fingerprint(paths, reports) -> str:
    """sha256 of the quality set's rows.csv files without wall_ms, plus report tuples."""
    digest = hashlib.sha256()
    for path in paths:
        table = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, col in enumerate(table[0]) if col != "wall_ms"]
        for line in table:
            digest.update((",".join(line[i] for i in keep) + "\n").encode())
    for report in reports:
        digest.update(repr((report.method_tag, report.feasible, report.ee, report.sum_rate,
                            report.total_power,
                            None if report.phases is None else report.phases.theta.tolist(),
                            None if report.powers is None else report.powers.p.tolist())
                           ).encode())
    return "sha256:" + digest.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "git_commit": commit,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args) -> int:
    lisopt = import_lisopt()
    workload = WORKLOADS[args.workload]
    warm_up(lisopt, workload, args.seed, args.workers)
    if args.setup_only:
        reference = reference_s()
        print(json.dumps({"reference_s": reference,
                          "scale": NOMINAL_REFERENCE_S / reference}))
        return 0

    from spans import Tracer, per_span_overhead, self_times

    captured = []
    if workload.oracle:
        from lisopt import harness
        capture_reports(harness, "alternating_ee_max", captured, lambda r: r[0])
        capture_reports(harness, "exhaustive_search", captured, lambda r: r)
    tracer = Tracer() if args.trace else None
    if tracer:
        instrument(tracer)

    def region(name, **kw):
        return tracer.region(name, **kw) if tracer else _NULL

    prefix = workload.prefix(args.seconds)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runs, csv_paths, emitted = [], [], []
    part_walls, part_batch = [], []   # wall seconds and batch index of each part run
    busy_s = pool_s = 0.0
    n_prefix_spans = n_prefix_runs = n_prefix_reports = 0
    batch = 0
    try:
        threads = scenario_for(lisopt, workload.parts[0], args.seed, 0, 0, args.workers).workers
        references = [(reference_s(threads), time.perf_counter())]
        t_start = time.perf_counter()
        with region("bench.timed"):
            while batch < prefix or time.perf_counter() - t_start < args.seconds:
                for index, part in enumerate(workload.parts):
                    t_part = time.perf_counter()
                    with region("harness.load_scenario"):
                        scenario = scenario_for(lisopt, part, args.seed, batch, index,
                                                args.workers)
                    t_run = time.perf_counter()
                    with region("harness.run_scenario", adopt_threads=True):
                        rows = lisopt.run_scenario(scenario)
                    pool_s += scenario.workers * (time.perf_counter() - t_run)
                    busy_s += sum(r.wall_ms for r in rows) / 1e3
                    with region("harness.aggregate"):
                        aggregates = lisopt.aggregate(rows)
                    with region("harness.emit_outputs"):
                        paths = lisopt.emit_outputs(rows, aggregates, scenario,
                                                    work / f"b{batch:04d}p{index}")
                    wall_s = time.perf_counter() - t_part
                    if tracer:
                        emitted.append(sum(p.stat().st_size for p in paths.values()))
                    references.append((reference_s(threads), time.perf_counter()))
                    part_walls.append(wall_s)
                    part_batch.append(batch)
                    runs.append(rows)
                    if batch < prefix:
                        csv_paths.append(paths["rows"])
                batch += 1
                if batch == prefix:
                    n_prefix_runs, n_prefix_reports = len(runs), len(captured)
                    n_prefix_spans = len(tracer.spans) if tracer else 0
        wall = time.perf_counter() - t_start
        n_timed_spans = len(tracer.spans) if tracer else 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fingerprint = rows_fingerprint(
            csv_paths, [report for _, _, report in captured[:n_prefix_reports]])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed_rows = [r for rows in runs for r in rows]
    prefix_rows = [r for rows in runs[:n_prefix_runs] for r in rows]
    problems = check_rows(timed_rows)
    if workload.oracle:
        problems += check_oracle(lisopt, runs, captured)
    if tracer:  # drop the spans of the gate's own calls into lisopt
        del tracer.spans[n_timed_spans:]

    # Operations are counted over the quality set, whose rows the seed fixes,
    # so two runs of one seed report the same attempted and failed counts;
    # the rows after it only add timing samples. A failed row is one that
    # came back infeasible.
    attempted, failed = len(prefix_rows), sum(not r.feasible for r in prefix_rows)
    scales = speed_scales(references)
    solve_ms = [r.wall_ms * scale for rows, scale in zip(runs, scales) for r in rows]
    deciles = statistics.quantiles(solve_ms, n=10, method="inclusive")
    batch_rows, batch_s = [0] * batch, [0.0] * batch
    for rows, wall_s, scale, b in zip(runs, part_walls, scales, part_batch):
        batch_rows[b] += len(rows)
        batch_s[b] += wall_s * scale
    # The median batch, because a few rows that hit the iteration cap take
    # 20x the median row and would make a mean follow the seed.
    rows_per_s = statistics.median(n / t for n, t in zip(batch_rows, batch_s))
    if tracer:
        selfs = self_times(tracer.spans)
        metrics = layer_metrics(tracer.spans, selfs, n_prefix_spans, wall,
                                runs[:n_prefix_runs], busy_s / pool_s, emitted,
                                per_span_overhead())
        metrics["trace.rows_per_s"] = rows_per_s
    else:
        metrics = {
            "rows_per_s": rows_per_s,
            "solve_ms_p50": statistics.median(solve_ms),
            "solve_ms_p90": deciles[8],
            "feasible_frac": sum(r.feasible for r in prefix_rows) / len(prefix_rows),
            "mean_ee": statistics.fmean(r.ee for r in prefix_rows),
            "mean_rate": statistics.fmean(r.sum_rate for r in prefix_rows),
            "peak_rss_mb": peak_rss_mb,
        }

    gap_median, false_infeasible = oracle_quality(runs[:n_prefix_runs])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(timed_rows)} rows "
          f"in {wall:.2f} s over {batch} batches; quality set {prefix} batches, "
          f"{attempted} rows ({failed} infeasible)")
    print(f"scaled solve_ms over {len(timed_rows)} rows: p50 {statistics.median(solve_ms):.2f} "
          f"p90 {deciles[8]:.2f}; unscaled rows/s {len(timed_rows) / sum(part_walls):.3f}, "
          f"median speed scale {statistics.median(scales):.3f}")
    if workload.oracle:
        print(f"oracle: median gap {gap_median:.4%}, false-infeasible share "
              f"{false_infeasible:.4%} of {len(prefix_rows) // 2} pairs")
    print(f"fingerprint {fingerprint}")
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.result:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, batches=batch, quality_batches=prefix,
                      part_walls=part_walls, speed_scales=scales,
                      quality_rows=len(prefix_rows), fingerprint=fingerprint,
                      environment=environment(), problems=problems)
        if tracer:
            spans_path = Path(args.result).with_suffix(".spans.jsonl.gz")
            tracer.write(spans_path)
            record["spans"] = spans_path.name
            record["self_time_sum_s"] = sum(selfs.values())
            record["timed_root_s"] = next(s.duration for s in tracer.spans
                                          if s.name == "bench.timed")
        Path(args.result).parent.mkdir(parents=True, exist_ok=True)
        Path(args.result).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _Null()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="override the scenario's harness threads")
    parser.add_argument("--result", help="write the full record (and spans) here")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, parse and solve the warm-up cell, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
