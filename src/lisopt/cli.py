"""Command-line entry point: run scenarios, quick sweeps, and oracle checks."""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import (
    Scenario,
    _config_at,
    aggregate,
    emit_outputs,
    load_scenario,
    run_scenario,
    scenario_from_pairs,
)
from .solver import phase_free_bound

_AXIS_KEYS = {"p": "sweep.p_budget_dbm", "n": "sweep.n", "snr": "sweep.snr_db"}

# The oracle-check scenario, less the sweep.n, trials and master_seed its flags set: a
# normalized tiny setup, unit-ish channels so efficiencies are well away from zero.
_ORACLE_PAIRS = {
    "k": "2", "m": "2", "b": "1",
    "sigma2_dbm": "-10", "p_budget_dbm": "-10",
    "p_c_dbm": "0", "p_n_dbm.1": "-5", "p_n_dbm.2": "5", "p_n_dbm.continuous": "15",
    "pathloss.bs_user.exponent": "0", "pathloss.bs_user.ref_loss_db": "10",
    "pathloss.bs_lis.exponent": "0", "pathloss.bs_lis.ref_loss_db": "0",
    "pathloss.lis_user.exponent": "0", "pathloss.lis_user.ref_loss_db": "0",
    "methods": "lis-1bit,exhaustive",
}
# Relative tolerance of oracle-check's comparisons: the gap sign and the phase-free bound
_ORACLE_TOLERANCE = 1e-9


def _checked(build):
    """build(), with bad scenario input (ValueError, OSError, OverflowError) ending the command.

    The message goes to stderr as 'lisopt: <msg>' with exit status 1.
    """
    try:
        return build()
    except (ValueError, OSError) as exc:
        raise SystemExit(f"lisopt: {exc}") from exc
    except OverflowError as exc:  # 10 ** (x / 10) of a dB or dBm value above ~3080
        raise SystemExit(f"lisopt: a dB or dBm value is too large: {exc}") from exc


def _with_overrides(scenario: Scenario, args) -> Scenario:
    overrides = {"master_seed": args.seed, "workers": args.workers}
    # replace() re-runs Scenario's checks on the overridden values
    return replace(scenario, **{k: v for k, v in overrides.items() if v is not None})


def _run_and_emit(scenario: Scenario, out_dir: str) -> int:
    _checked(lambda: Path(out_dir).mkdir(parents=True, exist_ok=True))  # a bad --out ends it unrun
    rows = run_scenario(scenario)
    aggregates = aggregate(rows)
    paths = emit_outputs(rows, aggregates, scenario, out_dir)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    for agg in aggregates:
        print(f"  {agg.method:16s} sweep={agg.sweep:10.4g} "
              f"ee={agg.mean_ee:12.6g} +/- {agg.stderr_ee:.3g} "
              f"rate={agg.mean_rate:10.6g} feas={agg.feas_rate:.0%}")
    return 0


def _cmd_run(args) -> int:
    scenario = _checked(lambda: _with_overrides(load_scenario(args.scenario), args))
    return _run_and_emit(scenario, args.out)


def _sweep_scenario(args) -> Scenario:
    pairs = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    pairs[_AXIS_KEYS[args.axis]] = args.values
    if args.methods:
        pairs["methods"] = args.methods
    return _with_overrides(scenario_from_pairs(pairs), args)


def _cmd_sweep(args) -> int:
    return _run_and_emit(_checked(lambda: _sweep_scenario(args)), args.out)


def _cmd_oracle_check(args) -> int:
    scenario = _checked(lambda: scenario_from_pairs({
        **_ORACLE_PAIRS, "sweep.n": args.sizes, "trials": str(args.instances),
        "master_seed": str(args.seed)}))
    rows = {(r.method, r.sweep, r.trial): r for r in run_scenario(scenario)}
    gaps = []
    false_infeasible = []
    above_bound = []
    for n in scenario.values:
        size_pairs = [(rows["lis-1bit", n, t], rows["exhaustive", n, t])
                      for t in range(scenario.trials)]
        size_false = [t for t, (alt, exh) in enumerate(size_pairs)
                      if exh.feasible and not alt.feasible]
        both_infeasible = sum(not (exh.feasible or alt.feasible) for alt, exh in size_pairs)
        size_gaps = [(exh.ee - alt.ee) / exh.ee for alt, exh in size_pairs
                     if alt.feasible and exh.feasible]
        gaps.extend(size_gaps)
        false_infeasible += [(n, t) for t in size_false]
        # EE° depends on the config alone, so one bound serves every trial of a size
        ee_bound = phase_free_bound(_config_at(scenario, n))[0]
        size_rows = [(method, t, rows[method, n, t])
                     for method in scenario.methods for t in range(scenario.trials)]
        on_bound = Counter(method for method, _, r in size_rows
                           if r.ee >= ee_bound * (1.0 - _ORACLE_TOLERANCE))
        above_bound += [(n, method, t, r.ee / ee_bound - 1.0) for method, t, r in size_rows
                        if r.ee > ee_bound * (1.0 + _ORACLE_TOLERANCE)]
        dropped = f"false-infeasible={len(size_false)} both-infeasible={both_infeasible}"
        at_bound = " ".join(f"{method}={on_bound[method]}" for method in scenario.methods)
        if size_gaps:
            print(f"n={int(n):3d}: instances={len(size_gaps)} {dropped} "
                  f"median gap={np.median(size_gaps):.4%} max gap={max(size_gaps):.4%} "
                  f"mean gap={np.mean(size_gaps):.4%} at bound: {at_bound}")
        else:
            print(f"n={int(n):3d}: no feasible paired instances, {dropped} at bound: {at_bound}")
    if not gaps:
        print("no paired results")
        return 1
    print(f"overall: median gap={np.median(gaps):.4%} max gap={max(gaps):.4%} "
          f"mean gap={np.mean(gaps):.4%}")
    status = 0
    if min(gaps) < -_ORACLE_TOLERANCE:
        print("ERROR: alternating solver exceeded the exhaustive oracle", file=sys.stderr)
        status = 1
    if false_infeasible:
        print(f"ERROR: {len(false_infeasible)} instances feasible for the exhaustive oracle "
              "but not for the alternating solver:", file=sys.stderr)
        for n, t in false_infeasible:
            print(f"  n={int(n)}, trial={t}", file=sys.stderr)
        status = 1
    if above_bound:
        print(f"ERROR: {len(above_bound)} rows exceed the phase-free efficiency bound:",
              file=sys.stderr)
        for n, method, t, excess in above_bound:
            print(f"  n={int(n)}, {method}, trial={t}: {excess:.3g} above", file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lisopt",
        description="Energy-efficiency studies for surface-assisted multi-user downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="quick sweep without a scenario file")
    sweep_p.add_argument("--axis", choices=sorted(_AXIS_KEYS), required=True,
                         help="sweep axis: p (budget dBm), n (elements), snr (dB)")
    sweep_p.add_argument("--values", required=True, help="comma-separated sweep values")
    sweep_p.add_argument("--methods", help="comma-separated methods")
    sweep_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="any scenario-file key, repeatable")
    sweep_p.set_defaults(func=_cmd_sweep)

    oracle_p = sub.add_parser("oracle-check",
                              help="paired alternating-vs-exhaustive gap on tiny instances")
    oracle_p.add_argument("--sizes", default="2,4,6,8", help="comma-separated element counts")
    oracle_p.add_argument("--instances", type=int, default=50)
    oracle_p.set_defaults(func=_cmd_oracle_check)

    for p in (run_p, sweep_p):
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--workers", type=int, default=None, help="forked cell processes")
    for p in (run_p, sweep_p, oracle_p):
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads '-15,-10' as a flag, not a value
        if argv[i] == "--values":
            argv[i:i + 2] = [f"--values={argv[i + 1]}"]
    args = parser.parse_args(argv)
    if args.command == "oracle-check" and args.seed is None:
        args.seed = 7
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
