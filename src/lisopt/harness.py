"""Batch experiment driver: scenario files, seeded sweeps, CSV/manifest output."""

from __future__ import annotations

import csv
import functools
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path

import numpy as np
import scipy

from .channels import sample_channels
from .config import (
    CONTINUOUS,
    Geometry,
    PathlossModel,
    PathlossParams,
    RelayParams,
    SystemConfig,
    dbm_to_watts,
)
from .model import SingularMatrixError, SolveReport
from .model import zf_precoder  # noqa: F401  not called here; perfbench's instrument() wraps it
from .phases import PhaseOptimizationError, RelaxedSolveOptions
from .power import InfeasibleError, NonConvergenceError
from .solver import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_MAX_OUTER,
    EnumerationCapError,
    alternating_ee_max,
    exhaustive_search,
    max_rate_power_fill,
    relay_baseline,
)

KNOWN_METHODS = ("lis-1bit", "lis-2bit", "lis-continuous", "exhaustive", "relay")
SWEEP_AXES = ("p_budget_dbm", "n", "snr_db")
RAW_COLUMNS = ("method", "sweep", "trial", "seed", "ee", "sum_rate",
               "total_power", "feasible", "iters", "wall_ms")
AGG_COLUMNS = ("method", "sweep", "mean_ee", "stderr_ee", "mean_rate",
               "stderr_rate", "feas_rate", "trials")

# The surface methods and the phase resolution each runs at; the others keep the base config's.
_RESOLUTIONS = {"lis-1bit": 1, "lis-2bit": 2, "lis-continuous": CONTINUOUS}

_METHOD_ERRORS = (InfeasibleError, NonConvergenceError, SingularMatrixError,
                  EnumerationCapError, PhaseOptimizationError)


@dataclass(frozen=True)
class ResultRow:
    """One (method, sweep value, trial) outcome. Infeasible rows carry ee = 0."""

    method: str
    sweep: float
    trial: int
    seed: int
    ee: float
    sum_rate: float
    total_power: float
    feasible: bool
    iters: int
    wall_ms: float


@dataclass(frozen=True)
class AggregateRow:
    """Mean and standard error per (method, sweep value), over feasible trials only."""

    method: str
    sweep: float
    mean_ee: float
    stderr_ee: float
    mean_rate: float
    stderr_rate: float
    feas_rate: float
    trials: int


@dataclass
class Scenario:
    """A sweep study: base configuration, axis, methods, and trial plan.

    power_rule selects how the reported operating point allocates power:
    "ee" keeps each method's efficiency-maximizing allocation, "max-rate"
    re-allocates with the budget-exhausting rate fill after the phase design.
    """

    config: SystemConfig
    axis: str
    values: tuple
    methods: tuple
    trials: int = 50
    master_seed: int = 0
    power_rule: str = "ee"
    r_min_rule: str | None = None
    phase_options: RelaxedSolveOptions = field(default_factory=RelaxedSolveOptions)
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    max_outer: int = DEFAULT_MAX_OUTER
    workers: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        self.values = values
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("at least one method is required")
        for method in methods:
            if method not in KNOWN_METHODS:
                raise ValueError(f"unknown method {method!r}; known: {KNOWN_METHODS}")
        self.methods = methods
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.power_rule not in ("ee", "max-rate"):
            raise ValueError(f"power_rule must be 'ee' or 'max-rate', got {self.power_rule!r}")
        if self.r_min_rule not in (None, "fig5"):
            raise ValueError(f"r_min_rule must be None or 'fig5', got {self.r_min_rule!r}")
        for method in methods:
            b = _RESOLUTIONS.get(method)
            if b is not None and b not in self.config.p_n_of_b:
                raise ValueError(f"{method} needs a p_n_of_b entry for {b!r}")
        if self.axis == "n":
            for v in values:
                if v != int(v) or int(v) < self.config.k:
                    raise ValueError(
                        f"n sweep values must be integers >= k={self.config.k}, got {v}"
                    )
        if "exhaustive" in methods:
            if self.config.b == CONTINUOUS:
                raise ValueError("exhaustive method needs a finite base resolution")
            ns = [int(v) for v in values] if self.axis == "n" else [self.config.n]
            for n in ns:
                count = (1 << self.config.b) ** n
                if count > self.enumeration_cap:
                    raise ValueError(
                        f"exhaustive at n={n} needs {count} candidates, "
                        f"cap is {self.enumeration_cap}"
                    )


def _config_at(scenario: Scenario, value: float) -> SystemConfig:
    cfg = scenario.config
    if scenario.axis == "p_budget_dbm":
        cfg = replace(cfg, p_budget=dbm_to_watts(value))
    elif scenario.axis == "n":
        cfg = replace(cfg, n=int(value))
    else:  # snr_db: hold sigma2 fixed, set the budget to SNR * sigma2
        cfg = replace(cfg, p_budget=cfg.sigma2 * 10.0 ** (value / 10.0))
    if scenario.r_min_rule == "fig5":
        snr = cfg.p_budget / cfg.sigma2
        cfg = replace(cfg, r_min=np.full(cfg.k, np.log2(1.0 + snr / (2.0 * cfg.k))))
    return cfg


def _method_config(cfg: SystemConfig, method: str) -> SystemConfig:
    return replace(cfg, b=_RESOLUTIONS[method]) if method in _RESOLUTIONS else cfg


def _dispatch(method: str, channels, cfg: SystemConfig, solver_seed: int,
              scenario: Scenario) -> SolveReport:
    if method in _RESOLUTIONS:
        report, _ = alternating_ee_max(
            channels, cfg, seed=solver_seed,
            options=scenario.phase_options, max_outer=scenario.max_outer,
        )
        return report
    if method == "exhaustive":
        return exhaustive_search(channels, cfg, enumeration_cap=scenario.enumeration_cap)
    return relay_baseline(channels, cfg)


def _run_cell(scenario: Scenario, sweep_index: int, value: float, trial: int) -> list:
    ss = np.random.SeedSequence(scenario.master_seed, spawn_key=(sweep_index, trial))
    channel_seed, solver_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
    cfg = _config_at(scenario, value)
    channels = sample_channels(cfg, channel_seed)
    rows = []
    for method in scenario.methods:
        mcfg = _method_config(cfg, method)
        t0 = time.perf_counter()
        try:
            report = _dispatch(method, channels, mcfg, solver_seed, scenario)
            if scenario.power_rule == "max-rate" and report.feasible:
                report = max_rate_power_fill(channels, report, mcfg)
        except _METHOD_ERRORS:
            report = SolveReport.infeasible(method)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rows.append(ResultRow(
            method=method, sweep=value, trial=trial, seed=channel_seed,
            ee=report.ee, sum_rate=report.sum_rate, total_power=report.total_power,
            feasible=report.feasible, iters=report.outer_iterations,
            wall_ms=wall_ms,
        ))
    return rows


def run_scenario(scenario: Scenario) -> list:
    """Run every (sweep value, trial) cell; all methods in a cell share channels.

    Child seeds derive deterministically from (master_seed, sweep index,
    trial index), so the full output is reproducible end to end. Rows come
    back ordered by (method order, sweep index, trial).

    With workers > 1, up to `workers` forked processes run one cell each; rows
    equal the serial run's except wall_ms. One cell, or a platform without
    fork, runs serially (Python 3.12+ warns when a threaded process forks).
    """
    cells = [(si, v, t) for si, v in enumerate(scenario.values)
             for t in range(scenario.trials)]
    run_cell = functools.partial(_run_cell, scenario)
    if scenario.workers > 1 and len(cells) > 1 and "fork" in get_all_start_methods():
        # Not spawn or forkserver: they re-import numpy and scipy, ~0.7 s a pool (fork ~20 ms).
        with ProcessPoolExecutor(min(scenario.workers, len(cells)), get_context("fork")) as pool:
            chunks = list(pool.map(run_cell, *zip(*cells)))
    else:
        chunks = [run_cell(*cell) for cell in cells]
    rows = [row for chunk in chunks for row in chunk]
    method_order = {m: i for i, m in enumerate(scenario.methods)}
    value_order = {v: i for i, v in enumerate(scenario.values)}
    rows.sort(key=lambda r: (method_order[r.method], value_order[r.sweep], r.trial))
    return rows


def aggregate(rows) -> list:
    """Per (method, sweep value) means over feasible trials, plus feasibility rate.

    Groups with no feasible trial are omitted with a warning; infeasible
    rows never contribute to the means.
    """
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.method, row.sweep), []).append(row)
    out = []
    for (method, sweep), group in groups.items():
        feasible = [r for r in group if r.feasible]
        if not feasible:
            warnings.warn(f"no feasible trials for {method} at sweep={sweep}; group omitted")
            continue
        ee = np.array([r.ee for r in feasible])
        rate = np.array([r.sum_rate for r in feasible])

        def stderr(x):
            return float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0

        out.append(AggregateRow(
            method=method, sweep=sweep,
            mean_ee=float(ee.mean()), stderr_ee=stderr(ee),
            mean_rate=float(rate.mean()), stderr_rate=stderr(rate),
            feas_rate=len(feasible) / len(group), trials=len(group),
        ))
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_dict(cfg: SystemConfig) -> dict:
    return {
        "m": cfg.m, "k": cfg.k, "n": cfg.n, "b": str(cfg.b),
        "p_budget_w": cfg.p_budget, "sigma2_w": cfg.sigma2,
        "mu": list(cfg.mu), "p_c_w": cfg.p_c,
        "p_n_of_b_w": {str(k): v for k, v in cfg.p_n_of_b.items()},
        "r_min": list(cfg.r_min),
        "geometry": {"bs": list(cfg.geometry.bs), "lis": list(cfg.geometry.lis),
                     "user_box": list(cfg.geometry.user_box)},
        "pathloss": {
            link: {"exponent": p.exponent, "ref_loss_db": p.ref_loss_db, "d0": p.d0}
            for link, p in (("bs_user", cfg.pathloss.bs_user),
                            ("bs_lis", cfg.pathloss.bs_lis),
                            ("lis_user", cfg.pathloss.lis_user))
        },
        "relay": {"alpha": cfg.relay.alpha, "tx_power_w": cfg.relay.tx_power_w},
        "epsilon": cfg.epsilon,
    }


def emit_outputs(rows, aggregates, scenario: Scenario, out_dir) -> dict:
    """Write rows.csv, aggregates.csv, curves.csv, and manifest.json.

    Column orders are fixed (RAW_COLUMNS / AGG_COLUMNS); floats are written
    with shortest round-trip formatting so re-runs are byte-stable except
    for the wall_ms column. curves.csv is plot-ready long format with one
    (metric, method) curve per group.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("rows", "aggregates", "curves")}
    paths["manifest"] = out / "manifest.json"

    with open(paths["rows"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for r in rows:
            writer.writerow([_fmt(getattr(r, col)) for col in RAW_COLUMNS])

    with open(paths["aggregates"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_COLUMNS)
        for a in aggregates:
            writer.writerow([_fmt(getattr(a, col)) for col in AGG_COLUMNS])

    with open(paths["curves"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "method", "sweep", "value", "stderr"])
        for metric, mean_col, err_col in (("ee", "mean_ee", "stderr_ee"),
                                          ("sum_rate", "mean_rate", "stderr_rate")):
            for a in aggregates:
                writer.writerow([metric, a.method, _fmt(a.sweep),
                                 _fmt(getattr(a, mean_col)), _fmt(getattr(a, err_col))])

    from . import __version__

    manifest = {
        "package": {"name": "lisopt", "version": __version__,
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "scenario": {
            "axis": scenario.axis, "values": list(scenario.values),
            "methods": list(scenario.methods), "trials": scenario.trials,
            "master_seed": scenario.master_seed, "power_rule": scenario.power_rule,
            "r_min_rule": scenario.r_min_rule, "workers": scenario.workers,
            "enumeration_cap": scenario.enumeration_cap, "max_outer": scenario.max_outer,
            "config": _config_dict(scenario.config),
        },
        "seed_derivation": "SeedSequence(master_seed, spawn_key=(sweep_index, trial_index))",
        "notes": [
            "Pathloss is a configurable log-distance model; the defaults are not literature claims.",
            "Relay power accounting substitutes the relay transmit power for the per-element surface draw.",
            "The max-rate power rule substitutes a budget-exhausting rate fill for the reference relay allocation.",
            "The 100 dBm default circuit power is kept verbatim from the reference setup and is likely a typo there; override p_c_dbm for realistic studies.",
            "Infeasible trials carry ee = 0 in rows.csv and are excluded from aggregate means; feas_rate preserves the information.",
        ],
        "files": {k: v.name for k, v in paths.items()},
    }
    with open(paths["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


# ---------------------------------------------------------------------------
# Scenario files: flat "key = value" text format (see README for the key list)

_PATHLOSS_LINKS = ("bs_user", "bs_lis", "lis_user")


def _parse_pairs(text: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"line {lineno}: empty key or value in {raw!r}")
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _floats(value: str) -> tuple:
    return tuple(float(part) for part in value.split(","))


def scenario_from_pairs(pairs: dict) -> Scenario:
    """Build a Scenario from flat key-value strings (the scenario-file schema)."""
    pairs = dict(pairs)

    def take(key, default=None):
        return pairs.pop(key, default)

    m = int(take("m", 4))
    k = int(take("k", 4))
    n = int(take("n", 8))
    b_raw = take("b", "1")
    b = CONTINUOUS if b_raw == CONTINUOUS else int(b_raw)
    sigma2 = dbm_to_watts(float(take("sigma2_dbm", -100.0)))
    p_budget = dbm_to_watts(float(take("p_budget_dbm", 0.0)))
    mu_raw = take("mu", "1.1")
    mu = _floats(mu_raw) if "," in mu_raw else float(mu_raw)
    p_c = dbm_to_watts(float(take("p_c_dbm", 100.0)))
    p_n_of_b = {
        1: dbm_to_watts(float(take("p_n_dbm.1", 5.0))),
        2: dbm_to_watts(float(take("p_n_dbm.2", 15.0))),
        CONTINUOUS: dbm_to_watts(float(take("p_n_dbm.continuous", 45.0))),
    }
    r_min_raw = take("r_min", "0")
    r_min = _floats(r_min_raw) if "," in r_min_raw else float(r_min_raw)

    geometry = Geometry(
        bs=_floats(take("geometry.bs", "0,0")),
        lis=_floats(take("geometry.lis", "100,100")),
        user_box=_floats(take("geometry.user_box", "95,105,85,95")),
    )
    defaults = PathlossModel()
    links = {}
    for link in _PATHLOSS_LINKS:
        base = defaults.for_link(link)
        links[link] = PathlossParams(
            exponent=float(take(f"pathloss.{link}.exponent", base.exponent)),
            ref_loss_db=float(take(f"pathloss.{link}.ref_loss_db", base.ref_loss_db)),
            d0=float(take(f"pathloss.{link}.d0", base.d0)),
        )
    pathloss = PathlossModel(**links)
    relay = RelayParams(
        alpha=float(take("relay.alpha", 0.3)),
        tx_power_w=dbm_to_watts(float(take("relay.tx_dbm", 60.0))),
    )
    epsilon = float(take("epsilon", 0.01))

    config = SystemConfig(
        m=m, k=k, n=n, b=b, p_budget=p_budget, sigma2=sigma2, mu=mu, p_c=p_c,
        p_n_of_b=p_n_of_b, r_min=r_min, geometry=geometry, pathloss=pathloss,
        relay=relay, epsilon=epsilon,
    )

    sweeps = {axis: take(f"sweep.{axis}") for axis in SWEEP_AXES}
    present = [axis for axis, v in sweeps.items() if v is not None]
    if len(present) != 1:
        raise ValueError(f"exactly one sweep.* key is required, found {present or 'none'}")
    axis = present[0]
    values = _floats(sweeps[axis])

    methods_raw = take("methods")
    if methods_raw is None:
        raise ValueError("scenario needs a 'methods' key")
    methods = tuple(part.strip() for part in methods_raw.split(","))

    base_options = RelaxedSolveOptions()
    phase_options = RelaxedSolveOptions(
        max_iterations=int(take("phase.max_iterations", base_options.max_iterations)),
        gradient_tolerance=float(take("phase.gradient_tolerance", base_options.gradient_tolerance)),
        step_tolerance=float(take("phase.step_tolerance", base_options.step_tolerance)),
        num_restarts=int(take("phase.num_restarts", base_options.num_restarts)),
    )

    scenario = Scenario(
        config=config, axis=axis, values=values, methods=methods,
        trials=int(take("trials", 50)),
        master_seed=int(take("master_seed", 0)),
        power_rule=take("power_rule", "ee"),
        r_min_rule=take("r_min_rule"),
        phase_options=phase_options,
        enumeration_cap=int(take("caps.enumeration", DEFAULT_ENUMERATION_CAP)),
        max_outer=int(take("caps.outer_iterations", DEFAULT_MAX_OUTER)),
        workers=int(take("workers", 1)),
    )
    if pairs:
        raise ValueError(f"unknown scenario keys: {sorted(pairs)}")
    return scenario


def load_scenario(path) -> Scenario:
    """Parse a scenario file (flat 'key = value' lines, '#' comments)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_pairs(_parse_pairs(text))
