"""Batch experiment driver: scenario files, seeded sweeps, CSV/manifest output."""

from __future__ import annotations

import csv
import functools
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, replace
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path

import numpy as np

from .channels import sample_channels
from .config import (
    CONTINUOUS,
    Geometry,
    PathlossModel,
    RelayParams,
    SystemConfig,
    _default_p_n_map,
    dbm_to_watts,
)
from .model import PhaseConfig, SingularMatrixError, SolveReport
from .model import zf_precoder  # noqa: F401  not called here; perfbench's instrument() wraps it
from .phases import PhaseOptimizationError, RelaxedSolveOptions
from .power import InfeasibleError, NonConvergenceError
from .solver import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_MAX_OUTER,
    EnumerationCapError,
    alternating_ee_max,
    enumeration_count,
    exhaustive_search,
    first_phase_steps,
    max_rate_power_fill,
    relay_baseline,
    resolution_tag,
)

# The surface methods and the phase resolution each runs at; the others keep the base config's.
_RESOLUTIONS = {resolution_tag(b): b for b in _default_p_n_map()}
KNOWN_METHODS = (*_RESOLUTIONS, "exhaustive", "relay")
SWEEP_AXES = ("p_budget_dbm", "n", "snr_db")

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


RAW_COLUMNS = tuple(f.name for f in fields(ResultRow))
AGG_COLUMNS = tuple(f.name for f in fields(AggregateRow))


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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
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
        ns = [int(v) for v in values if np.isfinite(v)] if self.axis == "n" else [self.config.n]
        if self.axis == "n" and (ns != list(values) or min(ns) < self.config.k):
            raise ValueError(f"n sweep values must be integers, need n >= k={self.config.k}, "
                             f"got {values}")
        if "exhaustive" in methods:
            for n in ns:
                enumeration_count(n, self.config.b)
        for v in values:  # SystemConfig's checks on every swept config, before any cell runs
            _config_at(self, v)


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
              scenario: Scenario, first_step: PhaseConfig | None) -> SolveReport:
    if method in _RESOLUTIONS:
        return alternating_ee_max(channels, cfg, seed=solver_seed, options=scenario.phase_options,
                                  first_step=first_step)[0]
    if method == "exhaustive":
        return exhaustive_search(channels, cfg)
    return relay_baseline(channels, cfg)


def _tasks(scenario: Scenario) -> list:
    """The run's cells (sweep index, value, trial) in chunks of consecutive cells with equal N.

    A p or snr sweep is one group and an n sweep one group per value; each
    group is split into at most `workers` chunks of near-equal size.
    """
    cells = [(si, v, t) for si, v in enumerate(scenario.values) for t in range(scenario.trials)]
    size = scenario.trials if scenario.axis == "n" else len(cells)
    groups = [cells[i:i + size] for i in range(0, len(cells), size)]
    w = scenario.workers
    return [chunk for group in groups for i in range(w)
            if (chunk := group[len(group) * i // w:len(group) * (i + 1) // w])]


def _run_task(scenario: Scenario, cells: list) -> list:
    """The rows of a chunk of equal-N cells; their first phase steps are solved in one batch.

    The batch's wall time is split evenly over the cells and counted in each
    cell's first surface row.
    """
    draws = []  # per cell: first_phase_steps' (channels, config, seed), then the channel seed
    for si, value, trial in cells:
        ss = np.random.SeedSequence(scenario.master_seed, spawn_key=(si, trial))
        channel_seed, solver_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
        cfg = _config_at(scenario, value)
        draws.append((sample_channels(cfg, channel_seed), cfg, solver_seed, channel_seed))
    steps, batch_ms = [None] * len(cells), 0.0
    if any(method in _RESOLUTIONS for method in scenario.methods):
        t0 = time.perf_counter()
        steps = first_phase_steps([draw[:3] for draw in draws], scenario.phase_options)
        batch_ms = (time.perf_counter() - t0) * 1e3 / len(cells)
    rows = []
    for (_, value, trial), (channels, cfg, solver_seed, channel_seed), first_step in zip(
            cells, draws, steps):
        share = batch_ms  # carried by the cell's first surface row
        for method in scenario.methods:
            mcfg = _method_config(cfg, method)
            t0 = time.perf_counter()
            try:
                report = _dispatch(method, channels, mcfg, solver_seed, scenario, first_step)
                if scenario.power_rule == "max-rate" and report.feasible:
                    report = max_rate_power_fill(channels, report, mcfg)
            except _METHOD_ERRORS:
                report = SolveReport.infeasible(method)
            wall_ms = (time.perf_counter() - t0) * 1e3
            if method in _RESOLUTIONS:
                wall_ms, share = wall_ms + share, 0.0
            rows.append(ResultRow(
                method=method, sweep=value, trial=trial, seed=channel_seed,
                ee=report.ee, sum_rate=report.sum_rate, total_power=report.total_power,
                feasible=report.feasible, iters=report.outer_iterations,
                wall_ms=wall_ms,
            ))
    return rows


_pool = None  # (process count, executor) of the kept workers; see run_scenario


def _close_workers() -> None:
    """Join the kept workers and drop them; the next parallel run forks new ones."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def _forget_workers() -> None:
    global _pool
    _pool = None  # a forked child's copy of the pool is its parent's, not its own


os.register_at_fork(after_in_child=_forget_workers)


def _workers(count: int) -> ProcessPoolExecutor:
    global _pool
    if _pool is None or _pool[0] != count:
        _close_workers()  # so that no manager thread of ours runs while the new pool forks
        _pool = (count, ProcessPoolExecutor(count, get_context("fork")))
    return _pool[1]


def run_scenario(scenario: Scenario) -> list:
    """Run every (sweep value, trial) cell; all methods in a cell share channels.

    Child seeds derive deterministically from (master_seed, sweep index,
    trial index), so the full output is reproducible end to end. Rows come
    back ordered by (method order, sweep index, trial). The cells run in
    tasks, chunks of consecutive cells with equal N (see _tasks): all cells
    of a p or snr sweep form one group, an n sweep one group per value, and
    each group is split into at most `workers` chunks. A task solves the
    first phase steps of all its cells in one first_phase_steps batch (if a
    surface method runs), splits that batch's time evenly over the cells
    and counts each share in the cell's first surface row's wall_ms. Every
    surface row starts from its cell's step (a finite-b row quantizes it and
    searches the grid from there; a continuous row starts its alternating
    loop there). Every row equals the one its method gives when run alone.

    With workers > 1, min(workers, tasks) forked processes run one task each;
    rows equal the serial run's except wall_ms. One task, or a platform
    without fork, runs serially (Python 3.12+ warns when a threaded process
    forks). The processes are forked at the first parallel run and kept for
    later runs that need the same count; a run that needs another count joins
    them and forks new ones. So the workers run the code as it was at their
    fork, and a patch made later does not reach them. While they live, this
    process has one more thread, which a caller's own fork sees; a forked
    child starts with no workers. A run that finds a worker dead raises
    BrokenProcessPool, and the next run forks new ones. concurrent.futures
    joins the workers at interpreter exit. A process that ends through
    os._exit, as a multiprocessing child does, skips that hook: it calls
    _close_workers() first, or it waits on them forever.
    """
    tasks = _tasks(scenario)
    run_task = functools.partial(_run_task, scenario)
    if scenario.workers > 1 and len(tasks) > 1 and "fork" in get_all_start_methods():
        # Not spawn or forkserver: they re-import numpy and lisopt, 0.4-0.7 s a pool. Kept across
        # runs: a fresh pool added 35-48 ms to each 8-cell elements_fanout.scn run (2 cores).
        try:
            chunks = list(_workers(min(scenario.workers, len(tasks))).map(run_task, tasks))
        except BrokenProcessPool:
            _close_workers()
            raise
    else:
        chunks = [run_task(task) for task in tasks]
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


def _jsonable(value):
    """value with dict keys as str, tuples and arrays as lists, and numpy scalars as Python's."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_jsonable(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _write_csv(path, header, lines) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in line] for line in lines)


def emit_outputs(rows, aggregates, scenario: Scenario, out_dir) -> dict:
    """Write rows.csv, aggregates.csv, curves.csv, and manifest.json.

    Column orders are the field orders of ResultRow and AggregateRow; floats
    are written with shortest round-trip formatting so re-runs are
    byte-stable except for the wall_ms column. curves.csv is plot-ready long
    format with one (metric, method) curve per group. The manifest echoes
    every Scenario field, in linear units, under its field name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("rows", "aggregates", "curves")}
    paths["manifest"] = out / "manifest.json"
    _write_csv(paths["rows"], RAW_COLUMNS, ([getattr(r, c) for c in RAW_COLUMNS] for r in rows))
    _write_csv(paths["aggregates"], AGG_COLUMNS,
               ([getattr(a, c) for c in AGG_COLUMNS] for a in aggregates))
    _write_csv(paths["curves"], ("metric", "method", "sweep", "value", "stderr"),
               ((metric, a.method, a.sweep, getattr(a, mean_col), getattr(a, err_col))
                for metric, mean_col, err_col in (("ee", "mean_ee", "stderr_ee"),
                                                  ("sum_rate", "mean_rate", "stderr_rate"))
                for a in aggregates))

    from . import __version__

    manifest = {
        "package": {"name": "lisopt", "version": __version__,
                    "numpy": np.__version__},
        "scenario": {**_jsonable(asdict(scenario)), "enumeration_cap": DEFAULT_ENUMERATION_CAP,
                     "max_outer": DEFAULT_MAX_OUTER},
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


def _scalar_or_floats(value: str):
    return _floats(value) if "," in value else float(value)


def _dbm(value: str) -> float:
    return dbm_to_watts(float(value))


def scenario_from_pairs(pairs: dict) -> Scenario:
    """Build a Scenario from flat key-value strings (the scenario-file schema).

    A key the pairs leave out is not passed on, so each default lives only
    on the dataclass that owns the field. Only the six SystemConfig inputs
    without a dataclass default get one here: m = k = 4, n = 8, b = 1, a
    0 dBm budget and -100 dBm noise.
    """
    pairs = dict(pairs)

    def take(key, default=None):
        return pairs.pop(key, default)

    def given(parse, **keys) -> dict:
        # {field: parse(value)} for each field whose key the pairs set
        return {name: parse(pairs.pop(key)) for name, key in keys.items() if key in pairs}

    b_raw = take("b", "1")
    config_fields = {
        **given(_scalar_or_floats, mu="mu", r_min="r_min"),
        **given(_dbm, p_c="p_c_dbm"),
        **given(float, epsilon="epsilon"),
    }
    p_n_of_b = _default_p_n_map()
    p_n_given = {b: _dbm(pairs.pop(f"p_n_dbm.{b}")) for b in p_n_of_b if f"p_n_dbm.{b}" in pairs}
    if p_n_given:
        config_fields["p_n_of_b"] = {**p_n_of_b, **p_n_given}
    defaults = PathlossModel()
    pathloss = PathlossModel(**{
        link: replace(defaults.for_link(link), **given(
            float, exponent=f"pathloss.{link}.exponent",
            ref_loss_db=f"pathloss.{link}.ref_loss_db", d0=f"pathloss.{link}.d0"))
        for link in (f.name for f in fields(PathlossModel))
    })
    config = SystemConfig(
        m=int(take("m", 4)), k=int(take("k", 4)), n=int(take("n", 8)),
        b=CONTINUOUS if b_raw == CONTINUOUS else int(b_raw),
        p_budget=_dbm(take("p_budget_dbm", "0")), sigma2=_dbm(take("sigma2_dbm", "-100")),
        geometry=Geometry(**given(_floats, bs="geometry.bs", lis="geometry.lis",
                                  user_box="geometry.user_box")),
        pathloss=pathloss,
        relay=RelayParams(**given(float, alpha="relay.alpha"),
                          **given(_dbm, tx_power_w="relay.tx_dbm")),
        **config_fields,
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

    phase_options = RelaxedSolveOptions(**given(
        int, max_iterations="phase.max_iterations", num_restarts="phase.num_restarts"))
    scenario = Scenario(
        config=config, axis=axis, values=values, methods=methods, phase_options=phase_options,
        **given(int, trials="trials", master_seed="master_seed", workers="workers"),
        **given(str, power_rule="power_rule", r_min_rule="r_min_rule"),
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
