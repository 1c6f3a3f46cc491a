import csv
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import types
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, is_dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    RelaxedSolveOptions,
    ResultRow,
    Scenario,
    SolveReport,
    SystemConfig,
    aggregate,
    dbm_to_watts,
    emit_outputs,
    harness,
    load_scenario,
    run_scenario,
    scenario_from_pairs,
    solver,
)
from lisopt import cli
from lisopt.channels import sample_channels
from lisopt.cli import main as cli_main
from lisopt.harness import AGG_COLUMNS, KNOWN_METHODS, RAW_COLUMNS, _config_at
from lisopt.model import SingularMatrixError
from lisopt.power import NonConvergenceError
from lisopt.solver import AlternatingTrace
from util import make_config, strip_wall_column

REPO = Path(__file__).resolve().parent.parent
SCENARIO_FILES = sorted(REPO.glob("scenarios/*.scn")) + sorted(REPO.glob("perfbench/scenarios/*.scn"))

SCENARIO_TEXT = """
# tiny round-trip scenario
m = 2
k = 2
n = 4
b = 1
sigma2_dbm = -10
p_c_dbm = 0
p_n_dbm.1 = -5
p_n_dbm.2 = 5
p_n_dbm.continuous = 15
pathloss.bs_user.exponent = 0
pathloss.bs_user.ref_loss_db = 10
pathloss.bs_lis.exponent = 0
pathloss.bs_lis.ref_loss_db = 0
pathloss.lis_user.exponent = 0
pathloss.lis_user.ref_loss_db = 0
sweep.p_budget_dbm = -15,-10
methods = lis-1bit,relay
trials = 3
master_seed = 11
epsilon = 0.01
phase.num_restarts = 2
phase.max_iterations = 40
"""


def tiny_scenario(**overrides):
    cfg = make_config(k=2, m=2, n=4, b=1)
    fields = dict(config=cfg, axis="p_budget_dbm", values=(-15.0, -10.0),
                  methods=("lis-1bit", "relay"), trials=3, master_seed=11)
    fields.update(overrides)
    return Scenario(**fields)


# ----------------------------------------------------------------- scenarios

def test_scenario_validation():
    with pytest.raises(ValueError):
        tiny_scenario(values=())
    with pytest.raises(ValueError):
        tiny_scenario(values=(0.0, 0.0))
    with pytest.raises(ValueError):
        tiny_scenario(values=(1.0, -1.0))
    with pytest.raises(ValueError):
        tiny_scenario(trials=0)
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        tiny_scenario(master_seed=-1)
    with pytest.raises(ValueError):
        tiny_scenario(methods=("lis-3bit",))
    with pytest.raises(ValueError, match="method 'relay' is repeated"):
        tiny_scenario(methods=("relay", "lis-1bit", "relay"))
    with pytest.raises(ValueError):
        tiny_scenario(axis="frequency")
    with pytest.raises(ValueError):
        tiny_scenario(power_rule="max")


def test_scenario_exhaustive_cap_guard():
    cfg = make_config(k=2, m=2, n=24, b=1)
    with pytest.raises(ValueError, match="cap"):
        Scenario(config=cfg, axis="p_budget_dbm", values=(0.0,),
                 methods=("exhaustive",), trials=1)


def test_scenario_element_sweep_value_guard():
    with pytest.raises(ValueError, match="integers"):
        tiny_scenario(axis="n", values=(1.0, 4.0))  # below k
    with pytest.raises(ValueError, match="integers"):
        tiny_scenario(axis="n", values=(2.5, 4.0))


def test_scenario_method_resolution_entry_guard():
    cfg = make_config(k=2, m=2, n=4, b=1)
    cfg.p_n_of_b = {1: 1e-4}  # bypass construction-time validation
    with pytest.raises(ValueError, match="lis-2bit"):
        Scenario(config=cfg, axis="p_budget_dbm", values=(0.0,),
                 methods=("lis-2bit",), trials=1)


def test_config_at_sweeps():
    sc = tiny_scenario()
    cfg = _config_at(sc, -10.0)
    assert cfg.p_budget == pytest.approx(1e-4)

    sc_n = tiny_scenario(axis="n", values=(4.0, 6.0))
    assert _config_at(sc_n, 6.0).n == 6

    sc_snr = tiny_scenario(axis="snr_db", values=(0.0, 10.0))
    cfg = _config_at(sc_snr, 10.0)
    assert cfg.p_budget == pytest.approx(10.0 * cfg.sigma2, rel=1e-12)


def test_config_at_snr_qos_rule():
    sc = tiny_scenario(axis="snr_db", values=(0.0, 13.0), r_min_rule="fig5")
    cfg = _config_at(sc, 13.0)
    snr = cfg.p_budget / cfg.sigma2
    expected = np.log2(1.0 + snr / (2.0 * cfg.k))
    assert np.allclose(cfg.r_min, expected, rtol=1e-12)


# ----------------------------------------------------------------- execution

def test_run_scenario_row_cardinality():
    sc = tiny_scenario(values=(-10.0,), methods=("relay",), trials=1)
    rows = run_scenario(sc)
    assert len(rows) == 1
    assert rows[0].method == "relay"
    assert rows[0].trial == 0


def test_run_scenario_deterministic_and_paired():
    sc = tiny_scenario()
    rows_a = run_scenario(sc)
    rows_b = run_scenario(sc)
    assert len(rows_a) == 2 * 2 * 3
    for a, b in zip(rows_a, rows_b):
        assert (a.method, a.sweep, a.trial, a.seed) == (b.method, b.sweep, b.trial, b.seed)
        assert (a.ee, a.sum_rate, a.total_power, a.feasible) == (b.ee, b.sum_rate, b.total_power, b.feasible)
    # paired design: same channel seed for every method in a cell
    by_cell = {}
    for r in rows_a:
        by_cell.setdefault((r.sweep, r.trial), set()).add(r.seed)
    assert all(len(seeds) == 1 for seeds in by_cell.values())


def comparable(rows):
    """Rows with wall_ms zeroed, so that == compares every other field."""
    return [replace(r, wall_ms=0.0) for r in rows]


def test_run_scenario_workers_match_serial():
    methods = ("lis-1bit", "lis-continuous", "exhaustive", "relay")
    for power_rule, worker_counts in (("ee", (2, 3)), ("max-rate", (2,))):
        sc = tiny_scenario(methods=methods, power_rule=power_rule)
        serial = comparable(run_scenario(sc))
        assert len(serial) == len(methods) * 2 * 3
        assert {r.method for r in serial if r.feasible} == set(methods)
        for workers in worker_counts:
            parallel = comparable(run_scenario(replace(sc, workers=workers)))
            assert len(parallel) == len(serial)
            assert parallel == serial, (power_rule, workers)


@pytest.fixture
def fresh_workers():
    """Fork the test's workers after its patches, and keep them from later tests."""
    harness._close_workers()
    yield
    harness._close_workers()


@pytest.mark.parametrize("name, error", [
    ("sample_channels", RuntimeError("channel draw failed")),
    ("alternating_ee_max", SingularMatrixError(0.0, 1e-12)),
], ids=["sample_channels", "alternating_ee_max"])
def test_error_in_worker_propagates(fresh_workers, monkeypatch, name, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, name, broken)
    with pytest.raises(type(error), match=re.escape(str(error))):
        run_scenario(tiny_scenario(workers=2))


def record_worker_pids(monkeypatch, path):
    """Append the pid of the process that draws each cell's channels to path."""
    draw = harness.sample_channels

    def recording(cfg, seed):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return draw(cfg, seed)

    monkeypatch.setattr(harness, "sample_channels", recording)


def taken_pids(path):
    """The pids recorded since the last call, as ints; the file starts empty again."""
    pids = {int(pid) for pid in path.read_text().split()}
    path.unlink()
    assert pids and os.getpid() not in pids
    return pids


def is_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_parallel_runs_reuse_the_forked_workers(fresh_workers, monkeypatch, tmp_path):
    pids = tmp_path / "pids"
    record_worker_pids(monkeypatch, pids)
    sc = tiny_scenario(workers=2)
    serial = comparable(run_scenario(replace(sc, workers=1)))
    pids.unlink()
    assert comparable(run_scenario(sc)) == serial
    first = taken_pids(pids)
    assert comparable(run_scenario(sc)) == serial
    assert taken_pids(pids) <= first


def test_another_process_count_joins_the_kept_workers(fresh_workers, monkeypatch, tmp_path):
    pids = tmp_path / "pids"
    record_worker_pids(monkeypatch, pids)
    sc = tiny_scenario()
    serial = comparable(run_scenario(sc))
    pids.unlink()
    assert comparable(run_scenario(replace(sc, workers=2))) == serial
    first = taken_pids(pids)
    assert all(is_alive(pid) for pid in first)
    assert comparable(run_scenario(replace(sc, workers=3))) == serial
    assert taken_pids(pids).isdisjoint(first)
    assert not any(is_alive(pid) for pid in first)


def test_dead_worker_raises_and_the_next_run_forks_new_workers(fresh_workers, monkeypatch,
                                                                tmp_path):
    parent = os.getpid()

    def dying_draw(cfg, seed):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("the channels were drawn in the test process")

    monkeypatch.setattr(harness, "sample_channels", dying_draw)
    sc = tiny_scenario(workers=2)
    with pytest.raises(BrokenProcessPool):
        run_scenario(sc)
    monkeypatch.undo()
    pids = tmp_path / "pids"
    record_worker_pids(monkeypatch, pids)
    serial = comparable(run_scenario(replace(sc, workers=1)))
    pids.unlink()
    assert comparable(run_scenario(sc)) == serial
    renewed = taken_pids(pids)
    assert comparable(run_scenario(sc)) == serial
    assert taken_pids(pids) <= renewed


def test_forked_child_forks_workers_of_its_own(fresh_workers):
    sc = tiny_scenario(workers=2)
    serial = comparable(run_scenario(replace(sc, workers=1)))
    run_scenario(sc)  # this process now keeps two workers

    def child():
        try:
            assert comparable(run_scenario(sc)) == serial
        finally:
            harness._close_workers()  # a multiprocessing child leaves through os._exit

    process = get_context("fork").Process(target=child)
    process.start()
    process.join(30)
    if process.is_alive():
        process.kill()
        process.join()
    assert process.exitcode == 0


def test_forked_child_exits_without_closing_its_workers(fresh_workers, monkeypatch, tmp_path):
    # a multiprocessing child leaves through os._exit, after its exit hook joins the
    # child's own processes; the kept workers are closed before that join
    sc = tiny_scenario(workers=2)
    serial = comparable(run_scenario(replace(sc, workers=1)))
    pids = tmp_path / "pids"
    record_worker_pids(monkeypatch, pids)

    def child():
        assert comparable(run_scenario(sc)) == serial  # forks two workers and keeps them

    process = get_context("fork").Process(target=child)
    process.start()
    process.join(30)
    hung = process.is_alive()
    if hung:
        process.kill()
        process.join()
    left = [pid for pid in taken_pids(pids) if is_alive(pid)]
    for pid in left:  # a hung child leaves its workers waiting for work
        os.kill(pid, signal.SIGKILL)
    assert not hung and process.exitcode == 0 and not left


def test_exiting_interpreter_leaves_no_worker_alive(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(SCENARIO_TEXT)
    pids = tmp_path / "pids"
    code = textwrap.dedent(f"""
        import os
        from dataclasses import replace
        from lisopt import harness, load_scenario, run_scenario
        draw = harness.sample_channels

        def recording(cfg, seed):
            with open({str(pids)!r}, "a") as fh:
                fh.write(f"{{os.getpid()}}\\n")
            return draw(cfg, seed)

        harness.sample_channels = recording
        scenario = replace(load_scenario({str(path)!r}), workers=2)
        run_scenario(scenario)
        run_scenario(scenario)
    """)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    left = [pid for pid in taken_pids(pids) if is_alive(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left


@pytest.fixture
def no_process_pool(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("run_scenario started a process pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", NoPool)


def test_one_cell_with_workers_starts_no_process(no_process_pool):
    sc = tiny_scenario(values=(-10.0,), trials=1, workers=2)
    rows = comparable(run_scenario(sc))
    assert len(rows) == 2
    assert rows == comparable(run_scenario(replace(sc, workers=1)))


def test_workers_run_serially_without_fork(no_process_pool, monkeypatch):
    monkeypatch.setattr(harness, "get_all_start_methods", lambda: ["spawn"])
    sc = tiny_scenario(workers=2)
    assert comparable(run_scenario(sc)) == comparable(run_scenario(replace(sc, workers=1)))


SURFACE_METHODS = ("lis-1bit", "lis-2bit", "lis-continuous")


def rows_csv(scenario, out_dir):
    """run_scenario's rows as written to rows.csv, without the wall_ms column."""
    rows = run_scenario(scenario)
    emit_outputs(rows, aggregate(rows), scenario, out_dir)
    return strip_wall_column(Path(out_dir) / "rows.csv")


@pytest.mark.parametrize("power_rule", ["ee", "max-rate"])
def test_rows_do_not_depend_on_the_other_methods_of_the_cell(power_rule, tmp_path):
    sc = tiny_scenario(methods=(*SURFACE_METHODS, "relay"), power_rule=power_rule)
    together = rows_csv(sc, tmp_path / "together")
    alone = []
    for method in sc.methods:
        header, *rows = rows_csv(replace(sc, methods=(method,)), tmp_path / method)
        alone += rows
    assert together == [header, *alone]
    assert {row[0] for row in alone} == set(sc.methods)


def counted_first_steps(monkeypatch, solve):
    """Route first_phase_steps, the harness's batch and a lone solve's, through solve.

    The list gets one entry per call: the solver seeds of its cells.
    """
    calls = []

    def counting(cells, options=None):
        calls.append([seed for _, _, seed in cells])
        return solve(cells, options)

    monkeypatch.setattr(harness, "first_phase_steps", counting)
    monkeypatch.setattr(solver, "first_phase_steps", counting)
    return calls


def test_a_cell_solves_its_first_phase_step_once(monkeypatch):
    calls = counted_first_steps(monkeypatch, solver.first_phase_steps)
    sc = tiny_scenario(methods=(*SURFACE_METHODS, "relay"), values=(-10.0,), trials=1)
    run_scenario(sc)
    together = len(calls)
    calls.clear()
    for method in sc.methods:
        run_scenario(replace(sc, methods=(method,)))
    assert len(calls) - together == len(SURFACE_METHODS) - 1


def test_failed_first_phase_step_gives_every_surface_row_the_infeasible_row(monkeypatch):
    def rank_deficient(cells, options=None):
        return [None] * len(cells)

    calls = counted_first_steps(monkeypatch, rank_deficient)
    solves, loops = [], []
    alternating, alternate = harness.alternating_ee_max, harness.alternate_cells

    def recording(*args, **kwargs):
        solves.append(alternating(*args, **kwargs))
        return solves[-1]

    def recording_loops(cells, options=None, terms=None):
        loops.append(alternate(cells, options, terms))
        return loops[-1]

    monkeypatch.setattr(harness, "alternating_ee_max", recording)
    monkeypatch.setattr(harness, "alternate_cells", recording_loops)
    sc = tiny_scenario(methods=(*SURFACE_METHODS, "relay"), values=(-10.0,), trials=2)
    rows = run_scenario(sc)
    surface = [r for r in rows if r.method in SURFACE_METHODS]
    assert len(surface) == 6
    assert all(not r.feasible and (r.ee, r.sum_rate, r.iters) == (0.0, 0.0, 0) for r in surface)
    assert all(r.feasible for r in rows if r.method == "relay")
    # the run's one batch failed both cells, and each surface row took that failure unsolved:
    # one alternating_ee_max solve per finite-b row, one lockstep loop for the continuous rows
    assert len(calls) == 1 and len(calls[0]) == 2
    assert len(solves) == 4
    assert all(trace == AlternatingTrace((), "infeasible", None) for _, trace in solves)
    assert len(loops) == 1 and len(loops[0]) == 2
    assert all(trace == AlternatingTrace((), "infeasible", None) for trace, _ in loops[0])


@pytest.mark.parametrize("power_rule", ["ee", "max-rate"])
def test_each_row_reports_what_its_one_solve_row_call_returns(power_rule, monkeypatch):
    # under max-rate the row holds the fill of that report, from the task's fill batch
    calls = []
    solve_row = harness._solve_row

    def spying(channels, cfg, method, *args):
        calls.append((method, cfg, channels, solve_row(channels, cfg, method, *args)))
        return calls[-1][3]

    monkeypatch.setattr(harness, "_solve_row", spying)
    sc = tiny_scenario(methods=KNOWN_METHODS, power_rule=power_rule)
    rows = run_scenario(sc)
    assert len(calls) == len(rows) == len(KNOWN_METHODS) * 2 * 3
    # one serial task solves cell by cell, each cell's methods in scenario order
    method_order = {m: i for i, m in enumerate(sc.methods)}
    by_cell = sorted(rows, key=lambda r: (r.sweep, r.trial, method_order[r.method]))
    for row, (method, cfg, channels, report) in zip(by_cell, calls):
        assert method == row.method
        assert cfg.b == harness._RESOLUTIONS.get(method, sc.config.b)
        if power_rule == "max-rate" and report.feasible:
            report = solver.max_rate_power_fill(channels, report, cfg)
        assert (report.ee, report.sum_rate, report.total_power, report.feasible,
                report.outer_iterations) == (row.ee, row.sum_rate, row.total_power,
                                             row.feasible, row.iters)
    assert {row.method for row in rows if row.feasible} == set(KNOWN_METHODS)


def test_certified_reports_share_no_writable_bound_powers(monkeypatch):
    # a task's cells of equal floors share one (EE°, p°), and the reports certified there hold p°
    reports = []
    solve_row = harness._solve_row

    def spying(*args):
        reports.append(solve_row(*args))
        return reports[-1]

    monkeypatch.setattr(harness, "_solve_row", spying)
    run_scenario(tiny_scenario(methods=KNOWN_METHODS, values=(10.0,)))
    held = [report.powers.p for report in reports if report.feasible]
    shared = [(a, b) for a, b in itertools.combinations(held, 2) if np.shares_memory(a, b)]
    assert shared
    assert not any(a.flags.writeable or b.flags.writeable for a, b in shared)


@pytest.mark.parametrize("method", KNOWN_METHODS)
def test_a_failed_max_rate_fill_gives_the_infeasible_row(method, monkeypatch):
    # the fill batch leaves the first row of method unsettled (nan), as solve_inner does
    sc = tiny_scenario(methods=KNOWN_METHODS, power_rule="max-rate", values=(-10.0,), trials=2)
    expected = comparable(run_scenario(sc))
    fills, inner = harness.max_rate_fills, solver.solve_inner
    batches = []

    def one_unsettled(cells):
        target = [report.method_tag for _, report, _ in cells].index(method)

        def unsettled(*args):
            p = inner(*args)
            assert p.shape[0] == len(cells)  # no row is masked before the solve
            p[target] = np.nan
            return p

        monkeypatch.setattr(solver, "solve_inner", unsettled)
        try:
            batches.append(fills(cells))
        finally:
            monkeypatch.setattr(solver, "solve_inner", inner)
        return batches[-1]

    monkeypatch.setattr(harness, "max_rate_fills", one_unsettled)
    rows = comparable(run_scenario(sc))
    assert len(batches) == 1 and len(batches[0]) == len(rows)
    assert [report.feasible for report in batches[0]].count(False) == 1
    changed = [(a, b) for a, b in zip(expected, rows) if a != b]
    assert len(changed) == 1
    before, after = changed[0]
    assert before.method == after.method == method and (before.sweep, before.trial) == (-10.0, 0)
    assert before.feasible
    assert (after.feasible, after.ee, after.sum_rate, after.total_power, after.iters) == \
        (False, 0.0, 0.0, 0.0, 0)


def test_tasks_are_chunks_of_equal_n_cells():
    sc = tiny_scenario(values=(-15.0, -10.0, -5.0), trials=2)
    cells = [(si, v, t) for si, v in enumerate(sc.values) for t in range(2)]
    assert harness._tasks(sc) == [cells]
    assert harness._tasks(replace(sc, workers=2)) == [cells[:3], cells[3:]]
    assert harness._tasks(replace(sc, workers=9)) == [[cell] for cell in cells]
    by_n = replace(sc, axis="n", values=(2.0, 3.0, 4.0))
    cells = [(si, v, t) for si, v in enumerate(by_n.values) for t in range(2)]
    assert harness._tasks(by_n) == [cells[:2], cells[2:4], cells[4:]]
    assert harness._tasks(replace(by_n, workers=2)) == [[cell] for cell in cells]


@pytest.mark.parametrize("r_min", [0.0, 1.0])
@pytest.mark.parametrize("power_rule", ["ee", "max-rate"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("axis, values", [("p_budget_dbm", (-15.0, -10.0, -5.0)),
                                          ("n", (2.0, 4.0))])
def test_batched_first_steps_give_the_rows_of_one_cell_tasks(axis, values, workers, power_rule,
                                                             r_min):
    # the task's first-step, relay, loop and fill batches give every row its one-cell task's
    sc = tiny_scenario(methods=(*SURFACE_METHODS, "exhaustive", "relay"), axis=axis,
                       values=values, trials=3, workers=workers, power_rule=power_rule,
                       config=make_config(k=2, m=2, n=4, b=1, r_min=r_min))
    assert any(len(task) > 1 for task in harness._tasks(sc))
    alone = [row for si, v in enumerate(sc.values) for t in range(sc.trials)
             for row in harness._run_task(sc, [(si, v, t)])]
    order = {m: i for i, m in enumerate(sc.methods)}
    alone.sort(key=lambda r: (order[r.method], r.sweep, r.trial))
    assert comparable(run_scenario(sc)) == comparable(alone)


def test_first_step_batch_time_counts_in_each_cells_first_surface_row(monkeypatch):
    first_steps = solver.first_phase_steps

    def slow(cells, options=None):
        time.sleep(0.1)
        return first_steps(cells, options)

    monkeypatch.setattr(harness, "first_phase_steps", slow)
    sc = tiny_scenario(methods=("relay", "lis-1bit", "lis-2bit"), trials=2)  # one 4-cell task
    rows = run_scenario(sc)
    # lis-1bit is each cell's first surface row; a 25 ms share would push any other over 25
    assert sum(r.wall_ms for r in rows if r.method == "lis-1bit") >= 100.0
    assert all(r.wall_ms < 25.0 for r in rows if r.method != "lis-1bit")


def test_relay_and_fill_batch_times_count_in_their_rows(monkeypatch):
    relays, fills = solver.relay_reports, solver.max_rate_fills

    def slow_relays(cells):
        time.sleep(0.1)
        return relays(cells)

    def slow_fills(cells):
        time.sleep(0.2)
        return fills(cells)

    monkeypatch.setattr(harness, "relay_reports", slow_relays)
    monkeypatch.setattr(harness, "max_rate_fills", slow_fills)
    sc = tiny_scenario(methods=("lis-1bit", "relay"), trials=2, power_rule="max-rate")
    rows = run_scenario(sc)  # one 4-cell task: 4 relay rows, and 8 filled rows
    assert all(r.feasible for r in rows)
    # a relay row carries a 25 ms share of each batch, a lis-1bit row one of the fill's
    assert sum(r.wall_ms for r in rows) >= 300.0
    assert all(r.wall_ms >= 50.0 for r in rows if r.method == "relay")
    assert all(25.0 <= r.wall_ms < 50.0 for r in rows if r.method == "lis-1bit")


@pytest.fixture
def ticking_clock(monkeypatch):
    """The harness's and the solver's perf_counter, on a clock that moves 1 s at each reading.

    Yields the clock's state: "ticks" counts the readings and "t" is the last one, which a
    test may move on without a reading.
    """
    state = {"t": 0.0, "ticks": 0}

    def perf_counter():
        state["t"] += 1.0
        state["ticks"] += 1
        return state["t"]

    clock = types.SimpleNamespace(perf_counter=perf_counter)
    monkeypatch.setattr(harness, "time", clock)
    monkeypatch.setattr(solver, "time", clock)
    yield state


def test_rows_count_every_timed_interval_once(ticking_clock):
    # every interval is two readings 1 s apart, so the rows add up to 1 s per reading pair
    rows = run_scenario(tiny_scenario(methods=KNOWN_METHODS, power_rule="max-rate"))
    ticks = ticking_clock["ticks"]
    assert ticks > 2 * len(rows) and ticks % 2 == 0
    assert sum(r.wall_ms for r in rows) == pytest.approx(1e3 * ticks / 2)


def test_terms_time_counts_in_the_surface_rows_only(ticking_clock, monkeypatch):
    sc = tiny_scenario(methods=KNOWN_METHODS, power_rule="max-rate")  # one 6-cell task
    plain = run_scenario(sc)
    task_terms = harness._task_terms

    def slow_terms(configs):
        ticking_clock["t"] += 240.0
        return task_terms(configs)

    monkeypatch.setattr(harness, "_task_terms", slow_terms)
    slowed = run_scenario(sc)
    # 6 cells of 4 surface rows: a 10 s share each
    assert [b.wall_ms - a.wall_ms for a, b in zip(plain, slowed)] == pytest.approx(
        [0.0 if r.method == "relay" else 1e4 for r in plain])


def test_run_scenario_exhaustive_dominates_alternating_per_row():
    sc = tiny_scenario(methods=("lis-1bit", "exhaustive"), trials=4,
                       values=(-10.0,))
    rows = run_scenario(sc)
    cells = {}
    for r in rows:
        cells.setdefault((r.sweep, r.trial), {})[r.method] = r
    checked = 0
    for pair in cells.values():
        alt, exh = pair["lis-1bit"], pair["exhaustive"]
        if alt.feasible and exh.feasible:
            assert alt.ee <= exh.ee + 1e-9
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------- aggregation

def row(method="m", sweep=0.0, trial=0, ee=1.0, rate=2.0, feasible=True):
    return ResultRow(method=method, sweep=sweep, trial=trial, seed=0, ee=ee,
                     sum_rate=rate, total_power=1.0, feasible=feasible,
                     iters=1, wall_ms=0.0)


def test_aggregate_single_row():
    (agg,) = aggregate([row(ee=3.5, rate=1.25)])
    assert agg.mean_ee == 3.5
    assert agg.stderr_ee == 0.0
    assert agg.mean_rate == 1.25
    assert agg.feas_rate == 1.0
    assert agg.trials == 1


def test_aggregate_two_rows_mean():
    (agg,) = aggregate([row(trial=0, ee=1.0), row(trial=1, ee=3.0)])
    assert agg.mean_ee == pytest.approx(2.0)
    assert agg.stderr_ee == pytest.approx(np.std([1.0, 3.0], ddof=1) / np.sqrt(2))


def test_aggregate_constant_rows_have_vanishing_stderr():
    rows = [row(trial=t, ee=7.25) for t in range(50)]
    (agg,) = aggregate(rows)
    assert agg.stderr_ee < 1e-12


def test_aggregate_excludes_infeasible_and_reports_rate():
    rows = [row(trial=0, ee=2.0), row(trial=1, ee=0.0, feasible=False)]
    (agg,) = aggregate(rows)
    assert agg.mean_ee == 2.0
    assert agg.feas_rate == 0.5
    assert agg.trials == 2


def test_aggregate_warns_and_omits_empty_groups():
    rows = [row(method="a", trial=0, ee=0.0, feasible=False),
            row(method="b", trial=0, ee=1.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = aggregate(rows)
    assert len(out) == 1 and out[0].method == "b"
    assert any("no feasible trials" in str(w.message) for w in caught)


# -------------------------------------------------------------------- output

def test_emit_outputs_headers_and_round_trip(tmp_path):
    sc = tiny_scenario(values=(-10.0,), trials=2)
    rows = run_scenario(sc)
    aggs = aggregate(rows)
    paths = emit_outputs(rows, aggs, sc, tmp_path)

    with open(paths["rows"]) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == list(RAW_COLUMNS)
    with open(paths["aggregates"]) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == list(AGG_COLUMNS)
        parsed = list(reader)
    # round trip: parsed floats identical to emitted values
    for line, agg in zip(parsed, aggs):
        assert float(line[2]) == agg.mean_ee
        assert float(line[3]) == agg.stderr_ee
        assert float(line[4]) == agg.mean_rate
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["scenario"]["trials"] == 2
    assert "notes" in manifest


def test_emit_outputs_empty_aggregates(tmp_path):
    sc = tiny_scenario(values=(-10.0,), trials=1)
    paths = emit_outputs([], [], sc, tmp_path)
    # the README's headers, spelled out, so a reordered ResultRow or AggregateRow field shows here
    raw = "method,sweep,trial,seed,ee,sum_rate,total_power,feasible,iters,wall_ms"
    agg = "method,sweep,mean_ee,stderr_ee,mean_rate,stderr_rate,feas_rate,trials"
    readme = (REPO / "README.md").read_text()
    assert f"`{raw}`" in readme and f"`{agg}`" in readme
    assert Path(paths["rows"]).read_text().strip() == raw
    assert Path(paths["aggregates"]).read_text().strip() == agg
    json.loads(Path(paths["manifest"]).read_text())


def field_paths(obj, prefix=()):
    """Every (nested) dataclass field name path under obj."""
    for f in fields(obj):
        yield prefix + (f.name,)
        if is_dataclass(getattr(obj, f.name)):
            yield from field_paths(getattr(obj, f.name), prefix + (f.name,))


def test_manifest_echoes_every_scenario_field(tmp_path):
    sc = tiny_scenario(phase_options=RelaxedSolveOptions(max_iterations=7, num_restarts=3))
    manifest = json.loads(Path(emit_outputs([], [], sc, tmp_path)["manifest"]).read_text())
    echo = manifest["scenario"]
    for path in field_paths(sc):
        node = echo
        for name in path:
            assert name in node, ".".join(path)
            node = node[name]
    assert echo["phase_options"] == {"max_iterations": 7, "num_restarts": 3}
    assert echo["config"]["p_budget"] == sc.config.p_budget
    assert echo["config"]["mu"] == list(sc.config.mu)
    assert echo["config"]["p_n_of_b"] == {str(b): w for b, w in sc.config.p_n_of_b.items()}
    assert echo["values"] == list(sc.values)


def test_manifests_differ_when_only_phase_options_differ(tmp_path):
    paths = [emit_outputs([], [], tiny_scenario(phase_options=options), tmp_path / str(i))
             for i, options in enumerate((RelaxedSolveOptions(60, 2), RelaxedSolveOptions(10, 1)))]
    assert Path(paths[0]["manifest"]).read_bytes() != Path(paths[1]["manifest"]).read_bytes()


def test_emitted_csv_bytes_stable_across_reruns(tmp_path):
    sc = tiny_scenario()
    paths_a = emit_outputs(run_scenario(sc), aggregate(run_scenario(sc)), sc, tmp_path / "a")
    paths_b = emit_outputs(run_scenario(sc), aggregate(run_scenario(sc)), sc, tmp_path / "b")
    assert strip_wall_column(paths_a["rows"]) == strip_wall_column(paths_b["rows"])
    assert Path(paths_a["aggregates"]).read_bytes() == Path(paths_b["aggregates"]).read_bytes()
    assert Path(paths_a["curves"]).read_bytes() == Path(paths_b["curves"]).read_bytes()
    assert Path(paths_a["manifest"]).read_bytes() == Path(paths_b["manifest"]).read_bytes()


# -------------------------------------------------------------- file parsing

def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(SCENARIO_TEXT)
    sc = load_scenario(path)
    assert sc.config.k == 2 and sc.config.m == 2 and sc.config.n == 4
    assert sc.values == (-15.0, -10.0)
    assert sc.methods == ("lis-1bit", "relay")
    assert sc.trials == 3
    assert sc.master_seed == 11
    assert sc.phase_options.num_restarts == 2
    assert sc.config.sigma2 == pytest.approx(1e-4)


def test_scenario_from_pairs_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario keys"):
        scenario_from_pairs({"methods": "relay", "sweep.n": "2,4", "m": "4",
                             "k": "2", "frobnicate": "1"})


@pytest.mark.parametrize("key", [
    "phase.finite_difference_step", "phase.gradient_tolerance", "phase.step_tolerance",
    "caps.enumeration", "caps.outer_iterations",
])
def test_scenario_from_pairs_rejects_removed_keys(key):
    with pytest.raises(ValueError, match=rf"unknown scenario keys: \['{re.escape(key)}'\]"):
        scenario_from_pairs({"methods": "relay", "sweep.n": "2,4", "m": "4",
                             "k": "2", key: "1e-5"})


def test_scenario_from_pairs_leaves_defaults_to_the_dataclasses():
    sc = scenario_from_pairs({"methods": "relay", "sweep.n": "8"})
    expected = SystemConfig(m=4, k=4, n=8, b=1, p_budget=dbm_to_watts(0.0),
                            sigma2=dbm_to_watts(-100.0))
    for f in fields(SystemConfig):
        got, want = getattr(sc.config, f.name), getattr(expected, f.name)
        if f.name in ("mu", "r_min"):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name
    defaults = Scenario(config=expected, axis="n", values=(8,), methods=("relay",))
    for name in ("trials", "master_seed", "power_rule", "r_min_rule", "workers"):
        assert getattr(sc, name) == getattr(defaults, name), name
    assert sc.phase_options == RelaxedSolveOptions()


def test_scenario_from_pairs_keeps_unset_per_element_powers():
    sc = scenario_from_pairs({"methods": "relay", "sweep.n": "8", "p_n_dbm.2": "7"})
    assert sc.config.p_n_of_b == {1: dbm_to_watts(5.0), 2: dbm_to_watts(7.0),
                                  CONTINUOUS: dbm_to_watts(45.0)}


@pytest.mark.parametrize("path", SCENARIO_FILES,
                         ids=lambda p: "-".join(p.relative_to(REPO).with_suffix("").parts))
def test_every_shipped_scenario_file_loads(path):
    assert isinstance(load_scenario(path), Scenario)


def test_scenario_from_pairs_requires_exactly_one_sweep():
    with pytest.raises(ValueError, match="sweep"):
        scenario_from_pairs({"methods": "relay"})
    with pytest.raises(ValueError, match="sweep"):
        scenario_from_pairs({"methods": "relay", "sweep.n": "2,4",
                             "sweep.snr_db": "0,10"})


def test_scenario_from_pairs_requires_methods():
    with pytest.raises(ValueError, match="methods"):
        scenario_from_pairs({"sweep.n": "2,4"})


def test_parse_rejects_duplicate_and_malformed_lines(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("m = 2\nm = 3\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_scenario(path)
    path.write_text("just some text\n")
    with pytest.raises(ValueError, match="key = value"):
        load_scenario(path)


def test_load_scenario_missing_file():
    with pytest.raises(OSError):
        load_scenario("/nonexistent/scenario.scn")


# ----------------------------------------------------------------------- CLI

def test_cli_sweep_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli_main([
        "sweep", "--axis", "p", "--values=-15,-10",
        "--methods", "relay",
        "--set", "k=2", "--set", "m=2", "--set", "n=4",
        "--set", "sigma2_dbm=-10", "--set", "p_c_dbm=0",
        "--set", "pathloss.bs_user.exponent=0",
        "--set", "pathloss.bs_user.ref_loss_db=10",
        "--set", "pathloss.bs_lis.exponent=0",
        "--set", "pathloss.bs_lis.ref_loss_db=0",
        "--set", "pathloss.lis_user.exponent=0",
        "--set", "pathloss.lis_user.ref_loss_db=0",
        "--set", "trials=2",
        "--out", str(out), "--seed", "3", "--workers", "2",
    ])
    assert code == 0
    assert (out / "rows.csv").exists()
    assert (out / "aggregates.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["master_seed"] == 3
    assert manifest["scenario"]["workers"] == 2


def test_cli_sweep_takes_negative_values_after_a_space(tmp_path):
    # argparse alone takes '-15,-10' for a flag and ends with 'expected one argument'
    common = ["--methods", "relay", "--set", "k=2", "--set", "m=2", "--set", "trials=1"]
    for form, values in (("space", ["--values", "-15,-10"]), ("equals", ["--values=-15,-10"])):
        assert cli_main(["sweep", "--axis", "p", *values, *common,
                         "--out", str(tmp_path / form)]) == 0
    manifest = json.loads((tmp_path / "space" / "manifest.json").read_text())
    assert manifest["scenario"]["values"] == [-15.0, -10.0]
    assert strip_wall_column(tmp_path / "space" / "rows.csv") == \
        strip_wall_column(tmp_path / "equals" / "rows.csv")


def test_cli_rejects_invalid_workers_override(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--axis", "n", "--values", "2,4", "--methods", "lis-1bit",
                  "--set", "k=2", "--set", "m=3", "--workers", "0", "--out", str(out)])
    # a string code makes the interpreter print it and exit with status 1
    assert isinstance(exc.value.code, str)
    assert "workers must be >= 1" in exc.value.code
    assert not out.exists()


def test_cli_run_scenario_file(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(SCENARIO_TEXT)
    out = tmp_path / "results"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "curves.csv").exists()


def test_cli_oracle_check_smoke(capsys):
    code = cli_main(["oracle-check", "--sizes", "2", "--instances", "3", "--seed", "5"])
    assert code == 0
    captured = capsys.readouterr()
    assert "median gap" in captured.out
    counts = re.search(r"instances=(\d+) false-infeasible=(\d+) both-infeasible=(\d+)",
                       captured.out)
    assert counts is not None
    assert sum(int(c) for c in counts.groups()) == 3


def stub_report(feasible):
    if not feasible:
        return SolveReport.infeasible("stub")
    return SolveReport(ee=1.0, sum_rate=1.0, total_power=1.0, phases=None, powers=None,
                       outer_iterations=1, feasible=True, method_tag="stub")


def stub_alternating(reports):
    """A harness alternating_ee_max that returns the next of reports, with no first step."""
    trace = AlternatingTrace(iterates=(), termination="converged", first_step=None)
    return lambda channels, cfg, first_step, terms: (next(reports), trace)


def test_cli_oracle_check_counts_dropped_instances(monkeypatch, capsys):
    # (alternating feasible, exhaustive feasible) per instance, in solve order
    outcomes = [(False, True), (False, False), (True, True), (False, True)]
    monkeypatch.setattr(harness, "alternating_ee_max",
                        stub_alternating(stub_report(alt) for alt, _ in outcomes))
    exhaustive = iter([stub_report(exh) for _, exh in outcomes])
    monkeypatch.setattr(harness, "exhaustive_search", lambda ch, cfg, terms: next(exhaustive))
    assert cli_main(["oracle-check", "--sizes", "2", "--instances", "4"]) == 1
    out = capsys.readouterr().out
    assert "n=  2: instances=1 false-infeasible=2 both-infeasible=1 median gap" in out


def test_cli_oracle_check_fails_on_a_false_infeasible(monkeypatch, capsys):
    # the alternating solver reports the second instance infeasible; the oracle solves both
    feasible = stub_report(True)
    monkeypatch.setattr(harness, "alternating_ee_max",
                        stub_alternating(iter([feasible, SolveReport.infeasible("stub")])))
    monkeypatch.setattr(harness, "exhaustive_search", lambda ch, cfg, terms: feasible)
    assert cli_main(["oracle-check", "--sizes", "2", "--instances", "2"]) == 1
    captured = capsys.readouterr()
    assert "false-infeasible=1" in captured.out
    assert "ERROR: 1 instances feasible for the exhaustive oracle" in captured.err


def test_cli_oracle_check_prints_mean_gaps_and_lists_false_infeasibles(monkeypatch, capsys):
    # alternating efficiencies per instance (None: infeasible); the oracle reaches 1.0 on each
    alternating = [0.9, None, 0.5, 1.0, None, 1.0]
    reports = iter([stub_report(False) if ee is None else
                    replace(stub_report(True), ee=ee) for ee in alternating])
    monkeypatch.setattr(harness, "alternating_ee_max", stub_alternating(reports))
    monkeypatch.setattr(harness, "exhaustive_search", lambda ch, cfg, terms: stub_report(True))
    assert cli_main(["oracle-check", "--sizes", "2,3", "--instances", "3"]) == 1
    captured = capsys.readouterr()
    assert ("n=  2: instances=2 false-infeasible=1 both-infeasible=0 "
            "median gap=30.0000% max gap=50.0000% mean gap=30.0000%") in captured.out
    assert ("n=  3: instances=2 false-infeasible=1 both-infeasible=0 "
            "median gap=0.0000% max gap=0.0000% mean gap=0.0000%") in captured.out
    assert "overall: median gap=5.0000% max gap=50.0000% mean gap=15.0000%" in captured.out
    assert captured.err.splitlines()[1:] == ["  n=2, trial=1", "  n=3, trial=1"]


@pytest.mark.parametrize("bound, status", [(1.0, 0), (1.0 - 2e-9, 1)], ids=["at", "below"])
def test_cli_oracle_check_counts_rows_at_the_bound_and_fails_above_it(monkeypatch, capsys,
                                                                       bound, status):
    # every row reaches 1.0, except the second instance's alternating row at 0.5
    reports = iter([stub_report(True), replace(stub_report(True), ee=0.5)])
    monkeypatch.setattr(harness, "alternating_ee_max", stub_alternating(reports))
    monkeypatch.setattr(harness, "exhaustive_search", lambda ch, cfg, terms: stub_report(True))
    bounds = []
    monkeypatch.setattr(cli, "phase_free_bound", lambda cfg: bounds.append(cfg.n) or (bound, None))
    assert cli_main(["oracle-check", "--sizes", "2", "--instances", "2"]) == status
    captured = capsys.readouterr()
    assert bounds == [2]  # one bound per size
    assert "at bound: lis-1bit=1 exhaustive=2" in captured.out
    above = "ERROR: 3 rows exceed the phase-free efficiency bound:"
    assert (above in captured.err) == bool(status)
    if status:
        assert captured.err.splitlines()[1:] == [
            f"  n=2, {method}, trial={t}: 2e-09 above" for method, t in
            (("lis-1bit", 0), ("exhaustive", 0), ("exhaustive", 1))]


def test_cli_oracle_check_counts_equal_run_scenario_rows(capsys):
    scenario = scenario_from_pairs({**cli._ORACLE_PAIRS, "sweep.n": "2,4", "trials": "6",
                                    "master_seed": "3"})
    rows = run_scenario(scenario)
    expected = []
    for n in (2.0, 4.0):
        alt = {r.trial: r for r in rows if r.method == "lis-1bit" and r.sweep == n}
        exh = {r.trial: r for r in rows if r.method == "exhaustive" and r.sweep == n}
        pairs = [(alt[t], exh[t]) for t in range(6)]
        expected.append((int(n), sum(a.feasible and e.feasible for a, e in pairs),
                         sum(e.feasible and not a.feasible for a, e in pairs),
                         sum(not (a.feasible or e.feasible) for a, e in pairs)))
    cli_main(["oracle-check", "--sizes", "2,4", "--instances", "6", "--seed", "3"])
    found = re.findall(r"n= *(\d+): instances=(\d+) false-infeasible=(\d+) "
                       r"both-infeasible=(\d+)", capsys.readouterr().out)
    assert [tuple(int(c) for c in line) for line in found] == expected


@pytest.mark.parametrize("flags, message", [
    (["--sizes", "4,2", "--instances", "1"], "strictly increasing"),
    (["--sizes", "2", "--instances", "0"], "trials must be >= 1"),
], ids=["decreasing-sizes", "no-instances"])
def test_cli_oracle_check_rejects_bad_flags(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["oracle-check", *flags])
    assert isinstance(exc.value.code, str) and exc.value.code.startswith("lisopt: ")
    assert message in exc.value.code
    assert capsys.readouterr().out == ""


def test_import_loads_no_scipy():
    code = ("import lisopt, sys; "
            "assert not [m for m in sys.modules if m.startswith('scipy')]")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("text, message", [
    (SCENARIO_TEXT + "bogus = 1\n", "unknown scenario keys: ['bogus']"),
    (SCENARIO_TEXT.replace("sweep.p_budget_dbm = -15,-10\n", ""), "exactly one sweep.* key"),
], ids=["unknown-key", "no-sweep"])
def test_cli_run_rejects_bad_scenario_file(tmp_path, text, message):
    path = tmp_path / "bad.scn"
    path.write_text(text)
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", str(path), "--out", str(out)])
    assert isinstance(exc.value.code, str) and exc.value.code.startswith("lisopt: ")
    assert message in exc.value.code
    assert not out.exists()


def test_cli_run_rejects_missing_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", str(tmp_path / "absent.scn"), "--out", str(tmp_path / "results")])
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith("lisopt: cannot read scenario file")


def test_cli_oracle_check_rejects_too_few_elements(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["oracle-check", "--sizes", "1", "--instances", "1"])
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith("lisopt: ") and "need n >= k" in exc.value.code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "n", "--values", "inf", "--methods", "relay"],
    ["oracle-check", "--sizes", "2,inf"],
    ["oracle-check", "--sizes", "2,nan"],
], ids=["sweep-inf", "oracle-check-inf", "oracle-check-nan"])
def test_cli_rejects_non_finite_element_counts(argv, tmp_path, capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, *(["--out", str(out)] if argv[0] == "sweep" else [])])
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith("lisopt: n sweep values must be integers, need n >= k=")
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, text, message", [
    (["sweep", "--axis", "p", "--values", "inf"], None, "p_budget must be finite and positive"),
    (["sweep", "--axis", "p", "--values", "nan"], None, "p_budget must be finite and positive"),
    (["sweep", "--axis", "p", "--values", "5000"], None, "a dB or dBm value is too large"),
    (["sweep", "--axis", "snr", "--values", "5000"], None, "a dB or dBm value is too large"),
    (["run"], SCENARIO_TEXT + "p_budget_dbm = 5000\n", "a dB or dBm value is too large"),
    (["sweep", "--axis", "p", "--values", "0", "--seed", "-1"], None, "master_seed must be >= 0"),
    (["sweep", "--axis", "p", "--values", "-10", "--methods", "relay,relay", "--set", "trials=2"],
     None, "method 'relay' is repeated"),
    (["oracle-check", "--seed", "-3"], None, "master_seed must be >= 0"),
    (["run"], SCENARIO_TEXT.replace("master_seed = 11", "master_seed = -5"),
     "master_seed must be >= 0"),
    (["sweep", "--axis", "p", "--values", "0", "--set", "pathloss.bs_user.ref_loss_db=-5000",
      "--set", "trials=1"], None, "reference loss -5000.0 dB gives a gain beta0 beyond"),
    *((["sweep", "--axis", "p", "--values", "0", "--set", "k=2", "--set", "m=2", "--set",
        "trials=1", "--set", setting], None, message) for setting, message in [
        ("geometry.bs=0,0,0", "bs must be two finite coordinates"),
        ("geometry.lis=nan,nan", "lis must be two finite coordinates"),
        ("geometry.bs=100,100", "the BS and the surface share the position"),
        ("geometry.user_box=0,1,0,inf", "user rectangle must be four finite values"),
        ("geometry.user_box=0,1,0", "user rectangle must be four finite values"),
        ("pathloss.bs_lis.exponent=nan", "pathloss exponent must be finite and >= 0"),
        ("pathloss.bs_lis.d0=nan", "reference distance must be finite and positive"),
        ("relay.alpha=nan", "relay gain must be finite and >= 0"),
        ("relay.tx_dbm=nan", "relay transmit power must be finite and >= 0"),
        ("mu=inf", "amplifier inefficiency mu must be finite and >= 1"),
    ]),
], ids=["sweep-p-inf", "sweep-p-nan", "sweep-p-overflow", "sweep-snr-overflow",
        "file-budget-overflow", "sweep-seed", "sweep-repeated-method", "oracle-check-seed",
        "file-seed", "sweep-ref-loss-overflow", "bs-3d", "lis-nan", "bs-on-surface", "user-box-inf",
        "user-box-3", "exponent-nan", "d0-nan", "relay-alpha-nan", "relay-tx-nan", "mu-inf"])
def test_cli_rejects_bad_budgets_and_seeds(argv, text, message, tmp_path, capsys):
    out = tmp_path / "results"
    if text is not None:
        path = tmp_path / "bad.scn"
        path.write_text(text)
        argv = [*argv, str(path)]
    elif argv[0] == "sweep" and "--methods" not in argv:
        argv = [*argv, "--methods", "relay"]
    if argv[0] != "oracle-check":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert isinstance(exc.value.code, str) and exc.value.code.startswith("lisopt: ")
    assert message in exc.value.code
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_out_naming_a_file_ends_before_the_run(command, tmp_path, capsys, monkeypatch):
    def no_run(scenario):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "results"
    out.write_text("not a directory\n")
    if command == "run":
        path = tmp_path / "ok.scn"
        path.write_text(SCENARIO_TEXT)
        argv = ["run", str(path)]
    else:
        argv = ["sweep", "--axis", "p", "--values", "0", "--methods", "relay"]
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--out", str(out)])
    assert isinstance(exc.value.code, str) and exc.value.code.startswith("lisopt: ")
    assert str(out) in exc.value.code
    assert capsys.readouterr().out == ""
    assert out.read_text() == "not a directory\n"
