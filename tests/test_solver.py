import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    EnumerationCapError,
    PhaseConfig,
    PowerAllocation,
    RelaxedSolveOptions,
    RelayParams,
    SolveReport,
    alternating_ee_max,
    dinkelbach_allocation,
    effective_channel,
    evaluate,
    exhaustive_search,
    max_rate_power_fill,
    phase_grid,
    qos_min_powers,
    relay_baseline,
    sample_channels,
    trace_objective,
    zf_power_weights,
    zf_precoder,
)
from lisopt import cli, load_scenario, scenario_from_pairs, solver
from lisopt.harness import _config_at, _method_config
from lisopt.model import BUDGET_SLACK
from lisopt.power import dinkelbach_batch
from util import (
    BOUND_CASES,
    assert_search_trace,
    assert_stall_trace,
    bound_case_weights,
    bound_rule_score,
    grid_neighbours,
    make_config,
    random_channels,
    unit_pathloss,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TWO_PI = 2.0 * np.pi


def zeroed_surface(channels):
    return ChannelSet(h1=channels.h1, h2=np.zeros_like(channels.h2), h=channels.h)


# ------------------------------------------------------------- alternating

def test_alternating_decouples_when_surface_is_dark():
    # strong direct channel and a dark surface: the phases cannot matter
    cfg = make_config(k=2, m=6, n=4, b=1, pathloss=unit_pathloss(direct_loss_db=0.0))
    ch = zeroed_surface(sample_channels(cfg, seed=31))
    report, trace = alternating_ee_max(ch, cfg, seed=0)
    assert report.feasible
    assert report.outer_iterations <= 2
    assert trace.termination == "converged"
    # phases are irrelevant: the result matches the direct-channel allocation
    phases = PhaseConfig(theta=np.zeros(4), resolution=1)
    weights = zf_power_weights(effective_channel(ch, phases))
    offset = cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[1]
    alloc, dtrace = dinkelbach_allocation(weights, qos_min_powers(cfg), cfg.mu,
                                          cfg.sigma2, cfg.p_budget, offset, cfg.epsilon)
    assert np.allclose(report.powers.p, alloc.p, rtol=1e-12)
    assert report.ee == pytest.approx(dtrace.lambdas[-1], rel=1e-6)


def test_alternating_dominated_by_exhaustive_on_tiny_instances():
    cfg = make_config(k=2, m=2, n=2, b=1)
    for seed in range(6):
        ch = sample_channels(cfg, seed=seed)
        report, _ = alternating_ee_max(ch, cfg, seed=seed)
        oracle = exhaustive_search(ch, cfg)
        if report.feasible and oracle.feasible:
            assert report.ee <= oracle.ee + 1e-9


def test_alternating_report_satisfies_constraints():
    cfg = make_config(k=2, m=3, n=4, b=1, r_min=0.2)
    for seed in range(5):
        ch = sample_channels(cfg, seed=seed)
        report, trace = alternating_ee_max(ch, cfg, seed=seed)
        if not report.feasible:
            continue
        weights = zf_power_weights(effective_channel(ch, report.phases))
        assert float(np.dot(weights, report.powers.p)) <= cfg.p_budget * (1.0 + 1e-9)
        assert np.all(report.powers.p >= qos_min_powers(cfg) - 1e-12)
        assert report.ee == pytest.approx(report.sum_rate / report.total_power, rel=1e-10)
        assert report.phases.resolution == 1
        # best-seen selection: at least as good as every recorded iterate
        assert all(report.ee >= it.ee - 1e-9 for it in trace.iterates)


def test_alternating_continuous_resolution():
    cfg = make_config(k=2, m=2, n=4, b=CONTINUOUS)
    ch = sample_channels(cfg, seed=8)
    report, _ = alternating_ee_max(ch, cfg, seed=8)
    assert report.feasible
    assert report.method_tag == "lis-continuous"
    assert report.phases.resolution == CONTINUOUS


def test_alternating_infeasible_when_budget_hopeless():
    # the QoS floors do not fit the starved budget, so the first power step fails
    cfg = make_config(k=2, m=2, n=2, b=1, p_budget_dbm=-140.0,
                      r_min=5.0)
    ch = sample_channels(cfg, seed=2)
    report, trace = alternating_ee_max(ch, cfg, seed=2)
    assert not report.feasible
    assert report.ee == 0.0
    assert trace.termination == "infeasible"


FIXED_DRAW_SIZES = (2, 4, 6, 8, 10, 12)


def fixed_draws(sizes, instances, seed=7):
    """(config, instance, channel seed, solver seed) on the paired-check setup, cli._ORACLE_PAIRS.

    The seeds come in pairs from one default_rng(seed) stream, size by size.
    They are fixed here because instances among them pinned regressions of
    the alternating solver.
    """
    rng = np.random.default_rng(seed)
    for size in sizes:
        cfg = scenario_from_pairs({**cli._ORACLE_PAIRS, "n": str(size),
                                   "sweep.n": str(size)}).config
        for index in range(instances):
            channel_seed = int(rng.integers(2 ** 63))
            solver_seed = int(rng.integers(2 ** 63))
            yield cfg, index, channel_seed, solver_seed


@pytest.mark.parametrize("n", [2, 12])
def test_alternating_stops_when_efficiency_stops_rising(n):
    # the fixed draws at sizes 2..12, 30 instances each, seed 7; with continuous
    # phases the loop runs 2 to 13 outer iterations on these draws, and the
    # 1-bit rows stop their search after 1 to 6 accepted points
    for cfg, _, channel_seed, solver_seed in fixed_draws(FIXED_DRAW_SIZES, 30):
        if cfg.n == n:
            ch = sample_channels(cfg, channel_seed)
            continuous = replace(cfg, b=CONTINUOUS)
            assert_stall_trace(*alternating_ee_max(ch, continuous, seed=solver_seed),
                               ch, continuous)
            assert_search_trace(*alternating_ee_max(ch, cfg, seed=solver_seed), ch, cfg)


def test_alternating_continues_past_unmoved_start_phases():
    # instance 26 at n=2 of the draws above: the first phase step rounds to the
    # zero start phases at 1 bit, where a phase-change test stops (at EE 444.23);
    # the search moves on from there, and so does the continuous loop
    cfg, _, channel_seed, solver_seed = next(
        d for d in fixed_draws(FIXED_DRAW_SIZES, 30) if d[0].n == 2 and d[1] == 26)
    ch = sample_channels(cfg, channel_seed)
    report, trace = alternating_ee_max(ch, cfg, seed=solver_seed)
    assert_search_trace(report, trace, ch, cfg)
    assert not np.any(trace.iterates[0].phases.theta)
    assert report.ee > trace.iterates[0].ee * 1.1
    continuous = replace(cfg, b=CONTINUOUS)
    report, trace = alternating_ee_max(ch, continuous, seed=solver_seed)
    assert_stall_trace(report, trace, ch, continuous)
    assert trace.termination == "converged"
    assert report.ee > trace.iterates[0].ee * 1.1


def test_alternating_feasible_where_the_start_phases_miss_the_budget():
    # instance 0 at n=2 of the draws above: the first phase iterate needs more
    # than the budget at the uniform start powers, at 1 bit and with continuous
    # phases, which a budget gate on the phase step took for infeasible; the
    # power step fits it into the budget
    cfg, _, channel_seed, solver_seed = next(fixed_draws(FIXED_DRAW_SIZES, 30))
    ch = sample_channels(cfg, channel_seed)
    start_powers = PowerAllocation(p=np.full(cfg.k, cfg.p_budget / cfg.k))
    for b in (CONTINUOUS, 1):
        report, trace = alternating_ee_max(ch, replace(cfg, b=b), seed=solver_seed)
        assert trace_objective(trace.iterates[0].phases.theta, ch, start_powers) > cfg.p_budget
        assert report.feasible
    continuous = replace(cfg, b=CONTINUOUS)
    assert_stall_trace(*alternating_ee_max(ch, continuous, seed=solver_seed), ch, continuous)
    assert_search_trace(report, trace, ch, cfg)
    oracle = exhaustive_search(ch, cfg)
    assert report.ee <= oracle.ee * (1.0 + 1e-9)


def test_alternating_paper_default_draw_runs_past_the_first_phase_step():
    # the parser's defaults: K = M = 4, N = 8, 1-bit, 0 dBm budget, -100 dBm noise
    cfg = scenario_from_pairs({"sweep.p_budget_dbm": "0", "methods": "lis-1bit"}).config
    assert (cfg.k, cfg.m, cfg.n, cfg.b) == (4, 4, 8, 1)
    ch = sample_channels(cfg, 0)
    continuous = replace(cfg, b=CONTINUOUS)
    report, trace = alternating_ee_max(ch, continuous, seed=0)
    assert report.feasible
    assert report.outer_iterations >= 2
    assert trace.termination != "infeasible"
    assert_stall_trace(report, trace, ch, continuous)
    report, trace = alternating_ee_max(ch, cfg, seed=0)
    assert report.feasible
    assert_search_trace(report, trace, ch, cfg)


def test_alternating_stall_rule_on_element_sweep_cell():
    # ee_vs_elements cell n=8, trial 4: lis-1bit reaches an efficiency
    # plateau, where tests on the phase and power change ran 5 more iterates
    # of the alternating loop; the loop still runs for continuous phases
    scenario = load_scenario(SCENARIOS / "ee_vs_elements.scn")
    index = scenario.values.index(8)
    ss = np.random.SeedSequence(scenario.master_seed, spawn_key=(index, 4))
    channel_seed, solver_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
    cfg = _config_at(scenario, 8)
    ch = sample_channels(cfg, channel_seed)
    continuous = replace(cfg, b=CONTINUOUS)
    report, trace = alternating_ee_max(ch, continuous, seed=solver_seed,
                                       options=scenario.phase_options)
    assert report.feasible
    assert_stall_trace(report, trace, ch, continuous)
    for method in scenario.methods:
        mcfg = _method_config(cfg, method)
        report, trace = alternating_ee_max(ch, mcfg, seed=solver_seed,
                                           options=scenario.phase_options)
        assert report.feasible
        assert_search_trace(report, trace, ch, mcfg)


def paper_default_cells(count):
    """(channels, continuous config) of the parser's default setup, channel seeds 0 .. count-1."""
    cfg = scenario_from_pairs({"sweep.p_budget_dbm": "0", "methods": "lis-continuous",
                               "b": "continuous"}).config
    return [(sample_channels(cfg, seed), cfg) for seed in range(count)]


def test_continuous_loop_draws_nothing_from_the_seed_after_the_first_step():
    # only the first phase step explores from seeded restarts; given that step, the loop's
    # report and trace are the same whatever the seed
    outer = 0
    for ch, cfg in paper_default_cells(6):
        first_step = alternating_ee_max(ch, cfg, seed=0)[1].first_step
        solve = alternating_ee_max(ch, cfg, seed=1, first_step=first_step)
        assert alternating_ee_max(ch, cfg, seed=2, first_step=first_step) == solve
        outer += len(solve[1].iterates) - 1
    assert outer >= 6  # the loop took phase steps after the first


def test_continuous_loop_steps_refine_the_previous_iterate(monkeypatch):
    steps = []
    step = solver.solve_relaxed_cells

    def spy(cells, options=None):
        steps.append((cells, options))
        return step(cells, options)

    monkeypatch.setattr(solver, "solve_relaxed_cells", spy)
    options = RelaxedSolveOptions(max_iterations=60, num_restarts=3)
    for ch, cfg in paper_default_cells(3):
        steps.clear()
        _, trace = alternating_ee_max(ch, cfg, seed=5, options=options)
        # the first call is the first phase step; one call per later step follows
        assert steps[0][1] == options
        assert trace.termination == "converged" and len(steps) == len(trace.iterates) >= 2
        for (cells, refine), previous in zip(steps[1:], trace.iterates):
            # one start, warm at the previous iterate's phases and solved at its powers
            assert refine == RelaxedSolveOptions(max_iterations=60, num_restarts=1)
            ((channels, powers, warm, _),) = cells
            assert channels is ch
            assert np.array_equal(warm, previous.phases.theta)
            assert np.array_equal(powers.p, previous.powers.p)


def budget_sweep_cell(budget_dbm, trial, method):
    """(channels, method config, solver seed, options) of an ee_vs_budget.scn cell."""
    scenario = load_scenario(SCENARIOS / "ee_vs_budget.scn")
    ss = np.random.SeedSequence(scenario.master_seed,
                                spawn_key=(scenario.values.index(budget_dbm), trial))
    channel_seed, solver_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
    cfg = _method_config(_config_at(scenario, budget_dbm), method)
    return sample_channels(cfg, channel_seed), cfg, solver_seed, scenario.phase_options


# ee_vs_budget.scn cells (budget dBm, trial, method) -> (termination, iterates, report
# efficiency). The first two attain EE°: the 1-bit search moves three times, the last
# onto a certified neighbour, where it used to sweep once more; the continuous loop
# stops at its first iterate, where it used to run a second. The third search stops
# at a local optimum 1.3% below EE° with no certified neighbour.
PINNED_STOPS = {
    (-15.0, 1, "lis-1bit"): ("bound", 4, 16339.97421074),
    (-10.0, 2, "lis-continuous"): ("bound", 1, 3404.977322897),
    (-15.0, 3, "lis-1bit"): ("converged", 2, 16134.82666864),
}


@pytest.mark.parametrize("budget_dbm, trial, method", sorted(PINNED_STOPS))
def test_pinned_draws_stop_at_the_bound_or_converge(budget_dbm, trial, method):
    ch, cfg, seed, options = budget_sweep_cell(budget_dbm, trial, method)
    report, trace = alternating_ee_max(ch, cfg, seed=seed, options=options)
    termination, iterates, ee = PINNED_STOPS[budget_dbm, trial, method]
    assert (trace.termination, len(trace.iterates)) == (termination, iterates)
    assert report.ee == pytest.approx(ee, rel=1e-10)
    ee_bound = solver.phase_free_bound(cfg)[0]
    if termination == "bound":
        assert report.ee == pytest.approx(ee_bound, rel=1e-12)
    else:
        assert report.ee < ee_bound * 0.99
    if cfg.b == CONTINUOUS:
        assert_stall_trace(report, trace, ch, cfg)
    else:
        assert_search_trace(report, trace, ch, cfg)


# ee_vs_budget.scn 1-bit cells (budget dBm, trial) -> rows of each _beam_loads call, rows
# of each dinkelbach_batch call, and the termination. The first start is certified: one
# SVD of one row and no Dinkelbach. Otherwise the first sweep scores the start with its 8
# neighbours from ratio 0, and each later sweep all 8 neighbours of the point it moved to,
# from that point's ratio, less the certified ones: the second search moves three times
# and lands on a certified neighbour, the third moves once and converges.
SEARCH_CALLS = {
    (-10.0, 0): ([1], [], "bound"),
    (-15.0, 1): ([1, 8, 8, 8], [9, 8, 7], "bound"),
    (-15.0, 3): ([1, 8, 8], [9, 8], "converged"),
}


@pytest.mark.parametrize("budget_dbm, trial", sorted(SEARCH_CALLS))
def test_search_scores_only_what_the_bound_and_the_incumbent_leave_open(budget_dbm, trial,
                                                                       monkeypatch):
    ch, cfg, seed, options = budget_sweep_cell(budget_dbm, trial, "lis-1bit")
    loads, solves = [], []

    def beam_loads(channels, phi):
        loads.append(len(phi))
        return beam_loads.real(channels, phi)

    def batch(weights, *args):
        solves.append((len(weights), args[-1]))
        return dinkelbach_batch(weights, *args)

    beam_loads.real = solver._beam_loads
    monkeypatch.setattr(solver, "_beam_loads", beam_loads)
    monkeypatch.setattr(solver, "dinkelbach_batch", batch)
    report, trace = alternating_ee_max(ch, cfg, seed=seed, options=options)
    want_loads, want_rows, termination = SEARCH_CALLS[budget_dbm, trial]
    assert loads == want_loads
    assert [rows for rows, _ in solves] == want_rows
    # cold for the first sweep, then from the current point's ratio
    starts = [0.0] + [it.ee for it in trace.iterates[1:]]
    assert [start for _, start in solves] == starts[:len(want_rows)]
    assert cfg.n * ((1 << cfg.b) - 1) == 8
    assert trace.termination == termination
    assert_search_trace(report, trace, ch, cfg)


def test_search_ends_at_a_certified_neighbour_that_only_ties_the_start():
    # a local optimum of the search, and a bound crafted so that EE° is its own score and
    # only a neighbour radiates p° within the budget: no move, and "bound"
    ch, cfg, seed, options = budget_sweep_cell(-15.0, 3, "lis-1bit")
    start = alternating_ee_max(ch, cfg, seed=seed, options=options)[1].iterates[-1].phases
    terms = solver._cell_terms(cfg)
    assert solver._grid_search(ch, cfg, start, terms)[1] == "converged"
    ee, powers = bound_rule_score(ch, cfg, start)
    own = solver._beam_loads(ch, start.phi[None, :])[0]
    neighbours = np.array(list(grid_neighbours(start.theta, cfg.b)))
    others = solver._beam_loads(ch, np.exp(1j * neighbours))
    j, k = np.unravel_index(np.argmin(others / own), others.shape)
    assert others[j, k] < own[k] * (1.0 - 1e-6)
    p_bound = np.zeros(cfg.k)
    p_bound[k] = 2.0 * cfg.p_budget / (own[k] + others[j, k])
    iterates, termination = solver._grid_search(ch, cfg, start, (*terms[:3], ee, p_bound))
    assert termination == "bound" and len(iterates) == 1
    assert iterates[0].phases == start and iterates[0].ee == ee
    assert np.array_equal(iterates[0].powers.p, powers)


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_power_steps_score_certified_rows_in_closed_form(case):
    cfg = BOUND_CASES[case][0]
    terms = solver._cell_terms(cfg)
    bound = terms[3:]
    weights = bound_case_weights(case)
    weights[1] = np.inf  # a rank-deficient row
    certified = weights @ bound[1] <= cfg.p_budget * (1.0 + BUDGET_SLACK)
    assert 0 < np.count_nonzero(certified) < len(weights) - 1
    ee, powers, mask = solver._score(cfg, weights, terms)
    assert np.array_equal(mask, certified)
    assert np.all(ee[certified] == bound[0]) and np.all(powers[certified] == bound[1])
    assert ee[1] == -np.inf and not powers[1].any()
    offset = cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[cfg.b]
    for i, w in enumerate(weights):
        one_ee, one_powers, one_mask = solver._score(cfg, w[None, :], terms)
        assert one_ee[0] == ee[i] and np.array_equal(one_powers[0], powers[i])
        assert one_mask[0] == mask[i]
        if not certified[i] and i != 1:
            alloc, dtrace = dinkelbach_allocation(w, qos_min_powers(cfg), cfg.mu, cfg.sigma2,
                                                  cfg.p_budget, offset, cfg.epsilon)
            assert ee[i] == dtrace.lambdas[-1] and np.array_equal(powers[i], alloc.p)


# --------------------------------------------------------------- exhaustive

def test_exhaustive_candidate_counts():
    cfg = make_config(k=1, m=1, n=1, b=1)
    ch = sample_channels(cfg, seed=4)
    report = exhaustive_search(ch, cfg)
    assert report.outer_iterations == 2

    cfg = make_config(k=2, m=2, n=2, b=2)
    ch = sample_channels(cfg, seed=5)
    report = exhaustive_search(ch, cfg)
    assert report.outer_iterations == 16


def test_exhaustive_deterministic():
    cfg = make_config(k=2, m=2, n=3, b=1)
    ch = sample_channels(cfg, seed=6)
    a = exhaustive_search(ch, cfg)
    b = exhaustive_search(ch, cfg)
    assert a.ee == b.ee
    assert np.array_equal(a.phases.theta, b.phases.theta)
    assert np.array_equal(a.powers.p, b.powers.p)


def test_exhaustive_monotone_in_budget():
    cfg_lo = make_config(k=2, m=2, n=3, b=1, p_budget_dbm=-20.0)
    cfg_hi = make_config(k=2, m=2, n=3, b=1, p_budget_dbm=-10.0)
    for seed in range(4):
        ch = sample_channels(cfg_lo, seed=seed)
        lo = exhaustive_search(ch, cfg_lo)
        hi = exhaustive_search(ch, cfg_hi)
        if lo.feasible and hi.feasible:
            assert hi.ee >= lo.ee * (1.0 - 1e-9)


def test_exhaustive_monotone_under_qos_removal():
    constrained = make_config(k=2, m=2, n=3, b=1, r_min=0.5)
    relaxed = make_config(k=2, m=2, n=3, b=1, r_min=0.0)
    for seed in range(4):
        ch = sample_channels(constrained, seed=seed)
        with_qos = exhaustive_search(ch, constrained)
        without = exhaustive_search(ch, relaxed)
        if with_qos.feasible:
            assert without.feasible
            # slack covers ratio-iteration convergence noise, not real violations
            assert without.ee >= with_qos.ee * (1.0 - 1e-9)


def test_exhaustive_cap_refusal_names_count(monkeypatch):
    cfg = make_config(k=2, m=2, n=11, b=2)
    ch = sample_channels(cfg, seed=7)

    def no_scoring(*args):
        raise AssertionError("a candidate was scored before the cap check")

    monkeypatch.setattr(solver, "zf_svd", no_scoring)
    with pytest.raises(EnumerationCapError, match="4194304"):
        exhaustive_search(ch, cfg)


def reference_exhaustive(channels, cfg):
    """One candidate at a time, element 0 the fastest digit, each scored by bound_rule_score
    from ratio 0; keeps the first best."""
    grid = phase_grid(cfg.b)
    best = None  # (ee, theta, powers)
    for digits in itertools.product(range(1 << cfg.b), repeat=cfg.n):
        phases = PhaseConfig(theta=grid[list(reversed(digits))], resolution=cfg.b)
        ee, p = bound_rule_score(channels, cfg, phases)
        if ee > -np.inf and (best is None or ee > best[0]):
            best = (ee, phases.theta, p)
    return best


@pytest.mark.parametrize("n,b,seeds", [(2, 1, range(8)), (4, 1, range(6)), (6, 1, range(4)),
                                       (8, 1, range(2)), (3, 2, range(3))])
def test_exhaustive_matches_reference_loop(n, b, seeds):
    cfg = make_config(k=2, m=2, n=n, b=b)
    for seed in seeds:
        ch = sample_channels(cfg, seed=100 + seed)
        report = exhaustive_search(ch, cfg)
        best = reference_exhaustive(ch, cfg)
        assert report.feasible == (best is not None)
        if best is None:
            continue
        assert np.array_equal(report.phases.theta, best[1])
        assert report.ee == pytest.approx(best[0], rel=1e-12)
        assert np.array_equal(report.powers.p, best[2])


def test_exhaustive_chunk_boundaries_do_not_matter(monkeypatch):
    cfg = make_config(k=2, m=2, n=5, b=1)
    for seed in range(3):
        ch = sample_channels(cfg, seed=200 + seed)
        whole = exhaustive_search(ch, cfg)
        monkeypatch.setattr(solver, "_EXHAUSTIVE_CHUNK", 7)
        chunked = exhaustive_search(ch, cfg)
        monkeypatch.undo()
        assert chunked.ee == whole.ee
        assert np.array_equal(chunked.phases.theta, whole.phases.theta)
        assert np.array_equal(chunked.powers.p, whole.powers.p)


def test_exhaustive_numbers_candidates_with_element_zero_fastest(monkeypatch):
    cfg = make_config(k=2, m=2, n=3, b=2, pathloss=unit_pathloss(direct_loss_db=0.0))
    ch = sample_channels(cfg, seed=34)
    solved = []

    def recording(weights, *args, **kwargs):
        solved.append(weights)
        return dinkelbach_batch(weights, *args, **kwargs)

    monkeypatch.setattr(solver, "_EXHAUSTIVE_CHUNK", 7)
    monkeypatch.setattr(solver, "dinkelbach_batch", recording)
    exhaustive_search(ch, cfg)
    weights = np.concatenate(solved)
    assert weights.shape == (64, 2)
    grid = phase_grid(2)
    for i, row in enumerate(weights):
        theta = grid[[(i >> (2 * j)) & 3 for j in range(3)]]
        phases = PhaseConfig(theta=theta, resolution=2)
        expected = zf_power_weights(effective_channel(ch, phases))
        np.testing.assert_allclose(row, expected, rtol=1e-9)


@pytest.mark.parametrize("chunk", [None, 7])
def test_exhaustive_dark_surface_ties_resolve_to_index_zero(chunk, monkeypatch):
    # h1 = 0: every candidate sees the direct channel alone, so all tie
    if chunk is not None:
        monkeypatch.setattr(solver, "_EXHAUSTIVE_CHUNK", chunk)
    cfg = make_config(k=2, m=2, n=4, b=2, pathloss=unit_pathloss(direct_loss_db=0.0))
    base = sample_channels(cfg, seed=33)
    ch = ChannelSet(h1=np.zeros_like(base.h1), h2=base.h2, h=base.h)
    report = exhaustive_search(ch, cfg)
    assert report.feasible
    assert np.array_equal(report.phases.theta, np.zeros(4))
    assert report.outer_iterations == 256


def test_exhaustive_requires_finite_resolution():
    cfg = make_config(k=2, m=2, n=2, b=CONTINUOUS)
    ch = sample_channels(cfg, seed=7)
    with pytest.raises(ValueError):
        exhaustive_search(ch, cfg)


# -------------------------------------------------------------------- relay

def test_relay_alpha_zero_equals_direct_channel_allocation():
    cfg = make_config(k=2, m=3, n=4, b=1,
                      relay=RelayParams(alpha=0.0, tx_power_w=0.0))
    ch = sample_channels(cfg, seed=9)
    report = relay_baseline(ch, cfg)
    assert report.feasible
    g = zf_precoder(ch.h)
    weights = np.sum(np.abs(g) ** 2, axis=0)
    offset = cfg.k * cfg.p_c  # zero relay power
    alloc, _ = dinkelbach_allocation(weights, qos_min_powers(cfg), cfg.mu,
                                     cfg.sigma2, cfg.p_budget, offset, cfg.epsilon)
    assert np.array_equal(report.powers.p, alloc.p)


def test_relay_report_recomposition():
    cfg = make_config(k=2, m=3, n=4, b=1,
                      relay=RelayParams(alpha=0.3, tx_power_w=1e-3))
    ch = sample_channels(cfg, seed=10)
    report = relay_baseline(ch, cfg)
    assert report.feasible
    h_eff = 0.3 * (ch.h2 @ ch.h1) + ch.h
    g = zf_precoder(h_eff)
    p = report.powers.p
    gains = np.abs(h_eff @ g) ** 2
    signal = p * np.diag(gains)
    interference = gains @ p - signal
    rate = float(np.sum(np.log2(1.0 + signal / (interference + cfg.sigma2))))
    ptot = float(np.dot(cfg.mu, p)) + cfg.k * cfg.p_c + 1e-3
    assert report.sum_rate == pytest.approx(rate, rel=1e-12)
    assert report.total_power == pytest.approx(ptot, rel=1e-12)
    assert report.ee == pytest.approx(rate / ptot, rel=1e-12)
    assert report.phases is None
    assert report.method_tag == "relay"


# ---------------------------------------------------------------- rate fill

def rate_filled(ch, phases, cfg):
    report = evaluate(cfg, phases, PowerAllocation(p=np.zeros(cfg.k)), 0, "lis-1bit")
    return max_rate_power_fill(ch, report, cfg).powers


def test_max_rate_fill_equal_weights_splits_budget():
    cfg = make_config(k=2, m=2, n=3, b=1)
    rng = np.random.default_rng(11)
    ch = random_channels(rng, k=2, m=2, n=3)
    phases = PhaseConfig(theta=np.zeros(3), resolution=1)
    weights = zf_power_weights(effective_channel(ch, phases))
    alloc = rate_filled(ch, phases, cfg)
    assert float(np.dot(weights, alloc.p)) == pytest.approx(cfg.p_budget, rel=1e-9)


def test_max_rate_fill_single_user():
    cfg = make_config(k=1, m=2, n=2, b=1)
    ch = sample_channels(cfg, seed=12)
    phases = PhaseConfig(theta=np.zeros(2), resolution=1)
    w = zf_power_weights(effective_channel(ch, phases))[0]
    alloc = rate_filled(ch, phases, cfg)
    assert alloc.p[0] == pytest.approx(cfg.p_budget / w, rel=1e-9)


def test_max_rate_fill_matches_grid_oracle():
    cfg = make_config(k=2, m=3, n=3, b=1, p_budget_dbm=-17.0)
    ch = sample_channels(cfg, seed=13)
    phases = PhaseConfig(theta=np.zeros(3), resolution=1)
    weights = zf_power_weights(effective_channel(ch, phases))
    alloc = rate_filled(ch, phases, cfg)
    ours = float(np.sum(np.log2(1.0 + alloc.p / cfg.sigma2)))

    lo = np.zeros(2)
    hi = cfg.p_budget / weights
    best = -np.inf
    for _round in range(5):
        axes = [np.linspace(lo[i], hi[i], 41) for i in range(2)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        feasible = mesh @ weights <= cfg.p_budget * (1.0 + 1e-12)
        pts = mesh[feasible]
        vals = np.sum(np.log2(1.0 + pts / cfg.sigma2), axis=1)
        idx = int(np.argmax(vals))
        best = max(best, float(vals[idx]))
        span = (hi - lo) / 40.0
        lo = np.maximum(0.0, pts[idx] - span)
        hi = np.minimum(cfg.p_budget / weights, pts[idx] + span)
    assert ours >= best - 1e-6 * max(1.0, abs(best))


def test_max_rate_fill_relay_channel():
    cfg = make_config(k=2, m=3, n=3, b=1)
    ch = sample_channels(cfg, seed=14)
    alloc = max_rate_power_fill(ch, relay_baseline(ch, cfg), cfg).powers
    h_eff = cfg.relay.alpha * (ch.h2 @ ch.h1) + ch.h
    g = zf_precoder(h_eff)
    weights = np.sum(np.abs(g) ** 2, axis=0)
    assert float(np.dot(weights, alloc.p)) == pytest.approx(cfg.p_budget, rel=1e-9)


def assert_rate_filled(before, after, h_eff, fixed_draw, cfg):
    assert after.feasible
    assert after.phases == before.phases
    assert after.method_tag == before.method_tag
    assert after.outer_iterations == before.outer_iterations
    radiated = float(np.dot(after.powers.p, np.sum(np.abs(zf_precoder(h_eff)) ** 2, axis=0)))
    assert radiated == pytest.approx(cfg.p_budget, rel=1e-9)
    assert after.total_power == pytest.approx(
        float(np.dot(cfg.mu, after.powers.p)) + fixed_draw, rel=1e-12)
    assert after.ee == pytest.approx(after.sum_rate / after.total_power, rel=1e-12)


def test_max_rate_fill_relay_report():
    cfg = make_config(k=2, m=3, n=4, b=1, relay=RelayParams(alpha=0.3, tx_power_w=1e-3))
    ch = sample_channels(cfg, seed=16)
    report = relay_baseline(ch, cfg)
    assert report.feasible
    filled = max_rate_power_fill(ch, report, cfg)
    h_eff = cfg.relay.alpha * (ch.h2 @ ch.h1) + ch.h
    assert_rate_filled(report, filled, h_eff, cfg.k * cfg.p_c + cfg.relay.tx_power_w, cfg)
    assert filled.phases is None


@pytest.mark.parametrize("b", [1, 2, CONTINUOUS])
def test_max_rate_fill_surface_report(b):
    cfg = make_config(k=2, m=3, n=4, b=b)
    ch = sample_channels(cfg, seed=17)
    report, _ = alternating_ee_max(ch, cfg, seed=3)
    assert report.feasible
    filled = max_rate_power_fill(ch, report, cfg)
    h_eff = (ch.h2 * report.phases.phi) @ ch.h1 + ch.h
    assert_rate_filled(report, filled, h_eff, cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[b], cfg)
    assert filled.sum_rate >= report.sum_rate


def test_max_rate_fill_rejects_infeasible_report():
    cfg = make_config(k=2, m=2, n=2, b=1)
    ch = sample_channels(cfg, seed=15)
    with pytest.raises(ValueError):
        max_rate_power_fill(ch, SolveReport.infeasible("lis-1bit"), cfg)
