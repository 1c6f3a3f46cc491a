import itertools
from pathlib import Path

import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    EnumerationCapError,
    InfeasibleError,
    PhaseConfig,
    PowerAllocation,
    RelayParams,
    SingularMatrixError,
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
    zf_power_weights,
    zf_precoder,
)
from lisopt import cli, load_scenario, scenario_from_pairs, solver
from lisopt.harness import _config_at, _method_config
from lisopt.power import dinkelbach_batch
from util import assert_stall_trace, make_config, random_channels, unit_pathloss

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TWO_PI = 2.0 * np.pi


def zeroed_surface(channels):
    return ChannelSet(h1=channels.h1, h2=np.zeros_like(channels.h2), h=channels.h)


# ------------------------------------------------------------- alternating

def test_alternating_decouples_when_surface_is_dark():
    # strong direct channel so uniform starting powers pass the budget gate
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
    # starving the budget makes the first feasibility gate fail
    cfg = make_config(k=2, m=2, n=2, b=1, p_budget_dbm=-140.0,
                      r_min=5.0)
    ch = sample_channels(cfg, seed=2)
    report, trace = alternating_ee_max(ch, cfg, seed=2)
    assert not report.feasible
    assert report.ee == 0.0
    assert trace.termination == "infeasible"


ORACLE_CHECK_SIZES = (2, 4, 6, 8, 10, 12)


def oracle_check_draws(sizes, instances, seed=7):
    """(config, instance, channel seed, solver seed), drawn as `lisopt oracle-check` draws."""
    rng = np.random.default_rng(seed)
    for size in sizes:
        cfg = scenario_from_pairs({**cli._ORACLE_PAIRS, "n": str(size)}).config
        for index in range(instances):
            channel_seed = int(rng.integers(2 ** 63))
            solver_seed = int(rng.integers(2 ** 63))
            yield cfg, index, channel_seed, solver_seed


@pytest.mark.parametrize("n", [2, 12])
def test_alternating_stops_when_efficiency_stops_rising(n):
    # the draws of oracle-check --sizes 2,4,6,8,10,12 --instances 30 --seed 7;
    # tests on the phase and power change ended 3 of the 30 solves at n=2 and
    # 3 at n=12 as converged after one iterate
    for cfg, _, channel_seed, solver_seed in oracle_check_draws(ORACLE_CHECK_SIZES, 30):
        if cfg.n == n:
            ch = sample_channels(cfg, channel_seed)
            assert_stall_trace(*alternating_ee_max(ch, cfg, seed=solver_seed))


def test_alternating_continues_past_unmoved_start_phases():
    # instance 26 at n=12 of the draws above: the first phase step keeps the
    # zero start phases, where a phase-change test stops (at EE 788.76)
    cfg, _, channel_seed, solver_seed = next(
        d for d in oracle_check_draws(ORACLE_CHECK_SIZES, 30) if d[0].n == 12 and d[1] == 26)
    report, trace = alternating_ee_max(sample_channels(cfg, channel_seed), cfg,
                                       seed=solver_seed)
    assert_stall_trace(report, trace)
    assert not np.any(trace.iterates[0].phases.theta)
    assert trace.termination == "converged"
    assert report.ee > trace.iterates[0].ee * 1.1


def test_alternating_stall_rule_on_element_sweep_cell():
    # ee_vs_elements cell n=8, trial 4: lis-1bit reaches an efficiency
    # plateau, where tests on the phase and power change ran 5 more iterates
    scenario = load_scenario(SCENARIOS / "ee_vs_elements.scn")
    index = scenario.values.index(8)
    ss = np.random.SeedSequence(scenario.master_seed, spawn_key=(index, 4))
    channel_seed, solver_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
    cfg = _config_at(scenario, 8)
    ch = sample_channels(cfg, channel_seed)
    for method in scenario.methods:
        report, trace = alternating_ee_max(
            ch, _method_config(cfg, method), seed=solver_seed,
            options=scenario.phase_options, max_outer=scenario.max_outer,
        )
        assert report.feasible
        assert_stall_trace(report, trace)


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


def test_exhaustive_cap_refusal_names_count():
    cfg = make_config(k=2, m=2, n=2, b=2)
    ch = sample_channels(cfg, seed=7)
    with pytest.raises(EnumerationCapError, match="16"):
        exhaustive_search(ch, cfg, enumeration_cap=10)


def reference_exhaustive(channels, cfg):
    """One candidate at a time, element 0 the fastest digit; keeps the first best."""
    grid = phase_grid(cfg.b)
    offset = cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[cfg.b]
    best = None  # (ee, theta, powers)
    for digits in itertools.product(range(1 << cfg.b), repeat=cfg.n):
        phases = PhaseConfig(theta=grid[list(reversed(digits))], resolution=cfg.b)
        try:
            weights = zf_power_weights(effective_channel(channels, phases))
            alloc, trace = dinkelbach_allocation(weights, qos_min_powers(cfg), cfg.mu,
                                                 cfg.sigma2, cfg.p_budget, offset, cfg.epsilon)
        except (SingularMatrixError, InfeasibleError):
            continue
        if best is None or trace.lambdas[-1] > best[0]:
            best = (trace.lambdas[-1], phases.theta, alloc.p)
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
        np.testing.assert_allclose(report.powers.p, best[2], rtol=1e-12)


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
    report = evaluate(ch, cfg, phases, PowerAllocation(p=np.zeros(cfg.k)), 0, "lis-1bit")
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
