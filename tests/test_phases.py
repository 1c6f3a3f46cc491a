import itertools

import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    PhaseConfig,
    PhaseOptimizationError,
    PowerAllocation,
    RelaxedSolveOptions,
    effective_channel,
    quantize_phases,
    solve_phase_subproblem,
    solve_relaxed,
    trace_objective,
    trace_values,
    transmit_power_used,
    zf_precoder,
)
from util import complex_gaussian, random_channels

TWO_PI = 2.0 * np.pi


def continuous_phases(theta):
    return PhaseConfig(theta=np.asarray(theta, dtype=float), resolution=CONTINUOUS)


# ------------------------------------------------------------- trace objective

def test_trace_objective_unitary_channel():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(complex_gaussian(rng, (3, 3)))
    ch = ChannelSet(h1=np.zeros((2, 3), dtype=complex),
                    h2=np.zeros((3, 2), dtype=complex), h=q)
    powers = PowerAllocation(p=np.array([0.2, 0.5, 0.3]))
    value = trace_objective(np.zeros(2), ch, powers)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_trace_objective_zero_powers():
    rng = np.random.default_rng(1)
    ch = random_channels(rng, k=2, m=2, n=3)
    assert trace_objective(rng.uniform(0, TWO_PI, 3), ch, PowerAllocation(p=np.zeros(2))) == 0.0


def test_trace_objective_matches_core_model_composition():
    rng = np.random.default_rng(2)
    ch = random_channels(rng, k=2, m=3, n=2)
    powers = PowerAllocation(p=np.array([0.4, 0.7]))
    theta = rng.uniform(0, TWO_PI, 2)
    direct = transmit_power_used(powers, zf_precoder(effective_channel(ch, continuous_phases(theta))))
    assert trace_objective(theta, ch, powers) == pytest.approx(direct, rel=1e-10)


def test_trace_objective_rank_deficiency_maps_to_infinity():
    row = np.array([1.0 + 0.5j, 0.3 - 0.2j])
    ch = ChannelSet(h1=np.zeros((2, 2), dtype=complex),
                    h2=np.zeros((2, 2), dtype=complex),
                    h=np.vstack([row, row]))
    value = trace_objective(np.zeros(2), ch, PowerAllocation(p=np.ones(2)))
    assert np.isinf(value)


def test_trace_values_batched_agrees_with_single_point():
    rng = np.random.default_rng(3)
    ch = random_channels(rng, k=2, m=3, n=4)
    powers = PowerAllocation(p=np.array([0.1, 0.9]))
    thetas = rng.uniform(0, TWO_PI, (7, 4))
    batch = trace_values(thetas, ch, powers)
    for i in range(7):
        assert batch[i] == pytest.approx(trace_objective(thetas[i], ch, powers), rel=1e-12)


def test_trace_objective_global_rotation_invariance_degenerate_case():
    # single user with no direct path: rotating every surface-user entry by a
    # common phase leaves the needed transmit power unchanged
    rng = np.random.default_rng(4)
    h1 = complex_gaussian(rng, (3, 2))
    h2 = complex_gaussian(rng, (1, 3))
    ch = ChannelSet(h1=h1, h2=h2, h=np.zeros((1, 2), dtype=complex))
    powers = PowerAllocation(p=np.array([0.8]))
    theta = rng.uniform(0, TWO_PI, 3)
    base = trace_objective(theta, ch, powers)
    for psi in (0.3, 1.7, 5.1):
        rotated = ChannelSet(h1=h1, h2=np.exp(1j * psi) * h2, h=ch.h)
        assert trace_objective(theta, rotated, powers) == pytest.approx(base, rel=1e-10)


# ------------------------------------------------------------- relaxed solver

def test_solve_relaxed_flat_landscape_returns_warm_start():
    rng = np.random.default_rng(5)
    ch = random_channels(rng, k=2, m=3, n=4)
    ch = ChannelSet(h1=ch.h1, h2=np.zeros_like(ch.h2), h=ch.h)
    warm = rng.uniform(0, TWO_PI, 4)
    powers = PowerAllocation(p=np.array([0.1, 0.2]))
    out, _ = solve_relaxed(ch, powers, warm_start=warm, seed=0)
    assert np.array_equal(out, warm)


def test_solve_relaxed_descent_contract():
    rng = np.random.default_rng(6)
    for seed in range(5):
        ch = random_channels(rng, k=2, m=2, n=4)
        powers = PowerAllocation(p=np.array([0.3, 0.4]))
        warm = rng.uniform(0, TWO_PI, 4)
        out, value = solve_relaxed(ch, powers, warm_start=warm, seed=seed)
        assert value <= trace_objective(warm, ch, powers) + 1e-12


def test_solve_relaxed_scalar_instance_matches_grid_scan():
    rng = np.random.default_rng(7)
    ch = random_channels(rng, k=1, m=1, n=1)
    powers = PowerAllocation(p=np.array([0.5]))
    _, got = solve_relaxed(ch, powers, warm_start=np.zeros(1), seed=1)
    grid = np.linspace(0.0, TWO_PI, 10_000)
    best = trace_values(grid[:, None], ch, powers).min()
    assert got <= best + 1e-4 * abs(best)


def test_one_start_solve_builds_no_generator(monkeypatch):
    rng = np.random.default_rng(8)
    ch = random_channels(rng, k=2, m=3, n=4)
    powers = PowerAllocation(p=np.array([0.2, 0.3]))
    warm = rng.uniform(0, TWO_PI, 4)
    one_start = RelaxedSolveOptions(num_restarts=1)

    def no_generator(seed=None):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    theta, value = solve_relaxed(ch, powers, warm, one_start, seed=3)
    other_theta, other_value = solve_relaxed(ch, powers, warm, one_start, seed=11)
    assert np.array_equal(theta, other_theta) and value == other_value


def test_solve_relaxed_all_singular_raises():
    # no surface link and a rank-deficient direct channel: singular everywhere
    row = np.array([1.0 + 0.0j, 1.0 - 1.0j])
    ch = ChannelSet(h1=np.zeros((2, 2), dtype=complex),
                    h2=np.zeros((2, 2), dtype=complex),
                    h=np.vstack([row, row]))
    with pytest.raises(PhaseOptimizationError):
        solve_relaxed(ch, PowerAllocation(p=np.ones(2)), warm_start=np.zeros(2), seed=0)


def test_relaxed_options_validation():
    with pytest.raises(ValueError):
        RelaxedSolveOptions(num_restarts=0)
    with pytest.raises(ValueError):
        RelaxedSolveOptions(max_iterations=0)


# ----------------------------------------------------------------- quantizer

def one_bit_interval_rule(theta):
    # 1-bit rule: zero on [0, pi/2) and [3pi/2, 2pi), pi on [pi/2, 3pi/2)
    if np.pi / 2 <= theta < 3 * np.pi / 2:
        return np.pi
    return 0.0


def two_bit_interval_rule(theta):
    # 2-bit rule over the four quarter-turn intervals
    if np.pi / 4 <= theta < 3 * np.pi / 4:
        return np.pi / 2
    if 3 * np.pi / 4 <= theta < 5 * np.pi / 4:
        return np.pi
    if 5 * np.pi / 4 <= theta < 7 * np.pi / 4:
        return 3 * np.pi / 2
    return 0.0


def test_quantize_one_bit_reference_points():
    out = quantize_phases(np.array([0.1, 3 * np.pi / 2, np.pi / 2]), 1)
    assert np.array_equal(out.theta, [0.0, 0.0, np.pi])
    assert out.resolution == 1


def test_quantize_two_bit_reference_points():
    out = quantize_phases(np.array([np.pi / 4, 7 * np.pi / 4]), 2)
    assert np.array_equal(out.theta, [np.pi / 2, 0.0])


def test_quantize_three_bit_fixed_points():
    grid = TWO_PI * np.arange(8) / 8.0
    out = quantize_phases(grid, 3)
    assert np.array_equal(out.theta, grid)


def test_quantize_wraps_full_turn_to_zero():
    assert quantize_phases(np.array([TWO_PI]), 1).theta[0] == 0.0
    assert quantize_phases(np.array([TWO_PI]), 2).theta[0] == 0.0


def test_quantize_matches_interval_rules_on_dense_sample():
    rng = np.random.default_rng(8)
    angles = rng.uniform(0.0, TWO_PI, 100_000)
    got1 = quantize_phases(angles, 1).theta
    got2 = quantize_phases(angles, 2).theta
    expected1 = np.array([one_bit_interval_rule(t) for t in angles])
    expected2 = np.array([two_bit_interval_rule(t) for t in angles])
    assert np.array_equal(got1, expected1)
    assert np.array_equal(got2, expected2)


def test_quantize_idempotent_and_feasible():
    rng = np.random.default_rng(9)
    angles = rng.uniform(0.0, TWO_PI, 1000)
    for b in (1, 2, 3, 4):
        once = quantize_phases(angles, b)
        twice = quantize_phases(once.theta, b)
        assert np.array_equal(once.theta, twice.theta)
        step = TWO_PI / (1 << b)
        m = np.round(once.theta / step)
        assert np.array_equal(once.theta, m * step)
        assert np.all(m < (1 << b))


def test_quantize_rejects_bad_resolution():
    with pytest.raises(ValueError):
        quantize_phases(np.zeros(2), 0)


# ---------------------------------------------------------------- feasibility

def test_check_feasibility_trivial_cases():
    rng = np.random.default_rng(10)
    ch = random_channels(rng, k=2, m=2, n=3)
    quiet = solve_phase_subproblem(ch, PowerAllocation(p=np.zeros(2)), np.zeros(3), 1e-6)
    assert quiet.feasible
    loud = solve_phase_subproblem(ch, PowerAllocation(p=np.ones(2)), np.zeros(3), 0.0)
    assert not loud.feasible


def test_check_feasibility_matches_direct_inequality():
    # the reported objectives are the relaxed point's trace_objective bit for bit
    rng = np.random.default_rng(11)
    for seed, (k, m, n) in enumerate([(2, 3, 3)] * 10 + [(1, 1, 1)] * 3):
        ch = random_channels(rng, k=k, m=m, n=n)
        theta = rng.uniform(0, TWO_PI, n)
        powers = PowerAllocation(p=rng.uniform(0, 0.1, k))
        budget = float(rng.uniform(0.01, 2.0))
        outcome = solve_phase_subproblem(ch, powers, theta, budget, seed=seed)
        objective = trace_objective(outcome.phases.theta, ch, powers)
        assert outcome.objective == objective
        relaxed, value = solve_relaxed(ch, powers, warm_start=theta, seed=seed)
        assert value == trace_objective(relaxed, ch, powers) == objective
        assert outcome.feasible == (objective <= budget * (1.0 + 1e-9))


# ------------------------------------------------------------- subproblem

def test_subproblem_returns_the_relaxed_solution():
    rng = np.random.default_rng(12)
    ch = random_channels(rng, k=2, m=2, n=4)
    powers = PowerAllocation(p=np.array([0.01, 0.02]))
    out = solve_phase_subproblem(ch, powers, warm_start=np.zeros(4), p_budget=10.0, seed=3)
    relaxed, value = solve_relaxed(ch, powers, warm_start=np.zeros(4), seed=3)
    assert np.array_equal(out.phases.theta, relaxed)
    assert out.phases.resolution == CONTINUOUS
    assert out.objective == value == trace_objective(relaxed, ch, powers)


def test_subproblem_one_bit_dominated_by_exhaustive_minimum():
    rng = np.random.default_rng(13)
    for seed in range(5):
        ch = random_channels(rng, k=2, m=2, n=2)
        powers = PowerAllocation(p=np.array([0.05, 0.03]))
        out = solve_phase_subproblem(ch, powers, warm_start=np.zeros(2),
                                     p_budget=10.0, seed=seed)
        quantized = trace_objective(quantize_phases(out.phases.theta, 1).theta, ch, powers)
        candidates = np.array(list(itertools.product([0.0, np.pi], repeat=2)))
        oracle = trace_values(candidates, ch, powers).min()
        assert quantized >= oracle - 1e-12


def test_subproblem_zero_surface_feasibility_from_direct_channel():
    rng = np.random.default_rng(14)
    ch = random_channels(rng, k=2, m=3, n=4)
    ch = ChannelSet(h1=ch.h1, h2=np.zeros_like(ch.h2), h=ch.h)
    powers = PowerAllocation(p=np.array([0.02, 0.04]))
    direct_power = trace_objective(np.zeros(4), ch, powers)
    out = solve_phase_subproblem(ch, powers, warm_start=np.zeros(4),
                                 p_budget=2.0 * direct_power, seed=0)
    assert out.feasible
    tight = solve_phase_subproblem(ch, powers, warm_start=np.zeros(4),
                                   p_budget=0.5 * direct_power, seed=0)
    assert not tight.feasible


def test_exhaustive_trace_enumeration_lower_bounds_quantized_objective():
    rng = np.random.default_rng(15)
    n = 6
    ch = random_channels(rng, k=2, m=2, n=n)
    powers = PowerAllocation(p=np.array([0.05, 0.02]))
    out = solve_phase_subproblem(ch, powers, warm_start=np.zeros(n),
                                 p_budget=10.0, seed=4)
    quantized = trace_objective(quantize_phases(out.phases.theta, 1).theta, ch, powers)
    candidates = np.array(list(itertools.product([0.0, np.pi], repeat=n)))
    oracle = trace_values(candidates, ch, powers).min()
    assert oracle <= quantized + 1e-9
