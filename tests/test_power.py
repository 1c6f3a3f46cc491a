import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    InfeasibleError,
    NonConvergenceError,
    PhaseConfig,
    PowerAllocation,
    SingularMatrixError,
    dinkelbach_allocation,
    effective_channel,
    evaluate,
    qos_min_powers,
    sample_channels,
    solve_inner,
    transmit_power_used,
    zf_power_weights,
    zf_precoder,
)
from lisopt import power
from util import BOUND_CASES, bound_case_weights, complex_gaussian, make_config, random_channels

LN2 = np.log(2.0)
TWO_PI = 2.0 * np.pi


def continuous_phases(theta):
    return PhaseConfig(theta=np.asarray(theta, dtype=float), resolution=CONTINUOUS)


def inner_objective(p, lam, mu, sigma2, offset):
    return float(np.sum(np.log2(1.0 + p / sigma2)) - lam * (np.dot(mu, p) + offset))


def recover_budget_multiplier(p, lam, weights, p_min, mu, sigma2, p_budget):
    """Infer nu from any user strictly above its floor; 0 when the budget is slack."""
    if np.dot(weights, p) < p_budget * (1.0 - 1e-9):
        return 0.0
    free = p > p_min + 1e-15
    assert np.any(free)
    k = int(np.argmax(free))
    return (1.0 / (LN2 * (sigma2 + p[k])) - lam * mu[k]) / weights[k]


# ------------------------------------------------------------------ QoS floors

def test_qos_min_powers_reference_points():
    cfg = make_config(k=2, r_min=0.0)
    assert np.array_equal(qos_min_powers(cfg), np.zeros(2))
    cfg = make_config(k=2, sigma2=1.0, r_min=1.0, p_budget_dbm=30.0)
    assert np.allclose(qos_min_powers(cfg), [1.0, 1.0])


def test_qos_min_powers_snr_rule_identity():
    # floors from r_min = log2(1 + SNR/(2K)) equal P/(2K) exactly
    cfg = make_config(k=4, m=4, n=4)
    snr = cfg.p_budget / cfg.sigma2
    cfg2 = make_config(k=4, m=4, n=4, r_min=np.log2(1.0 + snr / 8.0))
    assert np.allclose(qos_min_powers(cfg2), cfg.p_budget / 8.0, rtol=1e-12)


# -------------------------------------------------------------------- weights

def test_zf_power_weights_unitary_channel():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(complex_gaussian(rng, (3, 3)))
    ch = ChannelSet(h1=np.zeros((2, 3), dtype=complex),
                    h2=np.zeros((3, 2), dtype=complex), h=q)
    weights = zf_power_weights(effective_channel(ch, continuous_phases(np.zeros(2))))
    assert np.allclose(weights, np.ones(3), atol=1e-10)


def test_zf_power_weights_scaling():
    rng = np.random.default_rng(1)
    ch = random_channels(rng, k=2, m=3, n=3)
    phases = continuous_phases(rng.uniform(0, TWO_PI, 3))
    base = zf_power_weights(effective_channel(ch, phases))
    c = 2.5 - 1.5j
    scaled = ChannelSet(h1=ch.h1, h2=c * ch.h2, h=c * ch.h)
    scaled_weights = zf_power_weights(effective_channel(scaled, phases))
    assert np.allclose(scaled_weights, base / abs(c) ** 2, rtol=1e-10)


def test_zf_power_weights_match_trace_form():
    rng = np.random.default_rng(2)
    ch = random_channels(rng, k=3, m=4, n=3)
    phases = continuous_phases(rng.uniform(0, TWO_PI, 3))
    h_eff = effective_channel(ch, phases)
    weights = zf_power_weights(h_eff)
    p = rng.uniform(0.1, 1.0, 3)
    g = zf_precoder(h_eff)
    trace_form = transmit_power_used(PowerAllocation(p=p), g)
    assert float(np.dot(weights, p)) == pytest.approx(trace_form, rel=1e-10)


def test_zf_power_weights_rank_deficient_channel_raises():
    row = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    h_eff = np.vstack([row, row])
    with pytest.raises(SingularMatrixError) as excinfo:
        zf_power_weights(h_eff)
    assert excinfo.value.smallest_singular_value <= excinfo.value.threshold
    assert excinfo.value.threshold == pytest.approx(
        2 * np.finfo(float).eps * np.linalg.norm(row) * np.sqrt(2), rel=1e-12)


# ---------------------------------------------------------------- inner solve

def test_inner_solve_scalar_closed_form():
    sigma2 = 0.01
    lam = 2.0
    # interior: 1/(ln2 * lam) - sigma2 within [0, budget]
    expected = 1.0 / (LN2 * lam) - sigma2
    out = solve_inner(lam, np.ones(1), np.zeros(1), np.ones(1), sigma2, p_budget=10.0)
    assert out.p[0] == pytest.approx(expected, rel=1e-12)


def test_inner_solve_clamps_at_qos_floor():
    sigma2 = 0.01
    p_min = np.array([5.0])
    out = solve_inner(50.0, np.ones(1), p_min, np.ones(1), sigma2, p_budget=10.0)
    assert out.p[0] == pytest.approx(5.0, abs=0)


def test_inner_solve_symmetric_budget_binding():
    sigma2 = 1e-4
    out = solve_inner(0.1, np.ones(2), np.zeros(2), 1.1 * np.ones(2), sigma2, p_budget=0.02)
    assert out.p[0] == pytest.approx(out.p[1], rel=1e-10)
    assert float(np.sum(out.p)) == pytest.approx(0.02, rel=1e-9)


def test_inner_solve_budget_and_floor_constraints_hold():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        weights = rng.uniform(0.5, 3.0, k)
        p_min = rng.uniform(0.0, 0.002, k)
        mu = rng.uniform(1.0, 2.0, k)
        sigma2 = 1e-3
        budget = float(np.dot(weights, p_min)) * 1.5 + 0.01
        lam = float(rng.uniform(0.0, 20.0))
        out = solve_inner(lam, weights, p_min, mu, sigma2, budget)
        assert float(np.dot(weights, out.p)) <= budget * (1.0 + 1e-9)
        assert np.all(out.p >= p_min - 1e-12)


def test_inner_solve_kkt_stationarity_residual():
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        weights = rng.uniform(0.5, 3.0, k)
        p_min = rng.uniform(0.0, 0.001, k)
        mu = rng.uniform(1.0, 2.0, k)
        sigma2 = 1e-3
        budget = 0.05
        lam = float(rng.uniform(0.1, 20.0))
        p = solve_inner(lam, weights, p_min, mu, sigma2, budget).p
        nu = recover_budget_multiplier(p, lam, weights, p_min, mu, sigma2, budget)
        assert nu >= -1e-12
        for i in range(k):
            if p[i] > p_min[i] + 1e-15:
                marginal = lam * mu[i] + nu * weights[i]
                residual = abs(1.0 / (LN2 * (sigma2 + p[i])) - marginal)
                assert residual < 1e-8 * marginal


def test_inner_solve_matches_grid_oracle():
    rng = np.random.default_rng(5)
    sigma2 = 1e-3
    for _ in range(5):
        weights = rng.uniform(0.5, 2.0, 3)
        mu = rng.uniform(1.0, 1.5, 3)
        p_min = np.zeros(3)
        budget = 0.03
        lam = float(rng.uniform(1.0, 30.0))
        out = solve_inner(lam, weights, p_min, mu, sigma2, budget)
        ours = inner_objective(out.p, lam, mu, sigma2, 0.0)

        lo = np.zeros(3)
        hi = budget / weights
        best = -np.inf
        for _round in range(4):
            axes = [np.linspace(lo[i], hi[i], 21) for i in range(3)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
            feasible = mesh @ weights <= budget * (1.0 + 1e-12)
            pts = mesh[feasible]
            vals = np.sum(np.log2(1.0 + pts / sigma2), axis=1) - lam * (pts @ mu)
            idx = int(np.argmax(vals))
            best = max(best, float(vals[idx]))
            span = (hi - lo) / 20.0
            center = pts[idx]
            lo = np.maximum(0.0, center - span)
            hi = np.minimum(budget / weights, center + span)
        assert ours >= best - 1e-6 * max(1.0, abs(best))


def test_inner_solve_infeasible_floors():
    with pytest.raises(InfeasibleError):
        solve_inner(1.0, np.ones(2), np.array([1.0, 1.0]), np.ones(2), 1e-3, p_budget=0.5)


def test_inner_solve_rejects_unbounded_setup():
    with pytest.raises(ValueError):
        solve_inner(0.0, np.array([0.0, 1.0]), np.zeros(2), np.ones(2), 1e-3, p_budget=1.0)
    with pytest.raises(ValueError):
        solve_inner(-1.0, np.ones(1), np.zeros(1), np.ones(1), 1e-3, p_budget=1.0)


def test_inner_solve_deterministic():
    weights = np.array([1.3, 0.7, 2.1])
    p_min = np.array([0.0, 1e-4, 0.0])
    mu = np.array([1.1, 1.2, 1.0])
    a = solve_inner(3.0, weights, p_min, mu, 1e-3, 0.02)
    b = solve_inner(3.0, weights, p_min, mu, 1e-3, 0.02)
    assert np.array_equal(a.p, b.p)


# ------------------------------------------------------------------ Dinkelbach

def golden_section_max(f, lo, hi, iterations=200):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iterations):
        if f(c) > f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    x = 0.5 * (a + b)
    return x, f(x)


def test_dinkelbach_single_user_matches_golden_section():
    # unit noise/weight/efficiency with a 1 W fixed offset and a loose budget
    sigma2, offset = 1.0, 1.0
    alloc, trace = dinkelbach_allocation(
        weights=np.ones(1), p_min=np.zeros(1), mu=np.ones(1), sigma2=sigma2,
        p_budget=1e6, power_offset=offset, epsilon=1e-6,
    )
    ee = trace.lambdas[-1]
    _, oracle = golden_section_max(lambda p: np.log2(1.0 + p) / (p + offset), 0.0, 100.0)
    assert ee == pytest.approx(oracle, rel=1e-4)


def test_dinkelbach_lambda_sequence_monotone():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 3.0, k)
        _, trace = dinkelbach_allocation(
            weights=weights, p_min=np.zeros(k), mu=rng.uniform(1.0, 1.5, k),
            sigma2=1e-4, p_budget=0.05, power_offset=1e-3, epsilon=1e-8,
        )
        lambdas = np.array(trace.lambdas)
        assert np.all(np.diff(lambdas) >= -1e-12)
        assert abs(lambdas[-1] - lambdas[-2]) < 1e-8 if len(lambdas) > 1 else True


def test_dinkelbach_fixed_point():
    weights = np.array([1.2, 0.8])
    mu = np.array([1.1, 1.1])
    sigma2, budget, offset = 1e-4, 0.02, 2e-3
    alloc, trace = dinkelbach_allocation(weights, np.zeros(2), mu, sigma2,
                                         budget, offset, epsilon=1e-9)
    lam = trace.lambdas[-1]
    # one more inner solve from the converged ratio moves it by less than epsilon
    again = solve_inner(lam, weights, np.zeros(2), mu, sigma2, budget)
    rate = float(np.sum(np.log2(1.0 + again.p / sigma2)))
    lam_next = rate / (float(np.dot(mu, again.p)) + offset)
    assert abs(lam_next - lam) < 1e-9


def test_dinkelbach_final_lambda_equals_ee_of_allocation():
    weights = np.array([1.0, 2.0, 0.5])
    mu = np.array([1.1, 1.3, 1.0])
    sigma2, budget, offset = 1e-4, 0.05, 5e-3
    alloc, trace = dinkelbach_allocation(weights, np.zeros(3), mu, sigma2,
                                         budget, offset, epsilon=1e-8)
    rate = float(np.sum(np.log2(1.0 + alloc.p / sigma2)))
    ee = rate / (float(np.dot(mu, alloc.p)) + offset)
    assert trace.lambdas[-1] == pytest.approx(ee, rel=1e-14)


def test_dinkelbach_respects_constraints():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 3.0, k)
        p_min = rng.uniform(0.0, 1e-3, k)
        budget = float(np.dot(weights, p_min)) * 2.0 + 0.01
        alloc, _ = dinkelbach_allocation(weights, p_min, np.full(k, 1.1), 1e-4,
                                         budget, 1e-3, epsilon=1e-6)
        assert float(np.dot(weights, alloc.p)) <= budget * (1.0 + 1e-9)
        assert np.all(alloc.p >= p_min - 1e-12)


def test_dinkelbach_infeasible_floors_raise():
    with pytest.raises(InfeasibleError):
        dinkelbach_allocation(np.ones(2), np.ones(2), np.ones(2), 1e-3,
                              p_budget=0.5, power_offset=1.0, epsilon=0.01)


def test_dinkelbach_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(power, "_DINKELBACH_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError):
        dinkelbach_allocation(np.ones(2), np.zeros(2), np.ones(2), 1e-4,
                              p_budget=0.05, power_offset=1e-3, epsilon=1e-12)


def test_dinkelbach_batch_rows_settling_at_different_updates_match_single_solves():
    weights = np.array([[1.0, 2.0, 0.5], [40.0, 0.1, 3.0], [0.02, 0.05, 0.01], [5.0, 5.0, 5.0]])
    p_min, mu = np.array([0.0, 1e-4, 0.0]), np.array([1.1, 1.3, 1.0])
    args = (p_min, mu, 1e-4, 0.002, 5e-3, 1e-9)
    lambdas, powers, iterations = power.dinkelbach_batch(weights, *args)
    # a row that settles is frozen while the others go on; the budget binds on all
    # rows but the third, so each row's figures depend on its own weights
    assert len(set(iterations.tolist())) == weights.shape[0]
    assert len(set(lambdas[-1].tolist())) == weights.shape[0]
    assert lambdas.shape == (iterations.max(), weights.shape[0])
    for i, w in enumerate(weights):
        alloc, trace = dinkelbach_allocation(w, *args)
        n = trace.iterations
        assert iterations[i] == n
        assert np.array_equal(lambdas[:n, i], trace.lambdas)
        assert np.all(lambdas[n:, i] == trace.lambdas[-1])
        assert np.array_equal(powers[i], alloc.p)


def test_dinkelbach_ratio_matches_evaluated_ee():
    cfg = make_config(k=2, m=3, n=4, b=1)
    ch = sample_channels(cfg, seed=21)
    phases = continuous_phases(np.zeros(4))
    offset = cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[cfg.b]
    alloc, trace = dinkelbach_allocation(
        zf_power_weights(effective_channel(ch, phases)), qos_min_powers(cfg), cfg.mu,
        cfg.sigma2, cfg.p_budget, offset, cfg.epsilon,
    )
    report = evaluate(cfg, phases, alloc, trace.iterations, "lis-continuous")
    assert report.total_power == pytest.approx(float(np.dot(cfg.mu, alloc.p)) + offset, rel=1e-15)
    assert report.ee == pytest.approx(trace.lambdas[-1], rel=1e-9)


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_efficiency_bound_is_dinkelbachs_fixed_point_and_bounds_every_weight_row(case):
    cfg = BOUND_CASES[case][0]
    p_min = qos_min_powers(cfg)
    offset = cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[cfg.b]
    ee, p = power.efficiency_bound(p_min, cfg.mu, cfg.sigma2, offset)
    assert np.all(p >= p_min) and (p > p_min).any()
    assert (p_min > 0.0).any() == ("floors" in case)

    def ratio(p):
        return np.log2(1.0 + p / cfg.sigma2).sum() / ((cfg.mu * p).sum() + offset)

    assert ratio(p) == ee
    # a further update does not raise the ratio
    assert ratio(np.maximum(1.0 / (LN2 * ee * cfg.mu) - cfg.sigma2, p_min)) <= ee

    weights = bound_case_weights(case)
    fits = weights @ p <= cfg.p_budget
    assert 0 < np.count_nonzero(fits) < len(weights)
    args = (p_min, cfg.mu, cfg.sigma2, cfg.p_budget, offset)
    coarse, _, iterations = power.dinkelbach_batch(weights, *args, cfg.epsilon)
    coarse = coarse[-1]
    fine = power.dinkelbach_batch(weights, *args, 1e-13 * ee)[0][-1]  # free of scale
    # rounding leaves a ratio near the fixed point up to a few ulps either side of it
    assert np.all(coarse <= ee * (1.0 + 1e-15)) and np.all(fine <= ee * (1.0 + 1e-15))
    assert np.allclose(fine[fits], ee, rtol=1e-12, atol=0.0)
    assert np.all(fine[~fits] < ee * (1.0 - 1e-12))
    if case.startswith("paper"):
        # the first ratio is below epsilon, so Dinkelbach stops there, far below EE°
        tiny = np.flatnonzero(weights.max(axis=1) < 1e-12)
        assert tiny.size and np.all(iterations[tiny] == 1) and np.all(coarse[tiny] < 0.5 * ee)


def plain_dinkelbach(weights, p_min, mu, sigma2, p_budget, offset, epsilon):
    """Dinkelbach on one weight vector from ratio 0, one solve_inner call per update:
    (ratios, powers), the ratio after each update and the last inner maximizer."""
    lam, ratios = 0.0, []
    while True:
        p = solve_inner(lam, weights[None, :], p_min, mu, sigma2, p_budget)
        ratios.append((np.log2(1.0 + p / sigma2).sum(axis=1)
                       / ((mu * p).sum(axis=1) + offset))[0])
        if abs(ratios[-1] - lam) < epsilon:
            return ratios, p[0]
        lam = ratios[-1]


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_dinkelbach_batch_start_ratio_screens_rows_that_cannot_beat_it(case):
    cfg = BOUND_CASES[case][0]
    p_min = qos_min_powers(cfg)
    offset = cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[cfg.b]
    ee_bound, p_bound = power.efficiency_bound(p_min, cfg.mu, cfg.sigma2, offset)
    weights = bound_case_weights(case)
    args = (p_min, cfg.mu, cfg.sigma2, cfg.p_budget, offset)
    epsilon = 1e-13 * ee_bound  # free of scale
    # start 0 is the plain loop, bit for bit
    lambdas, powers, iterations = power.dinkelbach_batch(weights, *args, epsilon)
    for i, w in enumerate(weights):
        ratios, p = plain_dinkelbach(w, *args, epsilon)
        assert iterations[i] == len(ratios)
        assert np.array_equal(lambdas[:len(ratios), i], ratios)
        assert np.array_equal(powers[i], p)
    assert np.array_equal(power.dinkelbach_batch(weights, *args, epsilon, 0.0)[0], lambdas)

    cold = lambdas[-1]
    budget_bound = np.sort(cold[weights @ p_bound > cfg.p_budget])
    middle = budget_bound.size // 2
    for start in (0.5 * (budget_bound[middle - 1] + budget_bound[middle]),
                  ee_bound * (1.0 + 1e-9)):
        lambdas, powers, iterations = power.dinkelbach_batch(weights, *args, epsilon, start)
        below = cold <= start
        assert below.any() and (start > ee_bound or not below.all())
        # F(start) <= 0: one update, and no ratio above the start
        assert np.all(iterations[below] == 1) and np.all(lambdas[-1, below] <= start)
        assert np.allclose(lambdas[-1, ~below], cold[~below], rtol=1e-12, atol=0.0)
        assert np.all(lambdas[-1, ~below] > start)


def test_efficiency_bound_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(power, "_DINKELBACH_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError):
        power.efficiency_bound(np.zeros(2), np.ones(2), 1e-4, 1e-3)
