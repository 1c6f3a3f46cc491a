"""Acceptance suite: exact property checks plus desk-scale trend reproduction.

Each test prints one pass line; run with `pytest tests/test_acceptance.py -v -s`.
The desk-scale trend tests drive the scenario files under scenarios/.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    PhaseConfig,
    PowerAllocation,
    aggregate,
    alternating_ee_max,
    dinkelbach_allocation,
    effective_channel,
    emit_outputs,
    exhaustive_search,
    load_scenario,
    quantize_phases,
    run_scenario,
    sample_channels,
    sinr,
    sum_rate,
    transmit_power_used,
    zf_precoder,
)
from util import make_config, random_channels, strip_wall_column

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TWO_PI = 2.0 * np.pi


def continuous_phases(theta):
    return PhaseConfig(theta=np.asarray(theta, dtype=float), resolution=CONTINUOUS)


def random_instance(rng, k_max=6, m_max=8, n_max=12):
    k = int(rng.integers(1, k_max + 1))
    m = int(rng.integers(k, m_max + 1))
    n = int(rng.integers(max(k, 1), n_max + 1))
    ch = random_channels(rng, k=k, m=m, n=n)
    phases = continuous_phases(rng.uniform(0, TWO_PI, n))
    powers = PowerAllocation(p=rng.uniform(0.0, 1.0, k))
    return ch, phases, powers


# --------------------------------------------------------------- criterion 1

def test_criterion_1_zf_and_trace_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        ch, phases, powers = random_instance(rng)
        h_eff = effective_channel(ch, phases)
        g = zf_precoder(h_eff)
        k = h_eff.shape[0]
        assert np.linalg.norm(h_eff @ g - np.eye(k)) < 1e-8
        trace_form = float(np.trace(np.diag(powers.p) @ g.conj().T @ g).real)
        used = transmit_power_used(powers, g)
        assert abs(used - trace_form) <= 1e-10 * max(trace_form, 1e-300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[PASS] criterion 1: ZF/trace identities on 1000 instances ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_sinr_collapse_under_zf():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    sigma2 = 1e-3
    for _ in range(1000):
        ch, phases, powers = random_instance(rng)
        g = zf_precoder(effective_channel(ch, phases))
        for k in range(len(powers.p)):
            if powers.p[k] == 0.0:
                continue
            literal = sinr(k, ch, phases, g, powers, sigma2)
            simplified = powers.p[k] / sigma2
            assert abs(literal - simplified) / simplified < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: literal SINR equals p_k/sigma^2 under ZF ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 3

def grid_search_best_ee(weights, p_min, mu, sigma2, budget, offset,
                        points=17, rounds=5):
    """Adaptive box-grid maximization of the efficiency ratio (test oracle)."""
    k = len(weights)
    committed = float(np.dot(weights, p_min))
    lo = p_min.copy()
    cap = p_min + (budget - committed) / weights
    hi = cap.copy()
    best = -np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        feasible = mesh @ weights <= budget * (1.0 + 1e-12)
        pts = mesh[feasible]
        rates = np.sum(np.log2(1.0 + pts / sigma2), axis=1)
        ee = rates / (pts @ mu + offset)
        idx = int(np.argmax(ee))
        best = max(best, float(ee[idx]))
        span = (hi - lo) / (points - 1)
        center = pts[idx]
        lo = np.maximum(p_min, center - span)
        hi = np.minimum(cap, center + span)
    return best


def test_criterion_3_dinkelbach_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 3.0, k)
        p_min = rng.uniform(0.0, 5e-4, k)
        mu = rng.uniform(1.0, 1.5, k)
        sigma2 = 1e-4
        budget = float(np.dot(weights, p_min)) * 2.0 + 0.02
        offset = float(rng.uniform(1e-3, 1e-2))
        alloc, trace = dinkelbach_allocation(weights, p_min, mu, sigma2,
                                             budget, offset, epsilon=1e-9)
        lambdas = np.array(trace.lambdas)
        assert np.all(np.diff(lambdas) >= -1e-12)
        rate = float(np.sum(np.log2(1.0 + alloc.p / sigma2)))
        ee = rate / (float(np.dot(mu, alloc.p)) + offset)
        assert abs(lambdas[-1] - ee) < 0.01  # the documented accuracy setting
        oracle = grid_search_best_ee(weights, p_min, mu, sigma2, budget, offset)
        gap = abs(lambdas[-1] - oracle) / oracle
        worst = max(worst, gap)
        assert gap < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[PASS] criterion 3: Dinkelbach monotone + grid oracle, "
          f"worst gap {worst:.2e} ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_quantizer_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    angles = rng.uniform(0.0, TWO_PI, 100_000)

    # 1-bit interval rule: pi on [pi/2, 3pi/2), zero elsewhere
    expected1 = np.where((angles >= np.pi / 2) & (angles < 3 * np.pi / 2), np.pi, 0.0)
    got1 = quantize_phases(angles, 1).theta
    assert np.array_equal(got1, expected1)

    # 2-bit interval rule over quarter turns
    expected2 = np.zeros_like(angles)
    expected2[(angles >= np.pi / 4) & (angles < 3 * np.pi / 4)] = np.pi / 2
    expected2[(angles >= 3 * np.pi / 4) & (angles < 5 * np.pi / 4)] = np.pi
    expected2[(angles >= 5 * np.pi / 4) & (angles < 7 * np.pi / 4)] = 3 * np.pi / 2
    got2 = quantize_phases(angles, 2).theta
    assert np.array_equal(got2, expected2)

    for b, got in ((1, got1), (2, got2)):
        again = quantize_phases(got, b)
        assert np.array_equal(again.theta, got)  # idempotent
        step = TWO_PI / (1 << b)
        m = np.round(got / step)
        assert np.array_equal(got, m * step)  # exactly on the admissible grid
        assert np.all(m < (1 << b))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] criterion 4: quantizer interval rules exact on 1e5 angles ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_oracle_dominance_on_tiny_instances():
    t0 = time.perf_counter()
    sizes = [2, 4, 6, 8]
    gaps = []
    pairs = 0
    for i in range(50):
        n = sizes[i % len(sizes)]
        cfg = make_config(k=2, m=2, n=n, b=1)
        ch = sample_channels(cfg, seed=5000 + i)
        report, _ = alternating_ee_max(ch, cfg, seed=6000 + i)
        oracle = exhaustive_search(ch, cfg)
        assert report.ee <= oracle.ee + 1e-9
        if report.feasible and oracle.feasible:
            pairs += 1
            gaps.append((oracle.ee - report.ee) / oracle.ee)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert pairs > 0
    print(f"[PASS] criterion 5: dominance on 50 paired instances; "
          f"{pairs} feasible pairs, median gap {np.median(gaps):.2%}, "
          f"max gap {max(gaps):.2%} ({elapsed:.1f}s)")


# ------------------------------------------------------- desk-scale scenarios

@pytest.fixture(scope="module")
def budget_sweep_results():
    scenario = load_scenario(SCENARIOS / "ee_vs_budget.scn")
    t0 = time.perf_counter()
    rows = run_scenario(scenario)
    elapsed = time.perf_counter() - t0
    return scenario, rows, aggregate(rows), elapsed


@pytest.fixture(scope="module")
def element_sweep_results():
    scenario = load_scenario(SCENARIOS / "ee_vs_elements.scn")
    t0 = time.perf_counter()
    rows = run_scenario(scenario)
    elapsed = time.perf_counter() - t0
    return scenario, rows, aggregate(rows), elapsed


@pytest.fixture(scope="module")
def snr_sweep_results():
    scenario = load_scenario(SCENARIOS / "rate_vs_snr.scn")
    t0 = time.perf_counter()
    rows = run_scenario(scenario)
    elapsed = time.perf_counter() - t0
    return scenario, rows, aggregate(rows), elapsed


def curves_by_method(aggregates, values):
    by = {}
    for agg in aggregates:
        by.setdefault(agg.method, {})[agg.sweep] = agg
    out = {}
    for method, points in by.items():
        swept = [points[v] for v in values if v in points]
        out[method] = (np.array([a.mean_ee for a in swept]),
                       np.array([a.stderr_ee for a in swept]),
                       np.array([a.mean_rate for a in swept]),
                       np.array([a.stderr_rate for a in swept]))
    return out


def test_criterion_6_budget_sweep_saturation(budget_sweep_results):
    scenario, rows, aggregates, elapsed = budget_sweep_results
    assert elapsed < 600.0
    curves = curves_by_method(aggregates, scenario.values)
    for method in scenario.methods:
        mean, se, _, _ = curves[method]
        assert len(mean) == len(scenario.values), f"{method} missing sweep points"
        # non-decreasing within one standard error at every step
        for i in range(len(mean) - 1):
            slack = se[i] + se[i + 1] + 1e-6 * abs(mean[i])
            assert mean[i + 1] >= mean[i] - slack, (
                f"{method}: mean EE drops at sweep index {i}: {mean}"
            )
        # saturation: flat within one standard error at the top of the range
        slack = se[-1] + se[-2] + 1e-6 * abs(mean[-1])
        assert abs(mean[-1] - mean[-2]) <= slack, (
            f"{method}: no saturation at the top of the sweep: {mean[-2:]} (se {se[-2:]})"
        )

    # paired trials at the highest budget: 1-bit surface beats the relay
    top = max(scenario.values)
    cells = {}
    for r in rows:
        if r.sweep == top:
            cells.setdefault(r.trial, {})[r.method] = r
    wins = total = 0
    for methods in cells.values():
        a, b = methods.get("lis-1bit"), methods.get("relay")
        if a and b and a.feasible and b.feasible:
            total += 1
            wins += a.ee > b.ee
    assert total > 0
    assert wins / total >= 0.80, f"1-bit beat relay in only {wins}/{total} paired trials"
    print(f"[PASS] criterion 6: saturation for every method; 1-bit beat relay "
          f"in {wins}/{total} paired trials at the top budget ({elapsed:.0f}s)")


def test_criterion_7_element_sweep_interior_maximum(element_sweep_results):
    scenario, _, aggregates, elapsed = element_sweep_results
    assert elapsed < 600.0
    curves = curves_by_method(aggregates, scenario.values)
    interior = {}
    for method in scenario.methods:
        mean, _, _, _ = curves[method]
        assert len(mean) == len(scenario.values)
        imax = int(np.argmax(mean))
        interior[method] = (0 < imax < len(mean) - 1
                            and mean[imax] > mean[0] and mean[imax] > mean[-1])
    assert any(interior.values()), f"no interior EE maximizer found: {interior}"
    best = {m: scenario.values[int(np.argmax(curves[m][0]))] for m in scenario.methods}
    print(f"[PASS] criterion 7: interior EE maximizer exists (argmax by method: {best}, "
          f"interior: {interior}) ({elapsed:.0f}s)")


def test_criterion_8_rate_ordering_by_resolution(snr_sweep_results):
    scenario, _, aggregates, elapsed = snr_sweep_results
    assert elapsed < 600.0
    curves = curves_by_method(aggregates, scenario.values)
    order = ("lis-continuous", "lis-2bit", "lis-1bit")
    for hi, lo in zip(order, order[1:]):
        _, _, rate_hi, se_hi = curves[hi]
        _, _, rate_lo, se_lo = curves[lo]
        assert len(rate_hi) == len(rate_lo) == len(scenario.values)
        for i in range(len(scenario.values)):
            slack = np.hypot(se_hi[i], se_lo[i])
            assert rate_hi[i] >= rate_lo[i] - slack, (
                f"{hi} < {lo} at sweep {scenario.values[i]}: "
                f"{rate_hi[i]:.3f} vs {rate_lo[i]:.3f} (slack {slack:.3f})"
            )
    print(f"[PASS] criterion 8: sum-rate ordering continuous >= 2-bit >= 1-bit "
          f"at every SNR point ({elapsed:.0f}s)")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_scenario_determinism(tmp_path):
    scenario_text = (SCENARIOS / "ee_vs_budget.scn").read_text()
    small = scenario_text.replace("trials = 50", "trials = 4")
    small = small.replace("sweep.p_budget_dbm = -15,-10,-5,0,5",
                          "sweep.p_budget_dbm = -10,0")
    path = tmp_path / "small.scn"
    path.write_text(small)

    outputs = []
    for name in ("first", "second"):
        scenario = load_scenario(path)
        rows = run_scenario(scenario)
        outputs.append(emit_outputs(rows, aggregate(rows), scenario, tmp_path / name))
    a, b = outputs
    assert strip_wall_column(a["rows"]) == strip_wall_column(b["rows"])
    assert Path(a["aggregates"]).read_bytes() == Path(b["aggregates"]).read_bytes()
    assert Path(a["curves"]).read_bytes() == Path(b["curves"]).read_bytes()
    assert Path(a["manifest"]).read_bytes() == Path(b["manifest"]).read_bytes()
    print("[PASS] criterion 9: re-run yields identical outputs (wall time excluded)")
