import numpy as np
import pytest

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    PhaseConfig,
    PowerAllocation,
    SingularMatrixError,
    RelayParams,
    SolveReport,
    effective_channel,
    evaluate,
    phase_grid,
    sample_channels,
    sinr,
    sum_rate,
    transmit_power_used,
    zf_precoder,
)
from lisopt.model import effective_channels
from util import complex_gaussian, make_config, random_channels

TWO_PI = 2.0 * np.pi


def continuous_phases(theta):
    return PhaseConfig(theta=np.asarray(theta, dtype=float), resolution=CONTINUOUS)


# ---------------------------------------------------------------- phase types

def test_phase_grid():
    assert np.allclose(phase_grid(1), [0.0, np.pi])
    assert np.allclose(phase_grid(2), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_phase_config_finite_resolution_grid_membership():
    PhaseConfig(theta=np.array([0.0, np.pi]), resolution=1)
    with pytest.raises(ValueError):
        PhaseConfig(theta=np.array([0.1]), resolution=1)
    with pytest.raises(ValueError):
        PhaseConfig(theta=np.array([-0.1]), resolution=CONTINUOUS)
    with pytest.raises(ValueError):
        PhaseConfig(theta=np.array([TWO_PI + 0.1]), resolution=CONTINUOUS)


def test_power_allocation_validation():
    PowerAllocation(p=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        PowerAllocation(p=np.array([-1e-9]))
    with pytest.raises(ValueError):
        PowerAllocation(p=np.array([np.inf]))


def test_array_dataclasses_compare_to_bools():
    assert PowerAllocation(p=np.ones(2)) == PowerAllocation(p=np.ones(2))
    assert PowerAllocation(p=np.ones(2)) != PowerAllocation(p=np.array([1.0, 0.5]))
    assert PowerAllocation(p=np.ones(2)) != PowerAllocation(p=np.ones(3))
    one_bit = PhaseConfig(theta=np.array([0.0, np.pi]), resolution=1)
    assert one_bit == PhaseConfig(theta=np.array([0.0, np.pi]), resolution=1)
    assert one_bit != continuous_phases([0.0, np.pi])
    assert PowerAllocation(p=np.zeros(1)) != PhaseConfig(theta=np.zeros(1))


def test_solve_report_equality_with_array_and_none_fields():
    def report(phases, powers, ee=2.0):
        return SolveReport(ee=ee, sum_rate=4.0, total_power=2.0, phases=phases, powers=powers,
                           outer_iterations=3, feasible=phases is not None, method_tag="lis-1bit")

    phases = PhaseConfig(theta=np.array([0.0, np.pi]), resolution=1)
    powers = PowerAllocation(p=np.array([0.1, 0.2]))
    assert report(phases, powers) == report(PhaseConfig(theta=phases.theta.copy(), resolution=1),
                                            PowerAllocation(p=powers.p.copy()))
    assert report(phases, powers) != report(phases, PowerAllocation(p=np.array([0.1, 0.3])))
    assert report(phases, powers) != report(phases, powers, ee=2.5)
    assert report(None, None) == report(None, None)
    assert report(None, None) != report(phases, None)
    assert report(phases, None) != report(None, None)


# ---------------------------------------------------------- effective channel

def test_effective_channel_zero_surface_link():
    rng = np.random.default_rng(3)
    ch = random_channels(rng, k=2, m=3, n=4)
    ch = ChannelSet(h1=ch.h1, h2=np.zeros_like(ch.h2), h=ch.h)
    out = effective_channel(ch, continuous_phases(rng.uniform(0, TWO_PI, 4)))
    assert np.array_equal(out, ch.h)


def test_effective_channel_scalar_case():
    h1 = np.array([[2.0 + 1.0j]])
    h2 = np.array([[0.5 - 0.5j]])
    h = np.array([[1.0 + 0.0j]])
    ch = ChannelSet(h1=h1, h2=h2, h=h)
    out = effective_channel(ch, continuous_phases([0.0]))
    assert out[0, 0] == pytest.approx(h2[0, 0] * h1[0, 0] + h[0, 0])


def test_effective_channel_matches_triple_loop():
    rng = np.random.default_rng(5)
    k, m, n = 3, 2, 2
    ch = random_channels(rng, k=k, m=m, n=n)
    theta = rng.uniform(0, TWO_PI, n)
    out = effective_channel(ch, continuous_phases(theta))
    oracle = np.zeros((k, m), dtype=complex)
    for kk in range(k):
        for mm in range(m):
            acc = ch.h[kk, mm]
            for nn in range(n):
                acc += ch.h2[kk, nn] * np.exp(1j * theta[nn]) * ch.h1[nn, mm]
            oracle[kk, mm] = acc
    assert np.max(np.abs(out - oracle)) < 1e-12


@pytest.mark.parametrize("k, m, n", [(1, 1, 1), (4, 4, 8)], ids=["k1-n1", "workload"])
def test_effective_channels_rows_equal_batch_of_one_builds(k, m, n):
    rng = np.random.default_rng(11)
    ch = random_channels(rng, k=k, m=m, n=n)
    phis = np.exp(1j * rng.uniform(0, TWO_PI, (6, n)))
    batch = effective_channels(ch.h1, ch.h2, ch.h, phis)
    assert batch.shape == (6, k, m)
    for i, phi in enumerate(phis):
        assert np.array_equal(batch[i], effective_channels(ch.h1, ch.h2, ch.h, phis[i:i + 1])[0])
        assert np.array_equal(batch[i], effective_channels(ch.h1, ch.h2, ch.h, phi))
    # one channel per row, as the batched phase step passes them, builds the same bits
    per_row = [np.repeat(a[None], len(phis), axis=0) for a in (ch.h1, ch.h2, ch.h)]
    assert np.array_equal(effective_channels(*per_row, phis), batch)


def test_effective_channel_dimension_mismatch():
    rng = np.random.default_rng(0)
    ch = random_channels(rng, k=2, m=2, n=4)
    with pytest.raises(ValueError):
        effective_channel(ch, continuous_phases(np.zeros(3)))


# ------------------------------------------------------------------ precoder

def test_zf_precoder_square_inverse():
    rng = np.random.default_rng(1)
    h_eff = complex_gaussian(rng, (3, 3))
    g = zf_precoder(h_eff)
    assert np.max(np.abs(g - np.linalg.inv(h_eff))) < 1e-10
    assert np.max(np.abs(h_eff @ g - np.eye(3))) < 1e-10


def test_zf_precoder_orthonormal_rows_with_padding():
    h_eff = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    g = zf_precoder(h_eff)
    assert np.max(np.abs(g - h_eff.conj().T)) < 1e-12
    assert np.max(np.abs(h_eff @ g - np.eye(2))) < 1e-12


def test_zf_precoder_wide_residual():
    rng = np.random.default_rng(2)
    h_eff = complex_gaussian(rng, (4, 6))
    g = zf_precoder(h_eff)
    assert np.linalg.norm(h_eff @ g - np.eye(4)) < 1e-10


def test_zf_identity_property():
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(k, 7))
        h_eff = complex_gaussian(rng, (k, m))
        g = zf_precoder(h_eff)
        assert np.linalg.norm(h_eff @ g - np.eye(k)) < 1e-8


def test_zf_precoder_rejects_wrong_orientation():
    with pytest.raises(ValueError):
        zf_precoder(np.ones((3, 2), dtype=complex))


def test_zf_precoder_rank_deficiency():
    row = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    h_eff = np.vstack([row, row])
    with pytest.raises(SingularMatrixError) as excinfo:
        zf_precoder(h_eff)
    assert excinfo.value.smallest_singular_value <= excinfo.value.threshold


# ------------------------------------------------------------------ SINR/rate

def test_sinr_zf_collapses_to_power_over_noise():
    rng = np.random.default_rng(10)
    cfg = make_config(k=3, m=4, n=4)
    ch = random_channels(rng, k=3, m=4, n=4)
    phases = continuous_phases(rng.uniform(0, TWO_PI, 4))
    g = zf_precoder(effective_channel(ch, phases))
    powers = PowerAllocation(p=np.array([1e-3, 2e-3, 5e-4]))
    for k in range(3):
        expected = powers.p[k] / cfg.sigma2
        got = sinr(k, ch, phases, g, powers, cfg.sigma2)
        assert abs(got - expected) / expected < 1e-8


def test_sinr_zero_power_is_zero():
    rng = np.random.default_rng(11)
    ch = random_channels(rng, k=2, m=2, n=2)
    phases = continuous_phases(np.zeros(2))
    g = zf_precoder(effective_channel(ch, phases))
    powers = PowerAllocation(p=np.array([0.0, 1e-3]))
    assert sinr(0, ch, phases, g, powers, 1e-4) == 0.0


def test_sinr_matches_scalar_oracle_for_arbitrary_precoder():
    rng = np.random.default_rng(12)
    k_users, m, n = 3, 3, 4
    ch = random_channels(rng, k=k_users, m=m, n=n)
    theta = rng.uniform(0, TWO_PI, n)
    phases = continuous_phases(theta)
    g = complex_gaussian(rng, (m, k_users))  # not a ZF precoder
    p = rng.uniform(0.1, 1.0, k_users)
    sigma2 = 0.05
    h_eff = effective_channel(ch, phases)

    def beam_gain(k, i):
        acc = 0.0 + 0.0j
        for mm in range(m):
            acc += h_eff[k, mm] * g[mm, i]
        return abs(acc) ** 2

    for k in range(k_users):
        num = p[k] * beam_gain(k, k)
        den = sigma2
        for i in range(k_users):
            if i != k:
                den += p[i] * beam_gain(k, i)
        got = sinr(k, ch, phases, g, PowerAllocation(p=p), sigma2)
        assert got == pytest.approx(num / den, rel=1e-12)


def test_sinr_index_out_of_range():
    rng = np.random.default_rng(13)
    ch = random_channels(rng, k=2, m=2, n=2)
    phases = continuous_phases(np.zeros(2))
    g = zf_precoder(effective_channel(ch, phases))
    with pytest.raises(IndexError):
        sinr(5, ch, phases, g, PowerAllocation(p=np.array([1.0, 1.0])), 1.0)


def test_sum_rate_zero_powers():
    rng = np.random.default_rng(14)
    ch = random_channels(rng, k=2, m=2, n=2)
    h_eff = effective_channel(ch, continuous_phases(np.zeros(2)))
    g = zf_precoder(h_eff)
    assert sum_rate(h_eff, g, PowerAllocation(p=np.zeros(2)), 1e-4) == 0.0


def test_sum_rate_single_user_unit_snr():
    rng = np.random.default_rng(15)
    ch = random_channels(rng, k=1, m=2, n=2)
    h_eff = effective_channel(ch, continuous_phases(np.zeros(2)))
    g = zf_precoder(h_eff)
    sigma2 = 1e-4
    rate = sum_rate(h_eff, g, PowerAllocation(p=np.array([sigma2])), sigma2)
    assert rate == pytest.approx(1.0, rel=1e-9)


def test_sum_rate_two_users_reference_value():
    rng = np.random.default_rng(16)
    ch = random_channels(rng, k=2, m=3, n=2)
    h_eff = effective_channel(ch, continuous_phases(np.zeros(2)))
    g = zf_precoder(h_eff)
    sigma2 = 1e-4
    powers = PowerAllocation(p=sigma2 * np.array([3.0, 7.0]))
    # log2(4) + log2(8) = 5
    assert sum_rate(h_eff, g, powers, sigma2) == pytest.approx(5.0, rel=1e-9)


# --------------------------------------------------------------------- power

def test_transmit_power_orthonormal_columns():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(complex_gaussian(rng, (4, 3)))
    powers = PowerAllocation(p=np.array([0.2, 0.3, 0.5]))
    assert transmit_power_used(powers, q) == pytest.approx(1.0, rel=1e-12)
    assert transmit_power_used(PowerAllocation(p=np.zeros(3)), q) == 0.0


def test_transmit_power_matches_trace_form():
    rng = np.random.default_rng(18)
    for _ in range(50):
        k, m = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        g = complex_gaussian(rng, (m, k))
        p = rng.uniform(0.0, 2.0, k)
        powers = PowerAllocation(p=p)
        trace_form = float(np.trace(np.diag(p) @ g.conj().T @ g).real)
        assert transmit_power_used(powers, g) == pytest.approx(trace_form, rel=1e-12)


def evaluate_surface(cfg, phases, powers):
    return evaluate(cfg, phases, powers, 0, "lis-1bit")


def test_consumed_power_arithmetic():
    # 2 users at 1 W with mu 1.1, 0.5 W circuit each, a relay that draws nothing
    cfg = make_config(k=2, m=2, n=2, mu=1.1, p_c=0.5, relay=RelayParams(alpha=0.3, tx_power_w=0.0))
    report = evaluate(cfg, None, PowerAllocation(p=np.ones(2)), 0, "relay")
    assert report.total_power == pytest.approx(3.2, rel=1e-15)


def test_total_power_offsets_only():
    cfg = make_config(k=1, m=1, n=1)
    phases = continuous_phases(np.zeros(1))
    report = evaluate_surface(cfg, phases, PowerAllocation(p=np.zeros(1)))
    assert report.total_power == pytest.approx(cfg.p_c + cfg.p_n_of_b[1], rel=1e-15)


def test_total_power_missing_resolution_entry():
    with pytest.raises(ValueError, match="p_n_of_b has no entry"):
        make_config(p_n_of_b={2: 1.0})
    cfg = make_config()
    cfg.p_n_of_b = {2: 1.0}  # bypass construction-time validation
    with pytest.raises(KeyError):
        evaluate_surface(cfg, continuous_phases(np.zeros(4)), PowerAllocation(p=np.zeros(2)))


# ---------------------------------------------------------------- efficiency

def test_energy_efficiency_zero_powers():
    cfg = make_config(k=2, m=2, n=4)
    phases = continuous_phases(np.zeros(4))
    assert evaluate_surface(cfg, phases, PowerAllocation(p=np.zeros(2))).ee == 0.0


def test_energy_efficiency_is_rate_over_power():
    rng = np.random.default_rng(19)
    cfg = make_config(k=2, m=3, n=4)
    ch = sample_channels(cfg, seed=4)
    phases = continuous_phases(rng.uniform(0, TWO_PI, 4))
    powers = PowerAllocation(p=np.array([1e-3, 2e-3]))
    h_eff = effective_channel(ch, phases)
    rate = sum_rate(h_eff, zf_precoder(h_eff), powers, cfg.sigma2)
    consumed = float(np.dot(cfg.mu, powers.p)) + cfg.k * cfg.p_c + cfg.n * cfg.p_n_of_b[1]
    report = evaluate_surface(cfg, phases, powers)
    assert report.sum_rate == pytest.approx(rate, rel=1e-12)
    assert report.total_power == pytest.approx(consumed, rel=1e-12)
    assert report.ee == pytest.approx(rate / consumed, rel=1e-12)
    assert report.phases == phases and report.powers == powers and report.feasible


def test_energy_efficiency_single_user_toy_ratio():
    # engineered so the rate is 1 bit/s/Hz and the total consumption 2 W
    sigma2 = 1e-4
    p_n = 0.5
    cfg = make_config(k=1, m=2, n=1, b=1, sigma2=sigma2, mu=1.0,
                      p_c=2.0 - sigma2 - p_n,
                      p_n_of_b={1: p_n, 2: p_n, CONTINUOUS: p_n})
    phases = continuous_phases(np.zeros(1))
    powers = PowerAllocation(p=np.array([sigma2]))  # unit post-ZF SNR
    assert evaluate_surface(cfg, phases, powers).ee == pytest.approx(0.5, rel=1e-9)


def test_energy_efficiency_circuit_power_scaling():
    cfg = make_config(k=2, m=3, n=4)
    phases = continuous_phases(np.zeros(4))
    powers = PowerAllocation(p=np.array([1e-3, 2e-3]))
    base = evaluate_surface(cfg, phases, powers)
    doubled = evaluate_surface(make_config(k=2, m=3, n=4, p_c=2 * cfg.p_c), phases, powers)
    # same rate; consumption differs by exactly k * p_c
    assert doubled.sum_rate == base.sum_rate
    assert doubled.total_power - base.total_power == pytest.approx(cfg.k * cfg.p_c, rel=1e-12)
    assert doubled.ee == pytest.approx(base.ee * base.total_power / doubled.total_power, rel=1e-12)
