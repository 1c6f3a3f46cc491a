"""Property tests of a whole alternating solve on random instances.

Instances have K <= M <= 3, N <= 6 and b in {1, 2}, at desk scale (-10 dBm
noise, 0 dBm circuit power) and at paper scale (-100 dBm noise, 100 dBm
circuit power). Channels are distance-flat unit-variance draws, so the
uniform start powers can pass the phase step's budget gate. Every feasible
report is checked against the budget, the QoS floors, its own efficiency,
the exhaustive oracle and the stopping rule. The relay baseline and the
max-rate fill of both are checked against the budget, the floors, their
efficiency and their power draw, and every surface report against the ZF
SINR p_k / sigma2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisopt import (
    SystemConfig,
    alternating_ee_max,
    dbm_to_watts,
    effective_channel,
    exhaustive_search,
    max_rate_power_fill,
    qos_min_powers,
    relay_baseline,
    sample_channels,
    sinr,
    trace_objective,
    zf_power_weights,
    zf_precoder,
)
from util import assert_stall_trace, make_config, unit_pathloss

SCALES = {
    "desk": lambda **fields: make_config(**fields),
    "paper": lambda p_budget_dbm, **fields: SystemConfig(
        p_budget=dbm_to_watts(p_budget_dbm), sigma2=dbm_to_watts(-100.0),
        pathloss=unit_pathloss(), **fields),
}

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def instances(draw, scale):
    k = draw(st.integers(1, 3))
    cfg = SCALES[scale](
        k=k, m=draw(st.integers(k, 3)), n=draw(st.integers(k, 6)), b=draw(st.sampled_from([1, 2])),
        p_budget_dbm=draw(st.floats(-20.0, 0.0)),
        r_min=draw(st.just(0.0) | st.floats(0.0, 2.0)),
    )
    seeds = st.integers(0, 2 ** 32 - 1)
    return cfg, sample_channels(cfg, draw(seeds)), draw(seeds)


@pytest.mark.parametrize("scale", sorted(SCALES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_alternating_solve_properties(scale, data):
    cfg, channels, seed = data.draw(instances(scale))
    report, trace = alternating_ee_max(channels, cfg, seed=seed)
    assert_stall_trace(report, trace)
    if not report.feasible:
        return
    assert trace_objective(report.phases.theta, channels, report.powers) \
        <= cfg.p_budget * (1.0 + 1e-9)
    assert np.all(report.powers.p >= qos_min_powers(cfg))
    assert report.ee == pytest.approx(report.sum_rate / report.total_power, rel=1e-12)
    oracle = exhaustive_search(channels, cfg)
    assert oracle.feasible
    assert report.ee <= oracle.ee * (1.0 + 1e-9)


@pytest.mark.parametrize("scale", sorted(SCALES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_relay_and_rate_fill_properties(scale, data):
    cfg, channels, seed = data.draw(instances(scale))
    surface, _ = alternating_ee_max(channels, cfg, seed=seed)
    relay = relay_baseline(channels, cfg)
    reports = [r for r in (surface, relay) if r.feasible]
    reports += [max_rate_power_fill(channels, r, cfg) for r in reports]
    for report in reports:
        p = report.powers.p
        if report.phases is None:
            h_eff = cfg.relay.alpha * (channels.h2 @ channels.h1) + channels.h
            fixed = cfg.relay.tx_power_w
        else:
            h_eff = effective_channel(channels, report.phases)
            fixed = cfg.n * cfg.p_n_of_b[cfg.b]
        assert zf_power_weights(h_eff) @ p <= cfg.p_budget * (1.0 + 1e-9)
        assert np.all(p >= qos_min_powers(cfg))
        assert report.ee == pytest.approx(report.sum_rate / report.total_power, rel=1e-12)
        assert report.total_power == pytest.approx(
            float(np.dot(cfg.mu, p)) + cfg.k * cfg.p_c + fixed, rel=1e-12)
        if report.phases is not None:
            g = zf_precoder(h_eff)
            for k in range(cfg.k):
                assert sinr(k, channels, report.phases, g, report.powers, cfg.sigma2) \
                    == pytest.approx(p[k] / cfg.sigma2, rel=1e-6)
