"""Property tests of a whole alternating solve on random instances.

Instances have K <= M <= 3, N <= 6 and b in {1, 2}, at desk scale (-10 dBm
noise, 0 dBm circuit power) and at paper scale (-100 dBm noise, 100 dBm
circuit power). Channels are distance-flat unit-variance draws, so the
uniform start powers can pass the phase step's budget gate. Every feasible
report is checked against the budget, the QoS floors, its own efficiency,
the exhaustive oracle and the stopping rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisopt import (
    SystemConfig,
    alternating_ee_max,
    dbm_to_watts,
    exhaustive_search,
    qos_min_powers,
    sample_channels,
    trace_objective,
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
