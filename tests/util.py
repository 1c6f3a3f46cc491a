"""Shared test fixtures: normalized configs, geometry-free channel draws, CSV readers."""

import csv

import numpy as np

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    InfeasibleError,
    PathlossModel,
    PathlossParams,
    PhaseConfig,
    SingularMatrixError,
    SystemConfig,
    dbm_to_watts,
    dinkelbach_allocation,
    effective_channel,
    phase_grid,
    qos_min_powers,
    quantize_phases,
    zf_power_weights,
)


def unit_pathloss(direct_loss_db=10.0):
    """Distance-flat pathloss: hop entries unit variance, direct link attenuated."""
    return PathlossModel(
        bs_user=PathlossParams(exponent=0.0, ref_loss_db=direct_loss_db),
        bs_lis=PathlossParams(exponent=0.0, ref_loss_db=0.0),
        lis_user=PathlossParams(exponent=0.0, ref_loss_db=0.0),
    )


def make_config(k=2, m=2, n=4, b=1, p_budget_dbm=-10.0, sigma2=1e-4, **overrides):
    """Desk-scale config with normalized channels and mild power constants."""
    fields = dict(
        p_c=1e-3,
        p_n_of_b={1: dbm_to_watts(-5.0), 2: dbm_to_watts(5.0),
                  CONTINUOUS: dbm_to_watts(15.0)},
        pathloss=unit_pathloss(),
    )
    fields.update(overrides)
    return SystemConfig(m=m, k=k, n=n, b=b, p_budget=dbm_to_watts(p_budget_dbm),
                        sigma2=sigma2, **fields)


def complex_gaussian(rng, shape, variance=1.0):
    return np.sqrt(variance / 2.0) * (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape))


def random_channels(rng, k, m, n, scale=1.0):
    """Unit-variance channel triple with no geometry attached."""
    return ChannelSet(
        h1=scale * complex_gaussian(rng, (n, m)),
        h2=scale * complex_gaussian(rng, (k, n)),
        h=scale * complex_gaussian(rng, (k, m)),
    )


def strip_wall_column(path):
    """The records of a rows.csv file with the wall_ms column dropped, found by its header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1:] for row in rows]


def assert_stall_trace(report, trace):
    """The continuous alternating loop's stopping rule, read off its report and trace.

    The efficiencies rise strictly up to the last iterate, and a converged
    trace ends with one no higher than the one before it. A feasible report
    holds the best iterate.
    """
    ees = [it.ee for it in trace.iterates]
    rising = ees[:-1] if trace.termination == "converged" else ees
    assert all(b > a for a, b in zip(rising, rising[1:])), ees
    if trace.termination == "converged":
        assert len(ees) >= 2 and ees[-1] <= ees[-2], ees
    assert report.outer_iterations == len(ees)
    assert report.feasible == bool(ees)
    if ees:
        best = max(trace.iterates, key=lambda it: it.ee)
        assert report.phases == best.phases
        assert report.powers == best.powers


def single_power_step(channels, config, phases):
    """dinkelbach_allocation on the surface at phases, from public calls: (allocation, trace).

    Raises SingularMatrixError when the effective channel is rank deficient
    and InfeasibleError when the QoS floors do not fit the budget.
    """
    offset = config.k * config.p_c + config.n * config.p_n_of_b[config.b]
    weights = zf_power_weights(effective_channel(channels, phases))
    return dinkelbach_allocation(weights, qos_min_powers(config), config.mu, config.sigma2,
                                 config.p_budget, offset, config.epsilon)


def grid_point_ee(channels, config, theta):
    """Dinkelbach efficiency of b-bit phases theta, one dinkelbach_allocation; -inf if none fits."""
    try:
        _, dtrace = single_power_step(channels, config, PhaseConfig(theta, config.b))
    except (SingularMatrixError, InfeasibleError):
        return -np.inf
    return dtrace.lambdas[-1]


def grid_neighbours(theta, b):
    """Every b-bit phase vector that differs from theta in exactly one element."""
    for j in range(theta.size):
        for level in phase_grid(b):
            if level != theta[j]:
                moved = theta.copy()
                moved[j] = level
                yield moved


def assert_search_trace(report, trace, channels, config):
    """The finite-resolution discrete search, read off its report and trace.

    The iterates (the quantized first step when it is feasible, then each
    accepted move) rise strictly in efficiency, one element changes per
    move, the report counts the iterates and holds the last, and no
    single-element neighbour of the last point scores higher. Each point is
    scored on its own through dinkelbach_allocation.
    """
    ees = [it.ee for it in trace.iterates]
    assert all(b > a for a, b in zip(ees, ees[1:])), ees
    assert report.outer_iterations == len(ees)
    assert report.feasible == bool(ees)
    assert trace.termination == ("converged" if ees else "infeasible")
    if trace.first_step is None:
        assert not ees
        return
    start = quantize_phases(trace.first_step.theta, config.b).theta
    walk = [it.phases.theta for it in trace.iterates]
    if grid_point_ee(channels, config, start) == -np.inf:
        walk.insert(0, start)
    else:
        assert np.array_equal(walk[0], start)
    for before, after in zip(walk, walk[1:]):
        assert np.count_nonzero(after != before) == 1
    for it in trace.iterates:
        assert it.phases.resolution == config.b
        assert it.ee == grid_point_ee(channels, config, it.phases.theta)
    if ees:
        assert report.phases == trace.iterates[-1].phases
        assert report.powers == trace.iterates[-1].powers
    last_ee = ees[-1] if ees else -np.inf
    for moved in grid_neighbours(walk[-1], config.b):
        assert not grid_point_ee(channels, config, moved) > last_ee, moved
