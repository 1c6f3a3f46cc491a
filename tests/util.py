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
from lisopt.model import BUDGET_SLACK
from lisopt.solver import phase_free_bound

# Relative excess over the phase-free bound EE° that rounding may leave in a reported efficiency
BOUND_TOLERANCE = 1e-12


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


def attains_bound_load(channels, config, theta, p_bound):
    """Whether the surface at phases theta radiates p_bound (phase_free_bound's p°) within the
    budget; False when the effective channel is rank deficient."""
    try:
        weights = zf_power_weights(effective_channel(channels, PhaseConfig(theta, config.b)))
    except SingularMatrixError:
        return False
    return np.sum(weights * p_bound) <= config.p_budget * (1.0 + BUDGET_SLACK)


def assert_stall_trace(report, trace, channels, config):
    """The continuous alternating loop's stopping rule, read off its report and trace.

    The efficiencies rise strictly up to the last iterate, and a converged
    trace ends with one no higher than the one before it. Only the last
    iterate of a "bound" trace radiates the phase-free optimum p° within the
    budget, and no iterate beats EE°. A feasible report holds the best
    iterate.
    """
    ees = [it.ee for it in trace.iterates]
    rising = ees[:-1] if trace.termination in ("converged", "bound") else ees
    assert all(b > a for a, b in zip(rising, rising[1:])), ees
    if trace.termination == "converged":
        assert len(ees) >= 2 and ees[-1] <= ees[-2], ees
    ee_bound, p_bound = phase_free_bound(config)
    certified = [attains_bound_load(channels, config, it.phases.theta, p_bound)
                 for it in trace.iterates]
    assert not any(certified[:-1]), certified
    assert (certified[-1:] == [True]) == (trace.termination == "bound"), certified
    assert all(ee <= ee_bound * (1.0 + BOUND_TOLERANCE) for ee in ees)
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
    move, and the report counts the iterates and holds the last. Each point
    is scored on its own through dinkelbach_allocation. No point before the
    last radiates the phase-free optimum p° within the budget. A "bound"
    trace ends at a point that does, or at one that scores no lower than a
    neighbour that does, and neither it nor any single-element neighbour
    scores above EE°: a global statement. A "converged" trace ends at a
    point that no single-element neighbour beats, and neither it nor any of
    them radiates p° within the budget: a local statement.
    """
    ees = [it.ee for it in trace.iterates]
    assert all(b > a for a, b in zip(ees, ees[1:])), ees
    assert report.outer_iterations == len(ees)
    assert report.feasible == bool(ees)
    assert trace.termination in (("bound", "converged") if ees else ("infeasible",))
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
    ee_bound, p_bound = phase_free_bound(config)
    assert not any(attains_bound_load(channels, config, theta, p_bound) for theta in walk[:-1])
    if ees:
        assert report.phases == trace.iterates[-1].phases
        assert report.powers == trace.iterates[-1].powers
    last_ee = ees[-1] if ees else -np.inf
    neighbours = {tuple(moved): grid_point_ee(channels, config, moved)
                  for moved in grid_neighbours(walk[-1], config.b)}
    if trace.termination == "bound":
        ceiling = ee_bound * (1.0 + BOUND_TOLERANCE)
        assert last_ee <= ceiling and max(neighbours.values(), default=-np.inf) <= ceiling
        assert attains_bound_load(channels, config, walk[-1], p_bound) or any(
            attains_bound_load(channels, config, np.array(moved), p_bound) and ee <= last_ee
            for moved, ee in neighbours.items())
    else:
        assert not attains_bound_load(channels, config, walk[-1], p_bound)
        for moved, ee in neighbours.items():
            assert not ee > last_ee, moved
            assert not attains_bound_load(channels, config, np.array(moved), p_bound), moved
