"""Shared test fixtures: normalized configs, geometry-free channel draws, CSV readers."""

import csv

import numpy as np

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    InfeasibleError,
    NonConvergenceError,
    PathlossModel,
    PathlossParams,
    PhaseConfig,
    SingularMatrixError,
    SystemConfig,
    SolveReport,
    dbm_to_watts,
    dinkelbach_allocation,
    effective_channel,
    evaluate,
    phase_grid,
    qos_min_powers,
    quantize_phases,
    solve_inner,
    zf_power_weights,
)
from lisopt.model import BUDGET_SLACK
from lisopt.power import dinkelbach_batch
from lisopt.solver import phase_free_bound

# The errors the one-row relay and fill bodies below can raise, each an infeasible report
ROW_ERRORS = (InfeasibleError, NonConvergenceError, SingularMatrixError)

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


# (config, log10 range of the weight scales): the budget binds on some rows and not on
# others. At paper scale p° is ~1e5 W, so only weights below ~1e-9 let it fit; below
# 1e-12, Dinkelbach's absolute epsilon stops it after one update, far below EE°.
BOUND_CASES = {
    "desk": (make_config(k=3, m=3, n=4), (-8.0, 1.0)),
    "desk-floors": (make_config(k=3, m=3, n=4, r_min=0.5, mu=[1.0, 1.2, 2.0]), (-8.0, -0.5)),
    "paper": (SystemConfig(m=3, k=3, n=4, b=1, p_budget=dbm_to_watts(-10.0),
                           sigma2=dbm_to_watts(-100.0)), (-16.0, 0.0)),
    "paper-floors": (SystemConfig(m=2, k=2, n=4, b=2, p_budget=dbm_to_watts(0.0),
                                  sigma2=dbm_to_watts(-100.0), r_min=3.0), (-16.0, 0.0)),
    "K=1": (make_config(k=1, m=1, n=2), (-8.0, 1.0)),
}


def bound_case_weights(case, rows=60):
    """Beam-norm rows (B, K) of a BOUND_CASES config, scales drawn log-uniformly from its
    range, seeded by the name; the rows whose QoS floors do not fit the budget are dropped."""
    cfg, (low, high) = BOUND_CASES[case]
    rng = np.random.default_rng(len(case))
    weights = 10.0 ** rng.uniform(low, high, (rows, 1)) * rng.exponential(size=(rows, cfg.k))
    return weights[weights @ qos_min_powers(cfg) <= cfg.p_budget]


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
    budget, and no iterate beats EE°. Each iterate is scored on its own by
    bound_rule_score from ratio 0, bit for bit. A feasible report holds the
    best iterate.
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
    for it in trace.iterates:
        ee, p = bound_rule_score(channels, config, it.phases)
        assert it.ee == ee and np.array_equal(it.powers.p, p)
    assert report.outer_iterations == len(ees)
    assert report.feasible == bool(ees)
    if ees:
        best = max(trace.iterates, key=lambda it: it.ee)
        assert report.phases == best.phases
        assert report.powers == best.powers


def bound_rule_score(channels, config, phases, start=0.0):
    """The solver's score of the surface at phases, one candidate at a time: (ee, powers).

    (EE°, p°) of phase_free_bound when the beam norms radiate p° within the
    budget; otherwise dinkelbach_batch on the beam norms alone, its ratio
    started at start; (-inf, None) when the effective channel is rank
    deficient or the QoS floors do not fit the budget.
    """
    ee_bound, p_bound = phase_free_bound(config)
    if attains_bound_load(channels, config, phases.theta, p_bound):
        return ee_bound, p_bound
    offset = config.k * config.p_c + config.n * config.p_n_of_b[config.b]
    try:
        weights = zf_power_weights(effective_channel(channels, phases))
        lambdas, powers, _ = dinkelbach_batch(
            weights[None, :], qos_min_powers(config), config.mu, config.sigma2,
            config.p_budget, offset, config.epsilon, start)
    except (SingularMatrixError, InfeasibleError):
        return -np.inf, None
    return lambdas[-1, 0], powers[0]


def grid_point_ee(channels, config, theta, start=0.0):
    """bound_rule_score's efficiency of b-bit phases theta, its Dinkelbach started at start."""
    return bound_rule_score(channels, config, PhaseConfig(theta, config.b), start)[0]


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
    is scored on its own by bound_rule_score, bit for bit: the start and the
    first move from ratio 0, each later move from the ratio of the point
    before it, and the neighbours of the last point from its ratio if the
    search moved, from 0 if not. No point before the last radiates the
    phase-free optimum p° within the budget. A "bound"
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
    ratios = [-np.inf] * (len(walk) - len(ees)) + ees  # -inf: an infeasible start
    for j, it in enumerate(trace.iterates, start=len(walk) - len(ees)):
        assert it.phases.resolution == config.b
        ee, p = bound_rule_score(channels, config, it.phases, ratios[j - 1] if j > 1 else 0.0)
        assert it.ee == ee and np.array_equal(it.powers.p, p)
    ee_bound, p_bound = phase_free_bound(config)
    assert not any(attains_bound_load(channels, config, theta, p_bound) for theta in walk[:-1])
    if ees:
        assert report.phases == trace.iterates[-1].phases
        assert report.powers == trace.iterates[-1].powers
    last_ee = ees[-1] if ees else -np.inf
    neighbours = {tuple(moved): grid_point_ee(channels, config, moved,
                                              last_ee if len(walk) > 1 else 0.0)
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


def relay_channel(channels, config):
    """The relay's effective channel alpha H2 H1 + H."""
    return config.relay.alpha * (channels.h2 @ channels.h1) + channels.h


def relay_report_alone(channels, config):
    """The relay report of one cell by its one-row body: dinkelbach_allocation on the relay
    channel's beam norms; the infeasible report where that raises."""
    try:
        alloc, trace = dinkelbach_allocation(
            zf_power_weights(relay_channel(channels, config)), qos_min_powers(config), config.mu,
            config.sigma2, config.p_budget, config.k * config.p_c + config.relay.tx_power_w,
            config.epsilon)
    except ROW_ERRORS:
        return SolveReport.infeasible("relay")
    return evaluate(config, None, alloc, trace.iterations, "relay")


def rate_fill_alone(channels, report, config):
    """The max-rate fill of one feasible report by its one-row body: solve_inner at ratio 0 on
    the beam norms of its channel (phases None: the relay's); the infeasible report of its tag
    where that raises."""
    h_eff = (relay_channel(channels, config) if report.phases is None
             else effective_channel(channels, report.phases))
    try:
        alloc = solve_inner(0.0, zf_power_weights(h_eff), qos_min_powers(config), config.mu,
                            config.sigma2, config.p_budget)
    except ROW_ERRORS:
        return SolveReport.infeasible(report.method_tag)
    return evaluate(config, report.phases, alloc, report.outer_iterations, report.method_tag)
