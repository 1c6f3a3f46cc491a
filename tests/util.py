"""Shared test fixtures: normalized configs, geometry-free channel draws, CSV readers."""

import csv

import numpy as np

from lisopt import (
    CONTINUOUS,
    ChannelSet,
    PathlossModel,
    PathlossParams,
    SystemConfig,
    dbm_to_watts,
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
    """The alternating solver's stopping rule, read off its report and trace.

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
