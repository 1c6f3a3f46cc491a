"""Property tests of the exact phase-step gradient and the lockstep SPG solve on random instances.

Instances are drawn at desk scale (unit-ish hops, 1e-4 W noise) and at paper
scale (hops of 1e-5 to 1e-3 in amplitude, -100 dBm noise), for K <= M users
and antennas and N = 1..16 surface elements. The direct link is kept within
a decade of the surface path, so the phases move the objective.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lisopt import (
    ChannelSet,
    PhaseConfig,
    PowerAllocation,
    dbm_to_watts,
    evaluate,
    exhaustive_search,
    phase_grid,
    trace_objective,
    trace_values,
)
from lisopt import phases
from lisopt.model import effective_channels, zf_svd
from lisopt.phases import solve_relaxed, spg_lockstep, stack_rows, trace_value_and_grad
from lisopt.solver import _beam_loads, _cell_terms, _score
from util import bound_rule_score, complex_gaussian, make_config, random_channels

TWO_PI = 2.0 * np.pi

# noise power and the log10 range of each hop's amplitude
SCALES = {
    "desk": dict(sigma2=1e-4, hop=(-1.0, 1.0)),
    "paper": dict(sigma2=dbm_to_watts(-100.0), hop=(-5.0, -3.0)),
}

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def value_and_grad(thetas, channels, powers):
    """trace_value_and_grad with one channel and power vector repeated per row."""
    return trace_value_and_grad(thetas, *stack_rows([(channels, powers)], len(thetas)))


def spg(starts, channels, powers, max_iterations):
    """spg_lockstep with one channel and power vector repeated per row."""
    return spg_lockstep(starts, *stack_rows([(channels, powers)], len(starts)), max_iterations)


@st.composite
def instances(draw, scale, shape=None):
    """Channels, powers (0-30 dB SNR) and a phase vector at one scale; shape fixes (K, M, N)."""
    if shape is None:
        k = draw(st.integers(1, 4))
        shape = k, draw(st.integers(k, 5)), draw(st.integers(1, 16))
    k, m, n = shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = SCALES[scale]["hop"]
    a, b = 10.0 ** rng.uniform(lo, hi, 2)
    channels = ChannelSet(
        h1=a * complex_gaussian(rng, (n, m)),
        h2=b * complex_gaussian(rng, (k, n)),
        h=a * b * 10.0 ** rng.uniform(-1.0, 1.0) * complex_gaussian(rng, (k, m)),
    )
    powers = PowerAllocation(p=SCALES[scale]["sigma2"] * 10.0 ** rng.uniform(0.0, 3.0, k))
    return channels, powers, rng.uniform(0.0, TWO_PI, n)


def central_difference(theta, channels, powers, h=1e-3):
    """Richardson-extrapolated central differences (error O(h^4)) of trace_values."""

    def step(d):
        shift = d * np.eye(theta.size)
        return (trace_values(theta + shift, channels, powers)
                - trace_values(theta - shift, channels, powers)) / (2.0 * d)

    return (4.0 * step(h / 2.0) - step(h)) / 3.0


@PROPERTY_SETTINGS
@given(data=st.data(), scale=st.sampled_from(sorted(SCALES)))
def test_gradient_matches_central_differences(data, scale):
    channels, powers, theta = data.draw(instances(scale))
    # the finite-difference reference is only accurate away from rank deficiency
    h_eff = effective_channels(channels.h1, channels.h2, channels.h, np.exp(1j * theta))
    assume(np.linalg.cond(h_eff) <= 100.0)
    (value,), (grad,) = value_and_grad(theta[None, :], channels, powers)
    reference = central_difference(theta, channels, powers)
    assert grad.shape == theta.shape
    assert np.max(np.abs(grad - reference)) <= 1e-6 * np.max(np.abs(reference))
    expected = trace_objective(theta, channels, powers)
    assert abs(value - expected) <= 1e-14 * expected


@PROPERTY_SETTINGS
@given(data=st.data(), scale=st.sampled_from(sorted(SCALES)))
def test_trace_values_equal_value_and_grad_values(data, scale):
    channels, powers, theta = data.draw(instances(scale))
    rng = np.random.default_rng(theta.size)
    thetas = np.vstack([theta, rng.uniform(0.0, TWO_PI, (4, theta.size))])
    idle = PowerAllocation(p=np.where(np.arange(powers.p.size) == 0, 0.0, powers.p))
    for p in (powers, idle):
        assert np.array_equal(trace_values(thetas, channels, p),
                              value_and_grad(thetas, channels, p)[0])


def test_trace_values_equal_value_and_grad_values_on_rank_deficient_rows():
    # the channel of test_rank_deficient_point_evaluates_to_inf: rank one at theta = 0
    channels = ChannelSet(h1=np.array([[1.0, 0.0]], dtype=complex),
                          h2=np.array([[1.0], [0.0]], dtype=complex),
                          h=np.array([[0.0, 2.0], [2.0, 4.0]], dtype=complex))
    thetas = np.array([[0.0], [np.pi], [0.0]])
    for p in ([0.5, 2.0], [0.0, 2.0], [0.0, 0.0]):
        powers = PowerAllocation(p=np.array(p))
        values = trace_values(thetas, channels, powers)
        assert values[0] == values[2] == np.inf and np.isfinite(values[1])
        assert np.array_equal(values, value_and_grad(thetas, channels, powers)[0])


def test_rank_deficient_point_evaluates_to_inf():
    # H(theta) = h2 diag(e^{j theta}) h1 + h is the rank-one [[1, 2], [2, 4]] at theta = 0
    # (exact in floating point) and full rank at theta = pi
    channels = ChannelSet(h1=np.array([[1.0, 0.0]], dtype=complex),
                          h2=np.array([[1.0], [0.0]], dtype=complex),
                          h=np.array([[0.0, 2.0], [2.0, 4.0]], dtype=complex))
    powers = PowerAllocation(p=np.array([0.5, 2.0]))
    (value,), (grad,) = value_and_grad(np.zeros((1, 1)), channels, powers)
    assert value == np.inf
    assert np.array_equal(grad, np.zeros(1))
    assert np.isinf(trace_objective(np.zeros(1), channels, powers))
    (value,), (grad,) = value_and_grad(np.array([[np.pi]]), channels, powers)
    assert value == trace_objective(np.array([np.pi]), channels, powers)
    assert np.all(np.isfinite(grad))
    # a warm start on the singular point still leaves it for a finite objective
    out, value = solve_relaxed(channels, powers, warm_start=np.zeros(1), seed=0)
    assert np.isfinite(value) and value == trace_objective(out, channels, powers)


# K = M = N = 2 channels with exactly rank-deficient points on the 1-bit grid.
# H(theta) = [[e^{j theta_1} + e^{j theta_2} - 1, 2], [2, 4]] is rank one at theta = (0, 0).
# H(theta) = diag(e^{j theta_1} - 1, e^{j theta_2} - 1) is the zero matrix at (0, 0), and
# rank one at (pi, 0) and (0, pi): its smallest singular value is exactly zero there.
RANK_DEFICIENT = {
    "rank-one": ChannelSet(h1=np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex),
                           h2=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
                           h=np.array([[-1.0, 2.0], [2.0, 4.0]], dtype=complex)),
    "zero": ChannelSet(h1=np.eye(2, dtype=complex), h2=np.eye(2, dtype=complex),
                       h=-np.eye(2, dtype=complex)),
}


@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_rows_raise_no_warnings_and_leave_healthy_rows_alone(name):
    channels = RANK_DEFICIENT[name]
    grid = phase_grid(1)
    thetas = np.vstack([grid[list(c)] for c in itertools.product(range(2), repeat=2)]
                       + [np.random.default_rng(3).uniform(0.0, TWO_PI, (2, 2))])
    powers = PowerAllocation(p=np.array([0.0, 2.0]))  # an idle user: inf * 0 on bad rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, grads = value_and_grad(thetas, channels, powers)
        svd = zf_svd(effective_channels(channels.h1, channels.h2, channels.h, np.exp(1j * thetas)))
        bad = np.isinf(svd[3][:, 0])
        assert bad[0] and not bad.all()
        assert np.array_equal(trace_values(thetas, channels, powers), values)
        assert np.all(values[bad] == np.inf) and np.all(np.isinf(svd[3][bad]))
        assert np.array_equal(grads[bad], np.zeros_like(grads[bad]))
        for i in np.flatnonzero(~bad):
            (value,), (grad,) = value_and_grad(thetas[i:i + 1], channels, powers)
            assert value == values[i] and np.isfinite(value)
            assert np.array_equal(grad, grads[i])
            for stacked, single in zip(svd, zf_svd(effective_channels(
                    channels.h1, channels.h2, channels.h, np.exp(1j * thetas[i:i + 1])))):
                assert np.array_equal(stacked[i], single[0])

        # the oracle skips the rank-deficient candidates and solves the others as alone
        config = make_config(k=2, m=2, n=2, b=1)
        scores = _score(config, _beam_loads(channels, np.exp(1j * thetas)),
                        _cell_terms(config))[0]
        assert np.array_equal(scores == -np.inf, bad)
        healthy = []
        for theta in thetas[:4]:
            candidate = PhaseConfig(theta=theta, resolution=1)
            ee, p = bound_rule_score(channels, config, candidate)
            if ee > -np.inf:
                healthy.append(evaluate(config, candidate, PowerAllocation(p=p), 4, "exhaustive"))
        assert 0 < len(healthy) < 4
        assert exhaustive_search(channels, config) == max(healthy, key=lambda r: r.ee)


def leave_iteration(start, channels, powers, max_iterations=80):
    """Steps a batch-of-one solve from start takes: the smallest cap giving its final end point."""
    final = spg(start[None, :], channels, powers, max_iterations)[0]
    return next(i for i in range(1, max_iterations + 1) if np.array_equal(
        spg(start[None, :], channels, powers, i)[0], final))


def test_lockstep_rows_that_backtrack_and_leave_apart_match_single_solves(monkeypatch):
    rng = np.random.default_rng(5)
    channels = random_channels(rng, 2, 2, 4)
    powers = PowerAllocation(p=np.array([1e-3, 2e-3]))
    starts = rng.uniform(0.0, TWO_PI, (2, 4))
    sizes = []

    def recorded(thetas, *args):
        sizes.append(thetas.shape[0])
        return trace_value_and_grad(thetas, *args)

    monkeypatch.setattr(phases, "trace_value_and_grad", recorded)
    ends, values = spg(starts, channels, powers, max_iterations=80)
    # a one-row call between two-row calls is a backtrack of one row while the other
    # passed its first trial
    assert (1, 2) in zip(sizes, sizes[1:])
    monkeypatch.undo()
    leaves = [leave_iteration(start, channels, powers) for start in starts]
    assert leaves[0] != leaves[1] and max(leaves) < 80
    for i, start in enumerate(starts):
        end, value = spg(start[None, :], channels, powers, max_iterations=80)
        assert np.array_equal(end[0], ends[i])
        assert value[0] == values[i]


def objective(thetas, channels, powers):
    """The relaxed solve's own objective: trace_value_and_grad's values."""
    return value_and_grad(np.atleast_2d(thetas), channels, powers)[0]


@PROPERTY_SETTINGS
@given(data=st.data(), scale=st.sampled_from(sorted(SCALES)))
def test_lockstep_rows_match_single_solves(data, scale):
    # one to three channels of one shape, four rows each: a row's neighbours may have other channels
    first = data.draw(instances(scale))
    shape = first[0].h2.shape[0], *first[0].h1.shape[::-1]
    more = data.draw(st.integers(0, 2))
    cells = [first] + [data.draw(instances(scale, shape)) for _ in range(more)]
    rng = np.random.default_rng(shape[2])
    starts = np.vstack([np.vstack([theta, rng.uniform(0.0, TWO_PI, (3, theta.size))])
                        for _, _, theta in cells])
    rows = stack_rows([(channels, powers) for channels, powers, _ in cells], 4)
    ends, values = spg_lockstep(starts, *rows, max_iterations=80)
    assert np.all((ends >= 0.0) & (ends <= TWO_PI))
    assert np.array_equal(values, trace_value_and_grad(ends, *rows)[0])
    assert np.all(values <= trace_value_and_grad(starts, *rows)[0])
    for i, start in enumerate(starts):
        channels, powers, _ = cells[i // 4]
        end, value = spg(start[None, :], channels, powers, max_iterations=80)
        assert np.array_equal(end[0], ends[i])
        assert value[0] == values[i]


@PROPERTY_SETTINGS
@given(data=st.data(), scale=st.sampled_from(sorted(SCALES)))
def test_solve_relaxed_never_above_warm_start(data, scale):
    channels, powers, theta = data.draw(instances(scale))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    out, value = solve_relaxed(channels, powers, warm_start=theta, seed=seed)
    assert value == trace_objective(out, channels, powers)
    assert value <= objective(theta, channels, powers)[0]
