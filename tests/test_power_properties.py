"""Property tests of the batched power solver on random instances.

Instances are drawn at desk scale (-10 dBm noise, unit-ish weights) and at
paper scale (-100 dBm noise, weights of 1e4-1e12 watts per watt). Every
check runs on each row of a batch, and each row is also solved alone, also
when every row has its own budget, floors and fixed draw. A row that does
not settle is an infeasible outcome of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisopt import NonConvergenceError, dbm_to_watts, dinkelbach_allocation, solve_inner
from lisopt import power
from lisopt.power import dinkelbach_batch

LN2 = np.log(2.0)

# log10 ranges of the drawn quantities
SCALES = {
    "desk": dict(sigma2=dbm_to_watts(-10.0), weights=(-1.0, 1.0), budget=(-3.0, 0.0),
                 lam=(-2.0, 3.0), offset=(-3.0, 0.0)),
    "paper": dict(sigma2=dbm_to_watts(-100.0), weights=(4.0, 12.0), budget=(-4.0, -1.0),
                  lam=(-8.0, 2.0), offset=(-3.0, 7.0)),
}

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def bisection_powers(lam, w, p_min, mu, sigma2, budget):
    """Reference water-filling: bisect the budget multiplier down to adjacent floats."""

    def powers(nu):
        with np.errstate(divide="ignore"):
            return np.maximum(1.0 / (LN2 * (lam * mu + nu * w)) - sigma2, p_min)

    def fits(nu):
        p = powers(nu)
        return bool(np.all(np.isfinite(p)) and np.dot(w, p) <= budget)

    if np.dot(w, p_min) >= budget * (1.0 - 1e-12):
        return p_min.copy()
    if fits(0.0):
        return powers(0.0)
    lo, hi = 0.0, 1.0
    while not fits(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return powers(hi)
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)


def powers_of_ten(lo, hi, size=None):
    value = st.floats(lo, hi, allow_nan=False)
    if size is None:
        return value.map(lambda e: 10.0 ** e)
    return st.lists(value, min_size=size, max_size=size).map(lambda e: 10.0 ** np.array(e))


@st.composite
def batches(draw, scale):
    """A (B, K) batch sharing floors, amplifier factors, noise and budget."""
    s = SCALES[scale]
    k = draw(st.integers(1, 4))
    b = draw(st.integers(1, 5))
    budget = draw(powers_of_ten(*s["budget"]))
    weights = np.array([draw(powers_of_ten(*s["weights"], size=k)) for _ in range(b)])
    lams = np.array([draw(st.just(0.0) | powers_of_ten(*s["lam"])) for _ in range(b)])
    mu = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=k, max_size=k)))
    # floors take a drawn share of the budget in the row that weights them most
    shape = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=k, max_size=k)))
    share = draw(st.just(0.0) | st.floats(0.0, 1.0))
    radiated = np.max(weights @ shape)
    p_min = share * budget * shape / radiated if radiated > 0.0 else np.zeros(k)
    return lams, weights, p_min, mu, s["sigma2"], budget


def budget_multiplier(p, lam, w, p_min, mu, sigma2, budget):
    """nu recovered from the free user with the largest radiated share; 0 on a slack budget."""
    if np.dot(w, p) < budget * (1.0 - 1e-9):
        return 0.0
    free = np.flatnonzero(p > p_min)
    k = free[np.argmax(w[free] * p[free])]
    return (1.0 / (LN2 * (sigma2 + p[k])) - lam * mu[k]) / w[k]


@pytest.mark.parametrize("scale", sorted(SCALES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_inner_solve_batch_properties(scale, data):
    lams, weights, p_min, mu, sigma2, budget = data.draw(batches(scale))
    batch = solve_inner(lams, weights, p_min, mu, sigma2, budget)
    assert batch.shape == weights.shape
    for lam, w, p in zip(lams, weights, batch):
        single = solve_inner(lam, w, p_min, mu, sigma2, budget).p
        assert np.array_equal(p, single)
        # budget and floors
        assert np.dot(w, p) <= budget * (1.0 + 1e-9)
        assert np.all(p >= p_min)
        # stationarity of free users and dual feasibility of clamped ones
        if np.any(p > p_min):
            nu = budget_multiplier(p, lam, w, p_min, mu, sigma2, budget)
            assert nu >= 0.0
            marginal = lam * mu + nu * w
            benefit = 1.0 / (LN2 * (sigma2 + p))
            free = p > p_min
            assert np.all(np.abs(benefit - marginal)[free] < 1e-8 * marginal[free])
            assert np.all(benefit[~free] <= marginal[~free] * (1.0 + 1e-8))
        # The bisection reference, relative to the water volume P + sigma2 sum w:
        # rounding in the budget sum is of that size, so no solver can pin a
        # user's weighted power more finely when the budget binds.
        ref = bisection_powers(lam, w, p_min, mu, sigma2, budget)
        assert np.all(w * np.abs(p - ref) <= 1e-12 * (budget + sigma2 * np.sum(w)))


@pytest.mark.parametrize("scale", sorted(SCALES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dinkelbach_batch_rows_match_single_solves(scale, data):
    _, weights, p_min, mu, sigma2, budget = data.draw(batches(scale))
    offset = data.draw(powers_of_ten(*SCALES[scale]["offset"]))
    lambdas, powers, iterations = dinkelbach_batch(
        weights, p_min, mu, sigma2, budget, offset, epsilon=1e-9)
    for i, w in enumerate(weights):
        alloc, trace = dinkelbach_allocation(w, p_min, mu, sigma2, budget, offset,
                                             epsilon=1e-9)
        n = trace.iterations
        assert iterations[i] == n
        assert np.array_equal(lambdas[:n, i], trace.lambdas)
        assert np.all(lambdas[n:, i] == lambdas[n - 1, i])
        assert np.array_equal(powers[i], alloc.p)
        assert np.dot(w, alloc.p) <= budget * (1.0 + 1e-9)
        assert np.all(alloc.p >= p_min)


@st.composite
def row_batches(draw, scale):
    """A (B, K) batch whose rows each have their own budget (B,), floors (B, K) and fixed
    draw (B,), sharing amplifier factors and noise; K = 1 in about a third of the draws."""
    s = SCALES[scale]
    k = draw(st.sampled_from([1, 1, 2, 3, 4]))
    b = draw(st.integers(1, 5))
    budgets = draw(powers_of_ten(*s["budget"], size=b))
    offsets = draw(powers_of_ten(*s["offset"], size=b))
    weights = np.array([draw(powers_of_ten(*s["weights"], size=k)) for _ in range(b)])
    lams = np.array([draw(st.just(0.0) | powers_of_ten(*s["lam"])) for _ in range(b)])
    mu = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=k, max_size=k)))
    p_min = np.zeros((b, k))
    for i in range(b):  # each row's floors take a drawn share of its own budget
        shape = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=k,
                                       max_size=k)))
        radiated = weights[i] @ shape
        if radiated > 0.0:
            p_min[i] = draw(st.floats(0.0, 1.0)) * budgets[i] * shape / radiated
    return lams, weights, p_min, mu, s["sigma2"], budgets, offsets


@pytest.mark.parametrize("scale", sorted(SCALES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_inner_solve_rows_with_their_own_budgets_and_floors(scale, data):
    lams, weights, p_min, mu, sigma2, budgets, _ = data.draw(row_batches(scale))
    batch = solve_inner(lams, weights, p_min, mu, sigma2, budgets)
    for i, (lam, w, floors, budget) in enumerate(zip(lams, weights, p_min, budgets)):
        assert np.array_equal(batch[i], solve_inner(lam, w, floors, mu, sigma2, budget).p)
        assert np.array_equal(batch[i], solve_inner(lam, w[None, :], floors[None, :], mu,
                                                    sigma2, budget)[0])
        assert np.dot(w, batch[i]) <= budget * (1.0 + 1e-9)
        assert np.all(batch[i] >= floors)
    # a shared budget and floor vector broadcast like their per-row copies; the smallest
    # floors fit the largest budget on every row
    floors, budget = p_min.min(axis=0), budgets.max()
    shared = solve_inner(lams, weights, floors, mu, sigma2, budget)
    copies = solve_inner(lams, weights, np.tile(floors, (len(lams), 1)), mu, sigma2,
                         np.full(len(lams), budget))
    assert np.array_equal(shared, copies)


@pytest.mark.parametrize("scale", sorted(SCALES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_dinkelbach_batch_rows_with_their_own_terms_match_single_solves(scale, data):
    _, weights, p_min, mu, sigma2, budgets, offsets = data.draw(row_batches(scale))
    epsilon = data.draw(st.sampled_from([1e-9, 1e-2]))
    cold = dinkelbach_batch(weights, p_min, mu, sigma2, budgets, offsets, epsilon)[0][-1]
    # from ratio 0, and from a ratio that some rows' first update does not beat
    for start in (0.0, float(np.median(cold))):
        lambdas, powers, iterations = dinkelbach_batch(weights, p_min, mu, sigma2, budgets,
                                                       offsets, epsilon, start)
        for i in range(len(weights)):
            one_lambdas, one_powers, one_iterations = dinkelbach_batch(
                weights[i:i + 1], p_min[i], mu, sigma2, budgets[i], offsets[i], epsilon, start)
            n = iterations[i]
            assert one_iterations[0] == n
            assert np.array_equal(lambdas[:n, i], one_lambdas[:, 0])
            assert np.all(lambdas[n:, i] == lambdas[n - 1, i])
            assert np.array_equal(powers[i], one_powers[0])
            assert np.dot(weights[i], powers[i]) <= budgets[i] * (1.0 + 1e-9)
            assert np.all(powers[i] >= p_min[i])


def test_a_row_that_does_not_settle_ends_infeasible_alone(monkeypatch):
    # four rows that settle after four different update counts; a cap below the largest
    # leaves exactly that row unsettled
    weights = np.array([[1.0, 2.0, 0.5], [40.0, 0.1, 3.0], [0.02, 0.05, 0.01], [5.0, 5.0, 5.0]])
    p_min = np.array([[0.0, 1e-4, 0.0], [0.0, 0.0, 0.0], [1e-4, 0.0, 0.0], [0.0, 0.0, 1e-4]])
    budgets, offsets = np.array([5e-3, 4e-3, 6e-3, 5e-3]), np.array([2e-3, 1e-3, 2e-3, 3e-3])
    args = (p_min, np.array([1.1, 1.3, 1.0]), 1e-4, budgets, offsets, 1e-9)
    lambdas, powers, iterations = dinkelbach_batch(weights, *args)
    assert len(set(iterations.tolist())) == len(weights)
    last = int(np.argmax(iterations))
    cap = int(iterations[last]) - 1
    monkeypatch.setattr(power, "_DINKELBACH_ITERATIONS", cap)
    capped, capped_powers, capped_iterations = dinkelbach_batch(weights, *args)
    assert capped.shape == (cap, len(weights))
    for i in range(len(weights)):
        if i == last:
            assert capped[-1, i] == -np.inf and not capped_powers[i].any()
            assert capped_iterations[i] == cap
            with pytest.raises(NonConvergenceError):
                dinkelbach_allocation(weights[i], p_min[i], args[1], args[2], budgets[i],
                                      offsets[i], args[5])
        else:
            n = iterations[i]
            assert capped_iterations[i] == n
            assert np.array_equal(capped[:n, i], lambdas[:n, i])
            assert np.array_equal(capped_powers[i], powers[i])


def test_a_row_whose_budget_multiplier_does_not_settle_ends_infeasible_alone(monkeypatch):
    # one Newton pass settles the multiplier of a slack budget (and of any budget at ratio 0
    # with no floor), not that of a binding one at a positive ratio
    weights = np.array([[1.0, 2.0, 0.5], [40.0, 0.1, 3.0]])
    mu, budgets = np.array([1.1, 1.3, 1.0]), np.array([1e3, 4e-3])
    args = (np.zeros(3), mu, 1e-4, budgets, 1e-3, 1e-9)
    lambdas, powers, iterations = dinkelbach_batch(weights, *args)
    monkeypatch.setattr(power, "_NEWTON_ITERATIONS", 1)
    inner = solve_inner(np.full(2, lambdas[-1, 1]), weights, *args[:4])
    assert np.isfinite(inner[0]).all() and np.isnan(inner[1]).all()
    with pytest.raises(NonConvergenceError):
        solve_inner(lambdas[-1, 1], weights[1], *args[:3], budgets[1])
    capped, capped_powers, capped_iterations = dinkelbach_batch(weights, *args)
    assert capped[-1, 1] == -np.inf and not capped_powers[1].any()
    n = iterations[0]
    assert capped_iterations[0] == n and np.array_equal(capped[:n, 0], lambdas[:n, 0])
    assert np.array_equal(capped_powers[0], powers[0])
