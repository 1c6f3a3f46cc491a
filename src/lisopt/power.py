"""Power allocation for fixed phases: ratio maximization via exact concave inner solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .model import PowerAllocation, zf_factor
from .model import zf_precoder  # noqa: F401  not called here; perfbench's instrument() wraps it

LN2 = float(np.log(2.0))
_NEWTON_ITERATIONS = 100


class InfeasibleError(ValueError):
    """The QoS power floors cannot be radiated within the budget."""


class NonConvergenceError(RuntimeError):
    """Iteration cap reached before the ratio parameter settled."""


@dataclass(frozen=True)
class DinkelbachTrace:
    """Ratio parameter after each update, and the number of updates.

    lambdas is non-decreasing after the first iteration, and its last
    update moved the ratio by less than the tolerance (dinkelbach_batch
    raises NonConvergenceError otherwise). lambdas[-1] is the efficiency
    of the returned allocation.
    """

    lambdas: tuple
    iterations: int


def qos_min_powers(config: SystemConfig) -> np.ndarray:
    """Per-user power floors implied by the minimum-rate constraints."""
    return config.sigma2 * (np.exp2(config.r_min) - 1.0)


def zf_power_weights(h_eff: np.ndarray) -> np.ndarray:
    """Radiated watts per watt allocated to each user: the squared ZF beam norms of h_eff (K, M).

    Raises SingularMatrixError when the channel is rank deficient.
    """
    return zf_factor(h_eff)[3]


def solve_inner(lam, weights, p_min, mu, sigma2: float, p_budget: float):
    """Exact maximizer of rate minus lam-weighted amplifier power over the feasible box.

    weights has shape (K,) or, for a batch of B problems solved at once,
    (B, K) with lam a scalar or of shape (B,). Returns a PowerAllocation for
    one problem and the (B, K) powers for a batch; a single problem is solved
    as a batch of one, so every row of a batch equals the solve of that row
    alone bit for bit.

    Powers follow the stationarity closed form
    p_k(nu) = max(1/(ln2 (lam mu_k + nu w_k)) - sigma2, p_min_k) with the
    budget multiplier nu >= 0 at the root of S(nu) = sum_k w_k p_k(nu) = P,
    or nu = 0 when the budget is slack there. S is convex and decreasing,
    and 1/(S + sigma2 sum_k w_k) is concave and nondecreasing, so Newton steps
    on the latter started left of the root climb to it without overshooting
    (in one step when no floor binds and lam = 0). The start is
    nu = 0 when every lam mu_k > 0, and otherwise the lower bound
    Z / (ln2 (P + sigma2 sum_k w_k)), Z counting the users with lam mu_k = 0.
    The returned multiplier is the first iterate on the feasible side,
    S(nu) <= P.

    Raises InfeasibleError when the floors alone exceed the budget,
    NonConvergenceError when the multiplier does not settle, and ValueError
    for unbounded setups (lam == 0 with a non-binding budget).
    """
    weights = np.asarray(weights, dtype=float)
    batch = np.atleast_2d(weights)
    lam = np.zeros(batch.shape[0]) + lam
    p_min = np.asarray(p_min, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError(f"ratio parameter must be >= 0, got {lam.min()}")
    if not np.isfinite(p_budget) or p_budget <= 0.0:
        raise ValueError(f"budget must be finite and positive, got {p_budget}")
    if not np.all((batch >= 0.0) & (batch < np.inf)):
        raise ValueError("radiated-power weights must be finite and non-negative")
    if np.any((lam == 0.0) & np.any(batch == 0.0, axis=1)):
        raise ValueError("unbounded: zero-weight user with no ratio penalty")

    committed = np.sum(batch * p_min, axis=1)
    if np.any(committed > p_budget * (1.0 + 1e-9)):
        raise InfeasibleError(
            f"QoS floors need {committed.max():.6g} W radiated, budget is {p_budget:.6g} W"
        )
    p = np.broadcast_to(p_min, batch.shape).copy()
    unsettled = committed < p_budget * (1.0 - 1e-12)
    a0 = LN2 * lam[:, None] * mu
    lw = LN2 * batch
    target = p_budget + sigma2 * np.sum(batch, axis=1)
    nu = np.count_nonzero(a0 == 0.0, axis=1) / (LN2 * target)
    with np.errstate(divide="ignore", invalid="ignore"):  # settled rows may divide by zero
        for _ in range(_NEWTON_ITERATIONS):
            level = 1.0 / (a0 + nu[:, None] * lw)  # p_k + sigma2 at multiplier nu
            p_nu = np.maximum(level - sigma2, p_min)
            excess = np.sum(batch * p_nu, axis=1) - p_budget
            fits = unsettled & (excess <= 0.0)
            p[fits] = p_nu[fits]
            unsettled &= ~fits
            if not unsettled.any():
                return p if weights.ndim == 2 else PowerAllocation(p=p[0])
            free_wl = batch * level * (p_nu > p_min)
            slope = LN2 * np.sum(free_wl * free_wl, axis=1)  # -dS/dnu
            # Newton on 1/(S + sigma2 sum w) is the Newton step on S lengthened by
            # (S + sigma2 sum w)/target; at least one ulp, so rounding cannot stall a row
            step = excess * (excess + target) / (target * slope)
            nu = np.where(unsettled, np.maximum(nu + step, np.nextafter(nu, np.inf)), nu)
    raise NonConvergenceError("budget multiplier did not settle")


def dinkelbach_batch(weights, p_min, mu, sigma2: float, p_budget: float,
                     power_offset: float, epsilon: float, max_iterations: int = 100):
    """Ratio maximization for every row of a (B, K) weight batch at once.

    Each row starts its ratio parameter at zero and alternates the concave
    inner solve with ratio updates until consecutive values differ by less
    than epsilon; a settled row is left alone while the others go on.
    Returns (lambdas, powers, iterations): lambdas of shape (I, B) holds
    the ratio after each of the I updates, frozen once a row settled, so
    lambdas[-1] is the result; powers (B, K) are the final inner maximizers;
    iterations (B,) counts each row's updates. The final ratio equals the
    efficiency of the final powers by construction.
    """
    weights = np.asarray(weights, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam = np.zeros(weights.shape[0])
    powers = np.zeros(weights.shape)
    iterations = np.zeros(weights.shape[0], dtype=int)
    lambdas_seen = []
    rows = np.arange(weights.shape[0])
    for i in range(max_iterations):
        if rows.size == 0:
            break
        p = solve_inner(lam[rows], weights[rows], p_min, mu, sigma2, p_budget)
        rate = np.sum(np.log2(1.0 + p / sigma2), axis=1)
        lam_next = rate / (np.sum(mu * p, axis=1) + power_offset)
        settled = np.abs(lam_next - lam[rows]) < epsilon
        lam[rows], powers[rows] = lam_next, p
        iterations[rows] = i + 1
        lambdas_seen.append(lam.copy())
        rows = rows[~settled]
    if rows.size:
        raise NonConvergenceError(
            f"ratio parameter did not settle within {max_iterations} iterations"
        )
    return np.array(lambdas_seen), powers, iterations


def dinkelbach_allocation(weights, p_min, mu, sigma2: float, p_budget: float,
                          power_offset: float, epsilon: float,
                          max_iterations: int = 100):
    """Ratio maximization for one weight vector: dinkelbach_batch on a batch of one.

    Returns (PowerAllocation, DinkelbachTrace); the final ratio equals the
    efficiency of the returned allocation by construction.
    """
    lambdas, powers, iterations = dinkelbach_batch(
        np.asarray(weights, dtype=float)[None, :], p_min, mu, sigma2, p_budget,
        power_offset, epsilon, max_iterations,
    )
    trace = DinkelbachTrace(tuple(float(lam) for lam in lambdas[:, 0]), int(iterations[0]))
    return PowerAllocation(p=powers[0]), trace
