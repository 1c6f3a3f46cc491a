"""Power allocation for fixed phases: ratio maximization via exact concave inner solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .model import BUDGET_SLACK, PowerAllocation, zf_factor, zf_gram_inverse
from .model import zf_precoder  # noqa: F401  not called here; perfbench's instrument() wraps it

LN2 = float(np.log(2.0))
_NEWTON_ITERATIONS = 100
_DINKELBACH_ITERATIONS = 100


class InfeasibleError(ValueError):
    """The QoS power floors cannot be radiated within the budget."""


class NonConvergenceError(RuntimeError):
    """Iteration cap reached before the ratio parameter settled."""


@dataclass(frozen=True)
class DinkelbachTrace:
    """Ratio parameter after each update, and the number of updates.

    lambdas is non-decreasing after the first iteration, and its last
    update moved the ratio by less than the tolerance (dinkelbach_allocation
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

    These are zf_gram_inverse's norms of h_eff as a batch of one, so they
    equal its row of any stack bit for bit. Raises SingularMatrixError when
    the channel is rank deficient.
    """
    norms = zf_gram_inverse(h_eff)[1][0]
    if not np.isfinite(norms[0]):
        zf_factor(h_eff)  # raises SingularMatrixError with the singular values
    return norms


def rate_and_power(p, mu, sigma2: float, power_offset):
    """ZF sum rate (each SINR is p_k / sigma2) and total power of powers p, over p's last axis."""
    return np.log2(1.0 + p / sigma2).sum(axis=-1), (mu * p).sum(axis=-1) + power_offset


def _efficiency(p, mu, sigma2: float, power_offset):
    """Sum rate over total power, as rate_and_power gives them."""
    return np.divide(*rate_and_power(p, mu, sigma2, power_offset))


def solve_inner(lam, weights, p_min, mu, sigma2: float, p_budget):
    """Exact maximizer of rate minus lam-weighted amplifier power over the feasible box.

    weights has shape (K,) or, for a batch of B problems solved at once,
    (B, K), with lam and the budget p_budget each a scalar or of shape (B,)
    and the floors p_min of shape (K,) or (B, K). Returns a
    PowerAllocation for one problem and the (B, K) powers for a batch; a
    single problem is solved as a batch of one, so every row of a batch
    equals the solve of that row alone bit for bit.

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

    Raises InfeasibleError when the floors alone exceed the budget in any
    row, and ValueError for unbounded setups (lam == 0 with a non-binding
    budget). A row whose multiplier does not settle holds nan powers in a
    batch; a single problem raises NonConvergenceError instead.
    """
    weights = np.asarray(weights, dtype=float)
    batch = np.atleast_2d(weights)
    lam = np.zeros(batch.shape[0]) + lam
    budgets = np.asarray(p_budget, dtype=float)
    p_min = np.asarray(p_min, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.count_nonzero(lam < 0.0):
        raise ValueError(f"ratio parameter must be >= 0, got {lam.min()}")
    if np.count_nonzero((budgets > 0.0) & (budgets < np.inf)) != budgets.size:
        raise ValueError(f"budget must be finite and positive, got {p_budget}")
    if np.count_nonzero((batch >= 0.0) & (batch < np.inf)) != batch.size:
        raise ValueError("radiated-power weights must be finite and non-negative")
    if np.count_nonzero((batch == 0.0) & (lam == 0.0)[:, None]):
        raise ValueError("unbounded: zero-weight user with no ratio penalty")

    committed = (batch * p_min).sum(axis=1)
    over = committed > budgets * (1.0 + BUDGET_SLACK)
    if np.count_nonzero(over):
        i = int(np.argmax(over))
        raise InfeasibleError(f"QoS floors need {committed[i]:.6g} W radiated, budget is "
                              f"{np.broadcast_to(budgets, over.shape)[i]:.6g} W")
    p = np.full(batch.shape, p_min)
    unsettled = committed < budgets * (1.0 - 1e-12)
    a0 = LN2 * lam[:, None] * mu
    lw = LN2 * batch
    target = budgets + sigma2 * batch.sum(axis=1)
    nu = (a0 == 0.0).sum(axis=1) / (LN2 * target)
    with np.errstate(divide="ignore", invalid="ignore"):  # settled rows may divide by zero
        for _ in range(_NEWTON_ITERATIONS):
            level = 1.0 / (a0 + nu[:, None] * lw)  # p_k + sigma2 at multiplier nu
            p_nu = np.maximum(level - sigma2, p_min)
            excess = (batch * p_nu).sum(axis=1) - budgets
            fits = unsettled & (excess <= 0.0)
            np.copyto(p, p_nu, where=fits[:, None])
            unsettled &= ~fits
            if not np.count_nonzero(unsettled):
                return p if weights.ndim == 2 else PowerAllocation(p=p[0])
            free_wl = batch * level * (p_nu > p_min)
            slope = LN2 * (free_wl * free_wl).sum(axis=1)  # -dS/dnu
            # Newton on 1/(S + sigma2 sum w) is the Newton step on S lengthened by
            # (S + sigma2 sum w)/target; at least one ulp, so rounding cannot stall a row
            step = excess * (excess + target) / (target * slope)
            np.copyto(nu, np.maximum(nu + step, np.nextafter(nu, np.inf)), where=unsettled)
    if weights.ndim == 1:
        raise NonConvergenceError("budget multiplier did not settle")
    p[unsettled] = np.nan
    return p


def dinkelbach_batch(weights, p_min, mu, sigma2: float, p_budget, power_offset,
                     epsilon: float, start=0.0):
    """Ratio maximization for every row of a (B, K) weight batch at once.

    Each row has its own floors, budget, fixed draw and start where p_min
    is (B, K) and p_budget, power_offset or start is (B,); a (K,) vector or
    a scalar is shared by every row. Each row starts its ratio parameter at
    its start and alternates the concave inner solve with ratio updates
    until consecutive values differ by less than epsilon, for at most
    _DINKELBACH_ITERATIONS updates; a settled row is left alone while the
    others go on. A row whose first update gives a ratio at most its start
    also settles there: with F(lam) the inner solve's maximum of rate minus
    lam times power, F(start) <= 0, so no allocation of that row beats
    start (Dinkelbach 1967). At start = 0 that test adds nothing to the
    epsilon test. A row that does not settle within the cap ends at ratio
    -inf with zero powers, an infeasible outcome of its own, while the other
    rows finish; so does a row whose inner solve does not settle (nan
    powers).
    Returns (lambdas, powers, iterations): lambdas of shape (I, B) holds
    the ratio after each of the I updates, frozen once a row settled, so
    lambdas[-1] is the result; powers (B, K) are the final inner maximizers;
    iterations (B,) counts each row's updates. The final ratio equals the
    efficiency of the final powers by construction. Each row equals its
    batch-of-one solve bit for bit.
    """
    weights = np.asarray(weights, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = weights.shape[0]
    lam = np.zeros(n) + start
    powers = np.zeros(weights.shape)
    iterations = np.zeros(n, dtype=int)
    lambdas_seen = []
    rows = np.arange(n)  # the rows still updating, and their terms
    live = [weights] + [np.asarray(term, dtype=float) for term in (p_min, p_budget, power_offset)]
    own = [j for j, rank in enumerate((2, 2, 1, 1)) if live[j].ndim == rank]
    for i in range(_DINKELBACH_ITERATIONS):
        if rows.size == 0:
            break
        w, floors, budget, offset = live
        p = solve_inner(lam[rows], w, floors, mu, sigma2, budget)
        lam_next, previous = _efficiency(p, mu, sigma2, offset), lam[rows]
        settled = np.abs(lam_next - previous) < epsilon  # nan powers never settle
        if i == 0:
            settled |= lam_next <= previous
        lam[rows] = lam_next
        lambdas_seen.append(lam.copy())
        if np.count_nonzero(settled):
            powers[rows[settled]], iterations[rows[settled]] = p[settled], i + 1
            rows = rows[~settled]
            for j in own:  # the per-row terms leave with their rows; shared ones stay whole
                live[j] = live[j][~settled]
    if rows.size:
        lambdas_seen[-1][rows], iterations[rows] = -np.inf, _DINKELBACH_ITERATIONS
    return np.array(lambdas_seen), powers, iterations


def efficiency_bound(p_min, mu, sigma2: float, power_offset: float) -> tuple:
    """Phase-free efficiency bound: (EE°, p°), the ratio problem with no budget.

    EE° is the maximum of sum_k log2(1 + p_k / sigma2) / (mu . p + power_offset)
    over p >= p_min, and p° attains it. Without the budget Dinkelbach's inner
    step is closed form, p_k = max(1/(ln2 lam mu_k) - sigma2, p_min_k). The
    ratio starts at the efficiency of p = max(p_min, sigma2) and follows the
    updates while they raise it, so it stops at Dinkelbach's fixed point with
    no absolute tolerance, at any scale. mu > 0 (a config holds mu >= 1)
    keeps EE° finite.

    Under ZF every user's SINR is p_k / sigma2, so no phase vector beats EE°,
    and one whose beam norms w satisfy w . p° <= P attains it.
    Raises NonConvergenceError if the ratio still rises after
    _DINKELBACH_ITERATIONS updates.
    """
    p_min = np.asarray(p_min, dtype=float)
    mu = np.asarray(mu, dtype=float)
    p = np.maximum(p_min, sigma2)
    lam = _efficiency(p, mu, sigma2, power_offset)
    for _ in range(_DINKELBACH_ITERATIONS):
        p_next = np.maximum(1.0 / (LN2 * lam * mu) - sigma2, p_min)
        lam_next = _efficiency(p_next, mu, sigma2, power_offset)
        if not lam_next > lam:
            return float(lam), p
        lam, p = lam_next, p_next
    raise NonConvergenceError(
        f"phase-free ratio still rising after {_DINKELBACH_ITERATIONS} updates"
    )


def dinkelbach_allocation(weights, p_min, mu, sigma2: float, p_budget: float,
                          power_offset: float, epsilon: float):
    """Ratio maximization for one weight vector: dinkelbach_batch on a batch of one.

    Returns (PowerAllocation, DinkelbachTrace); the final ratio equals the
    efficiency of the returned allocation by construction. Raises
    InfeasibleError when the floors exceed the budget, and
    NonConvergenceError when the row ends at ratio -inf, unsettled.
    """
    lambdas, powers, iterations = dinkelbach_batch(
        np.asarray(weights, dtype=float)[None, :], p_min, mu, sigma2, p_budget,
        power_offset, epsilon,
    )
    if lambdas[-1, 0] == -np.inf:
        raise NonConvergenceError(
            f"ratio parameter did not settle within {_DINKELBACH_ITERATIONS} iterations"
        )
    trace = DinkelbachTrace(tuple(float(lam) for lam in lambdas[:, 0]), int(iterations[0]))
    return PowerAllocation(p=powers[0]), trace
