"""Joint design drivers: alternating optimization, exhaustive search, relay baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import CONTINUOUS, SystemConfig
from .model import (
    PhaseConfig,
    PowerAllocation,
    SingularMatrixError,
    SolveReport,
    effective_channel,
    effective_channels,
    phase_grid,
    sum_rate,
    zf_beam_norms,
    zf_precoder,
)
from .phases import (
    PhaseOptimizationError,
    RelaxedSolveOptions,
    solve_phase_subproblem,
)
from .power import (
    InfeasibleError,
    dinkelbach_allocation,
    dinkelbach_batch,
    qos_min_powers,
    solve_inner,
    zf_power_weights,
)

DEFAULT_ENUMERATION_CAP = 2 ** 20
DEFAULT_MAX_OUTER = 50
# Candidates exhaustive_search solves together: its arrays stay a few MB up to the 2^20 cap.
_EXHAUSTIVE_CHUNK = 4096


class EnumerationCapError(ValueError):
    """Exhaustive search would exceed the configured enumeration cap."""


@dataclass(frozen=True)
class AlternatingIterate:
    phases: PhaseConfig
    powers: PowerAllocation
    ee: float


@dataclass(frozen=True)
class AlternatingTrace:
    """Per-iteration record of the alternating solve.

    The efficiencies of the iterates rise strictly, except that a
    "converged" trace ends with the first iterate that did not rise.
    termination is one of "converged", "infeasible" (a step failed), or
    "iteration-cap".
    """

    iterates: tuple
    termination: str


def resolution_tag(b) -> str:
    return "lis-continuous" if b == CONTINUOUS else f"lis-{b}bit"


def _power_offset(config: SystemConfig) -> float:
    """Fixed draw of the surface: K link circuits plus N elements at resolution b."""
    return config.k * config.p_c + config.n * config.p_n_of_b[config.b]


def _link(channels: ChannelSet, config: SystemConfig, phases: PhaseConfig | None) -> tuple:
    """Effective channel and fixed power draw: the surface at phases, or the relay if None.

    The relay applies gain alpha to every element and swaps the surface's
    per-element draw for its own transmit power.
    """
    if phases is None:
        return (config.relay.alpha * (channels.h2 @ channels.h1) + channels.h,
                config.k * config.p_c + config.relay.tx_power_w)
    return effective_channel(channels, phases), _power_offset(config)


def evaluate(channels: ChannelSet, config: SystemConfig, phases: PhaseConfig | None,
             powers: PowerAllocation, iterations: int, tag: str) -> SolveReport:
    """Feasible report of an operating point: powers on the surface at phases, or on the relay.

    phases=None selects the relay. The rate is the ZF sum rate of the
    effective channel; the total power is the amplifier draw mu . p plus the
    fixed draw. Raises SingularMatrixError when the effective channel is rank
    deficient.
    """
    h_eff, offset = _link(channels, config, phases)
    rate = sum_rate(h_eff, zf_precoder(h_eff), powers, config.sigma2)
    ptot = float(np.dot(config.mu, powers.p)) + offset
    return SolveReport(
        ee=rate / ptot, sum_rate=rate, total_power=ptot, phases=phases,
        powers=powers, outer_iterations=iterations, feasible=True, method_tag=tag,
    )


def alternating_ee_max(channels: ChannelSet, config: SystemConfig, seed: int = 0,
                       options: RelaxedSolveOptions | None = None,
                       max_outer: int = DEFAULT_MAX_OUTER):
    """Alternate phase design (fixed powers) with power design (fixed phases).

    Starts from a uniform power split and zero phases; each phase iterate is
    gated on the radiated-power budget before the power step runs. The phase
    step optimizes a feasibility surrogate rather than the efficiency, so an
    outer iteration can lose efficiency: the solve stops as converged at the
    first iterate whose Dinkelbach ratio is not strictly above the previous
    iterate's. The rule needs no tolerance. The best iterate (the earlier
    one on a tie) is returned together with the full trace.

    Returns (SolveReport, AlternatingTrace). Infeasibility before any
    feasible iterate yields a report with feasible=False.
    """
    tag = resolution_tag(config.b)
    offset = _power_offset(config)
    rng = np.random.default_rng(seed)
    p_prev = np.full(config.k, config.p_budget / config.k)
    theta_prev = np.zeros(config.n)
    p_min = qos_min_powers(config)

    iterates = []
    termination = "iteration-cap"
    for _ in range(max_outer):
        sub_seed = int(rng.integers(2 ** 63))
        try:
            outcome = solve_phase_subproblem(
                channels, PowerAllocation(p=p_prev), config.b,
                warm_start=theta_prev, p_budget=config.p_budget,
                options=options, seed=sub_seed,
            )
        except PhaseOptimizationError:
            termination = "infeasible"
            break
        phases = outcome.theta_quantized
        if not outcome.feasible:
            termination = "infeasible"
            break
        try:
            weights = zf_power_weights(effective_channel(channels, phases))
            alloc, dtrace = dinkelbach_allocation(
                weights, p_min, config.mu, config.sigma2, config.p_budget,
                offset, config.epsilon,
            )
        except (InfeasibleError, SingularMatrixError):
            termination = "infeasible"
            break
        iterates.append(AlternatingIterate(phases, alloc, dtrace.lambdas[-1]))
        if len(iterates) > 1 and iterates[-1].ee <= iterates[-2].ee:
            termination = "converged"
            break
        p_prev, theta_prev = alloc.p, phases.theta

    trace = AlternatingTrace(tuple(iterates), termination)
    if not iterates:
        return SolveReport.infeasible(tag), trace
    best = max(iterates, key=lambda it: it.ee)
    return evaluate(channels, config, best.phases, best.powers, len(iterates), tag), trace


def exhaustive_search(channels: ChannelSet, config: SystemConfig,
                      enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> SolveReport:
    """Try every admissible phase vector; keep the efficiency-best feasible one.

    Candidates whose effective channel is rank deficient or whose QoS floors
    do not fit the budget are skipped. Candidate i sets element j to grid
    level (i // 2^(b*j)) mod 2^b. Candidates are solved _EXHAUSTIVE_CHUNK at
    a time: one stacked SVD for the beam norms, one batched Dinkelbach solve.
    Deterministic: equal efficiencies resolve to the lowest enumeration
    index. outer_iterations reports the number of candidates enumerated.
    """
    if config.b == CONTINUOUS:
        raise ValueError("exhaustive enumeration needs a finite resolution")
    levels = 1 << config.b
    total = levels ** config.n
    if total > enumeration_cap:
        raise EnumerationCapError(
            f"enumeration needs {total} candidates, cap is {enumeration_cap}"
        )
    grid = phase_grid(config.b)
    phi_grid = np.exp(1j * grid)
    place = levels ** np.arange(config.n)
    offset = _power_offset(config)
    p_min = qos_min_powers(config)
    best = None  # (ee, digits, powers)
    for first in range(0, total, _EXHAUSTIVE_CHUNK):
        digits = np.arange(first, min(first + _EXHAUSTIVE_CHUNK, total))[:, None] // place % levels
        weights = zf_beam_norms(effective_channels(channels, phi_grid[digits]))
        with np.errstate(invalid="ignore"):  # inf * 0 floors of rank-deficient rows
            fits = np.sum(weights * p_min, axis=1) <= config.p_budget * (1.0 + 1e-9)
        keep = np.all(np.isfinite(weights), axis=1) & fits
        if not np.any(keep):
            continue
        lambdas, powers, _ = dinkelbach_batch(
            weights[keep], p_min, config.mu, config.sigma2, config.p_budget,
            offset, config.epsilon,
        )
        i = int(np.argmax(lambdas[-1]))
        if best is None or lambdas[-1, i] > best[0]:
            best = (lambdas[-1, i], digits[keep][i], powers[i])
    if best is None:
        return SolveReport.infeasible("exhaustive", total)
    phases = PhaseConfig(theta=grid[best[1]], resolution=config.b)
    return evaluate(channels, config, phases, PowerAllocation(p=best[2]), total, "exhaustive")


def relay_baseline(channels: ChannelSet, config: SystemConfig) -> SolveReport:
    """Amplify-and-forward baseline: fixed uniform gain, no phase design.

    The surface slot is occupied by a relay applying gain alpha to every
    element (ideal reception, no precoding), so the effective channel is a
    fixed matrix and only the power allocation is designed. Power accounting
    swaps the per-element surface draw for the relay's dedicated transmit
    power.
    """
    h_eff, offset = _link(channels, config, None)
    try:
        weights = zf_power_weights(h_eff)
        alloc, dtrace = dinkelbach_allocation(
            weights, qos_min_powers(config), config.mu, config.sigma2,
            config.p_budget, offset, config.epsilon,
        )
    except (SingularMatrixError, InfeasibleError):
        return SolveReport.infeasible("relay")
    return evaluate(channels, config, None, alloc, dtrace.iterations, "relay")


def max_rate_power_fill(channels: ChannelSet, report: SolveReport,
                        config: SystemConfig) -> SolveReport:
    """Re-allocate a feasible report's powers to maximize the sum rate.

    This is the inner concave solve with no ratio penalty, so the budget
    constraint is necessarily active. The phases (None: the relay channel),
    tag and iteration count are kept; rate, power and efficiency are
    re-evaluated.
    """
    if not report.feasible:
        raise ValueError(f"cannot re-fill an infeasible {report.method_tag} report")
    weights = zf_power_weights(_link(channels, config, report.phases)[0])
    alloc = solve_inner(0.0, weights, qos_min_powers(config), config.mu,
                        config.sigma2, config.p_budget)
    return evaluate(channels, config, report.phases, alloc, report.outer_iterations,
                    report.method_tag)
