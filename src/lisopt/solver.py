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
    channel_power_weights,
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
    phase_change: float
    power_change: float


@dataclass(frozen=True)
class AlternatingTrace:
    """Per-iteration record of the alternating solve.

    termination is one of "converged" (both squared change norms fell below
    the tolerance), "infeasible", or "iteration-cap".
    """

    iterates: tuple
    termination: str


def resolution_tag(b) -> str:
    return "lis-continuous" if b == CONTINUOUS else f"lis-{b}bit"


def _power_offset(config: SystemConfig) -> float:
    return config.k * config.p_c + config.n * config.p_n_of_b[config.b]


def _infeasible_report(tag: str, iterations: int = 0) -> SolveReport:
    return SolveReport(
        ee=0.0, sum_rate=0.0, total_power=0.0, phases=None, powers=None,
        outer_iterations=iterations, feasible=False, method_tag=tag,
    )


def _build_report(channels: ChannelSet, phases: PhaseConfig, powers: PowerAllocation,
                  config: SystemConfig, iterations: int, tag: str,
                  power_offset: float) -> SolveReport:
    precoder = zf_precoder(effective_channel(channels, phases))
    rate = sum_rate(channels, phases, precoder, powers, config.sigma2)
    ptot = float(np.dot(config.mu, powers.p)) + power_offset
    return SolveReport(
        ee=rate / ptot, sum_rate=rate, total_power=ptot, phases=phases,
        powers=powers, outer_iterations=iterations, feasible=True, method_tag=tag,
    )


def alternating_ee_max(channels: ChannelSet, config: SystemConfig, seed: int = 0,
                       options: RelaxedSolveOptions | None = None,
                       max_outer: int = DEFAULT_MAX_OUTER):
    """Alternate phase design (fixed powers) with power design (fixed phases).

    Starts from a uniform power split and zero phases; each phase iterate is
    gated on the radiated-power budget before the power step runs. Because
    the phase step optimizes a feasibility surrogate rather than the
    efficiency itself, the efficiency need not improve monotonically, so the
    best feasible iterate seen is returned together with the full trace.

    Returns (SolveReport, AlternatingTrace). Infeasibility before any
    feasible iterate yields a report with feasible=False.
    """
    tag = resolution_tag(config.b)
    offset = _power_offset(config)
    rng = np.random.default_rng(seed)
    p_prev = np.full(config.k, config.p_budget / config.k)
    theta_prev = np.zeros(config.n)
    phi_prev = np.exp(1j * theta_prev)
    p_min = qos_min_powers(config)

    iterates = []
    termination = "iteration-cap"
    best = None  # (ee, phases, powers)
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
            weights = zf_power_weights(channels, phases)
            alloc, dtrace = dinkelbach_allocation(
                weights, p_min, config.mu, config.sigma2, config.p_budget,
                offset, config.epsilon,
            )
        except (InfeasibleError, SingularMatrixError):
            termination = "infeasible"
            break
        ee = dtrace.lambdas[-1]
        phi = np.exp(1j * phases.theta)
        phase_change = float(np.sum(np.abs(phi - phi_prev) ** 2))
        power_change = float(np.sum((alloc.p - p_prev) ** 2))
        iterates.append(AlternatingIterate(phases, alloc, ee, phase_change, power_change))
        if best is None or ee > best[0]:
            best = (ee, phases, alloc)
        if phase_change < config.epsilon and power_change < config.epsilon:
            termination = "converged"
            break
        p_prev, theta_prev, phi_prev = alloc.p, phases.theta, phi

    trace = AlternatingTrace(tuple(iterates), termination)
    if best is None:
        return _infeasible_report(tag, len(iterates)), trace
    report = _build_report(channels, best[1], best[2], config, len(iterates), tag, offset)
    return report, trace


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
            best = (lambdas[-1, i], digits[keep][i], powers[-1, i])
    if best is None:
        return _infeasible_report("exhaustive", total)
    phases = PhaseConfig(theta=grid[best[1]], resolution=config.b)
    return _build_report(channels, phases, PowerAllocation(p=best[2]), config, total,
                         "exhaustive", offset)


def _relay_effective_channel(channels: ChannelSet, config: SystemConfig) -> np.ndarray:
    return config.relay.alpha * (channels.h2 @ channels.h1) + channels.h


def relay_baseline(channels: ChannelSet, config: SystemConfig) -> SolveReport:
    """Amplify-and-forward baseline: fixed uniform gain, no phase design.

    The surface slot is occupied by a relay applying gain alpha to every
    element (ideal reception, no precoding), so the effective channel is a
    fixed matrix and only the power allocation is designed. Power accounting
    swaps the per-element surface draw for the relay's dedicated transmit
    power.
    """
    h_eff = _relay_effective_channel(channels, config)
    offset = config.k * config.p_c + config.relay.tx_power_w
    try:
        weights = channel_power_weights(h_eff)
        alloc, dtrace = dinkelbach_allocation(
            weights, qos_min_powers(config), config.mu, config.sigma2,
            config.p_budget, offset, config.epsilon,
        )
    except (SingularMatrixError, InfeasibleError):
        return _infeasible_report("relay")
    gains = np.abs(h_eff @ zf_precoder(h_eff)) ** 2
    signal = alloc.p * np.diag(gains)
    interference = gains @ alloc.p - signal
    rate = float(np.sum(np.log2(1.0 + signal / (interference + config.sigma2))))
    ptot = float(np.dot(config.mu, alloc.p)) + offset
    return SolveReport(
        ee=rate / ptot, sum_rate=rate, total_power=ptot, phases=None,
        powers=alloc, outer_iterations=dtrace.iterations, feasible=True,
        method_tag="relay",
    )


def max_rate_power_fill(channels: ChannelSet, phases_or_relay, config: SystemConfig) -> PowerAllocation:
    """Budget-exhausting rate maximization for fixed phases (or the relay channel).

    This is the inner concave solve with no ratio penalty, so the budget
    constraint is necessarily active. Pass a PhaseConfig, or the string
    "relay" to use the fixed relay channel.
    """
    if isinstance(phases_or_relay, PhaseConfig):
        weights = zf_power_weights(channels, phases_or_relay)
    elif phases_or_relay == "relay":
        weights = channel_power_weights(_relay_effective_channel(channels, config))
    else:
        raise ValueError(f"expected a PhaseConfig or 'relay', got {phases_or_relay!r}")
    return solve_inner(0.0, weights, qos_min_powers(config), config.mu,
                       config.sigma2, config.p_budget)
