"""Joint design drivers: alternating optimization, exhaustive search, relay baseline."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelSet
from .config import CONTINUOUS, SystemConfig
from .model import (
    BUDGET_SLACK,
    PhaseConfig,
    PowerAllocation,
    SingularMatrixError,
    SolveReport,
    effective_channel,
    effective_channels,
    phase_grid,
    sum_rate,
    zf_precoder,
    zf_svd,
)
from .phases import (
    PhaseOptimizationError,
    RelaxedSolveOptions,
    quantize_phases,
    solve_phase_subproblem,
    solve_relaxed_cells,
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
_SOLVE_HERE = object()  # alternating_ee_max's default first_step: solve it on the one cell


class EnumerationCapError(ValueError):
    """Exhaustive search would exceed the enumeration cap of 2^20 candidates."""


@dataclass(frozen=True)
class AlternatingIterate:
    phases: PhaseConfig
    powers: PowerAllocation
    ee: float


@dataclass(frozen=True)
class AlternatingTrace:
    """Record of one alternating_ee_max solve.

    iterates holds the feasible points the solve visited, in order. At a
    finite resolution they are the start (the quantized first phase step,
    when feasible) and each move the discrete search accepted, so their
    efficiencies rise strictly and the last is the report's. With
    continuous phases they are the alternating loop's outer iterates, whose
    efficiencies rise strictly except that a "converged" trace ends with the
    first iterate that did not rise. termination is one of "converged",
    "infeasible" (no feasible point, or a step failed) or "iteration-cap"
    (continuous phases only). first_step holds the relaxed phases the first
    phase step returned, before quantization, or None if that step failed.
    """

    iterates: tuple
    termination: str
    first_step: PhaseConfig | None


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


def enumeration_count(n: int, b) -> int:
    """Candidates (2^b)^n of an exhaustive search over n elements at resolution b.

    Raises ValueError for continuous b, and EnumerationCapError when the
    count exceeds DEFAULT_ENUMERATION_CAP.
    """
    if b == CONTINUOUS:
        raise ValueError("exhaustive enumeration needs a finite resolution")
    total = (1 << b) ** n
    if total > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exhaustive at n={n} needs {total} candidates, cap is {DEFAULT_ENUMERATION_CAP}"
        )
    return total


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


def _score(channels: ChannelSet, config: SystemConfig, phi: np.ndarray) -> tuple:
    """Dinkelbach efficiency and powers of the surface at responses phi (B, N), in one batch.

    The power step of every surface candidate. Returns ee (B,) and powers
    (B, K). A row whose effective channel is rank deficient, or whose QoS
    floors need more than the budget, scores -inf with zero powers. Each
    row's figures equal dinkelbach_allocation's on its own weights bit for bit.
    """
    weights = zf_svd(effective_channels(channels.h1, channels.h2, channels.h, phi))[3]
    p_min = qos_min_powers(config)
    with np.errstate(invalid="ignore"):  # inf beam norms: an inf or nan (inf * 0) load never fits
        keep = np.sum(weights * p_min, axis=1) <= config.p_budget * (1.0 + BUDGET_SLACK)
    ee = np.full(len(phi), -np.inf)
    powers = np.zeros(weights.shape)
    if np.any(keep):
        lambdas, powers[keep], _ = dinkelbach_batch(
            weights[keep], p_min, config.mu, config.sigma2, config.p_budget,
            _power_offset(config), config.epsilon,
        )
        ee[keep] = lambdas[-1]
    return ee, powers


def _grid_search(channels: ChannelSet, config: SystemConfig, start: PhaseConfig) -> tuple:
    """Best-improvement search over single-element moves on the b-bit grid, from start.

    Each sweep scores the current phase vector and the N (2^b - 1) vectors
    that differ from it in one element, in one _score batch, and moves to
    the best of them while that raises the efficiency strictly (a tie goes
    to the current point, then to the lowest element and the fewest grid
    steps up). An infeasible start scores -inf, so the
    search moves to any feasible neighbour. Returns (iterates, termination):
    the feasible points visited, with strictly rising efficiencies, and
    "converged", or "infeasible" when no point scored.
    """
    levels = 1 << config.b
    grid = phase_grid(config.b)
    moves = np.arange(config.n * (levels - 1))
    element, shift = moves // (levels - 1), moves % (levels - 1) + 1
    digits = np.rint(start.theta / grid[1]).astype(int)
    iterates = []

    def visit(row):
        iterates.append(AlternatingIterate(
            PhaseConfig(theta=grid[candidates[row]], resolution=config.b),
            PowerAllocation(p=powers[row]), float(ee[row])))

    while True:
        candidates = np.tile(digits, (moves.size + 1, 1))  # row 0 is the current point
        candidates[moves + 1, element] = (digits[element] + shift) % levels
        ee, powers = _score(channels, config, np.exp(1j * grid)[candidates])
        if not iterates and ee[0] > -np.inf:
            visit(0)  # the start
        i = int(np.argmax(ee))
        if i == 0:
            return iterates, "converged" if iterates else "infeasible"
        digits = candidates[i]
        visit(i)


def _alternate(channels: ChannelSet, config: SystemConfig, phases: PhaseConfig,
               options: RelaxedSolveOptions | None) -> tuple:
    """The continuous alternating loop from the first phase step: (iterates, termination).

    A later phase step starts from the previous phases only; each iterate is scored by _score
    as a batch of one. It ends "infeasible" when a phase step fails or an iterate scores -inf.
    """
    refine = replace(options or RelaxedSolveOptions(), num_restarts=1)
    iterates = []
    for i in range(DEFAULT_MAX_OUTER):
        try:
            if i:
                phases = solve_phase_subproblem(channels, iterates[-1].powers, phases.theta,
                                                config.p_budget, options=refine).phases
        except PhaseOptimizationError:
            return iterates, "infeasible"
        ee, powers = _score(channels, config, phases.phi[None, :])
        if ee[0] == -np.inf:
            return iterates, "infeasible"
        iterates.append(AlternatingIterate(phases, PowerAllocation(p=powers[0]), float(ee[0])))
        if len(iterates) > 1 and iterates[-1].ee <= iterates[-2].ee:
            return iterates, "converged"
    return iterates, "iteration-cap"


def first_phase_steps(cells, options: RelaxedSolveOptions | None = None) -> list:
    """alternating_ee_max's first phase step for each cell (channels, config, seed), in one batch.

    The first step is the relaxed phase solve at the uniform power split
    P/K from zero phases, seeded with the first draw integers(2^63) of
    default_rng(seed); only the channels, k, n and the budget of config
    enter it. The cells must share K, M and N. Returns the relaxed phases
    per cell, or None where every restart is rank deficient, each equal bit
    for bit to the cell's step solved alone.
    """
    steps = solve_relaxed_cells([
        (channels, PowerAllocation(p=np.full(config.k, config.p_budget / config.k)),
         np.zeros(config.n), int(np.random.default_rng(seed).integers(2 ** 63)))
        for channels, config, seed in cells], options)
    return [None if step is None else PhaseConfig(theta=step[0]) for step in steps]


def alternating_ee_max(channels: ChannelSet, config: SystemConfig, seed: int = 0,
                       options: RelaxedSolveOptions | None = None,
                       first_step=_SOLVE_HERE):
    """Joint phase and power design for energy efficiency.

    Starts with a relaxed phase step at a uniform power split and zero
    phases, first_phase_steps on this one cell, the only step with seeded
    random restarts. Nothing in it depends on b, and the trace returns its
    relaxed solution as first_step. A caller that already holds the step for
    the same channels, budget, seed and options, from first_phase_steps or
    from a solve at another resolution, may pass it in (None if it failed):
    the solve then skips it and returns an equal report and trace. The
    harness solves the first steps of many cells in one first_phase_steps
    batch and passes each cell's in this way.

    At a finite b the first step is quantized and _grid_search takes over,
    which departs from the paper's alternation: the report is the last point
    the search accepted, and outer_iterations counts the accepted points.
    With continuous phases _alternate runs the paper's loop: phase steps
    from one start, warm at the previous phases and powers, each followed by
    a Dinkelbach power step, until an iterate's ratio is not strictly above
    the previous one's ("converged") or for DEFAULT_MAX_OUTER (50) iterates
    ("iteration-cap"). The phase step optimizes a feasibility surrogate, so
    an iterate can lose efficiency; the best iterate (the earlier on a tie)
    is reported, and outer_iterations counts the iterates.

    Returns (SolveReport, AlternatingTrace). The report has feasible=False
    when no feasible point is found: the first phase step failed, no grid
    point visited fits the QoS floors (finite b), or the first iterate
    scores -inf (continuous).
    """
    tag = resolution_tag(config.b)
    if first_step is _SOLVE_HERE:
        (first_step,) = first_phase_steps([(channels, config, seed)], options)
    if first_step is None:
        iterates, termination = [], "infeasible"
    elif config.b != CONTINUOUS:
        iterates, termination = _grid_search(channels, config,
                                             quantize_phases(first_step.theta, config.b))
    else:
        iterates, termination = _alternate(channels, config, first_step, options)
    trace = AlternatingTrace(tuple(iterates), termination, first_step)
    if not iterates:
        return SolveReport.infeasible(tag), trace
    best = max(iterates, key=lambda it: it.ee)
    return evaluate(channels, config, best.phases, best.powers, len(iterates), tag), trace


def exhaustive_search(channels: ChannelSet, config: SystemConfig) -> SolveReport:
    """Try every admissible phase vector; keep the efficiency-best feasible one.

    Candidates whose effective channel is rank deficient or whose QoS floors
    do not fit the budget are skipped. Candidate i sets element j to grid
    level (i // 2^(b*j)) mod 2^b. Candidates are scored _EXHAUSTIVE_CHUNK at
    a time by _score, the discrete search's scorer: one stacked SVD for the
    beam norms, one batched Dinkelbach solve.
    Deterministic: equal efficiencies resolve to the lowest enumeration
    index. outer_iterations reports the number of candidates enumerated.
    More than DEFAULT_ENUMERATION_CAP (2^20) candidates raise
    EnumerationCapError before any is scored.
    """
    total = enumeration_count(config.n, config.b)
    levels = 1 << config.b
    place = levels ** np.arange(config.n)
    best = (-np.inf, None, None)  # (ee, digits, powers)
    for first in range(0, total, _EXHAUSTIVE_CHUNK):
        digits = np.arange(first, min(first + _EXHAUSTIVE_CHUNK, total))[:, None] // place % levels
        ee, powers = _score(channels, config, np.exp(1j * phase_grid(config.b))[digits])
        i = int(np.argmax(ee))
        if ee[i] > best[0]:
            best = (ee[i], digits[i], powers[i])
    if best[1] is None:
        return SolveReport.infeasible("exhaustive", total)
    phases = PhaseConfig(theta=phase_grid(config.b)[best[1]], resolution=config.b)
    return evaluate(channels, config, phases, PowerAllocation(p=best[2]), total, "exhaustive")


def relay_baseline(channels: ChannelSet, config: SystemConfig) -> SolveReport:
    """Amplify-and-forward baseline: fixed uniform gain, no phase design.

    The surface slot is occupied by a relay applying gain alpha to every
    element (ideal reception, no precoding), so the effective channel is a
    fixed matrix and only the power allocation is designed. Power accounting
    swaps the per-element surface draw for the relay's dedicated transmit
    power.
    """
    h_relay, offset = _link(channels, config, None)
    try:
        alloc, dtrace = dinkelbach_allocation(
            zf_power_weights(h_relay), qos_min_powers(config), config.mu, config.sigma2,
            config.p_budget, offset, config.epsilon)
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
