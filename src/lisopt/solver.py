"""Joint design drivers: alternating optimization, exhaustive search, relay baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelSet
from .config import CONTINUOUS, SystemConfig
from .model import (
    BUDGET_SLACK,
    PhaseConfig,
    PowerAllocation,
    SolveReport,
    effective_channel,
    effective_channels,
    phase_grid,
    zf_gram_inverse,
)
from .model import zf_precoder  # noqa: F401  not called here; perfbench's instrument() wraps it
from .phases import RelaxedSolveOptions, quantize_phases, solve_relaxed_cells
# perfbench's instrument() wraps these names and nothing calls them; ROADMAP item 15 drops them
from .phases import solve_relaxed as solve_phase_subproblem  # noqa: F401
from .power import dinkelbach_allocation, zf_power_weights  # noqa: F401
from .power import dinkelbach_batch, efficiency_bound, qos_min_powers, rate_and_power, solve_inner

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

    iterates holds the feasible points the solve visited, in order, each
    with the efficiency and powers _score gave it: from ratio 0 for the
    first sweep's points and continuous iterates, and from the previous
    point's ratio for later search moves. At a finite resolution they are
    the start (the quantized first phase step, when feasible) and each move
    the discrete search accepted, so their efficiencies rise strictly and
    the last is the report's. With continuous phases they are the
    alternating loop's outer iterates, whose efficiencies rise strictly
    except that a "converged" or "bound" trace ends with an iterate that
    need not rise. termination is one of "bound" (a point the search
    reached or compared against, or the loop's last iterate, is certified:
    it attains the phase-free bound EE°, so no phase vector at this
    resolution does better), "converged" (no single-element move, or no
    further loop iterate, raised the efficiency), "infeasible" (no feasible
    point, or a step failed) or "iteration-cap" (continuous phases only).
    first_step holds the relaxed phases the first phase step returned,
    before quantization, or None if that step failed.
    """

    iterates: tuple
    termination: str
    first_step: PhaseConfig | None


def resolution_tag(b) -> str:
    return "lis-continuous" if b == CONTINUOUS else f"lis-{b}bit"


def _power_offset(config: SystemConfig, relay: bool = False) -> float:
    """Fixed draw: K link circuits plus N elements at resolution b, or plus the relay's power."""
    return config.k * config.p_c + (config.relay.tx_power_w if relay
                                    else config.n * config.p_n_of_b[config.b])


def _link(channels: ChannelSet, config: SystemConfig, phases: PhaseConfig | None) -> np.ndarray:
    """Effective channel of the surface at phases, or of the relay (gain alpha) if None."""
    if phases is None:
        return config.relay.alpha * (channels.h2 @ channels.h1) + channels.h
    return effective_channel(channels, phases)


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


def evaluate(config: SystemConfig, phases: PhaseConfig | None, powers: PowerAllocation,
             iterations: int, tag: str) -> SolveReport:
    """Feasible report of an operating point: powers on the surface at phases, or on the relay.

    phases=None selects the relay. The rate and total power are
    power.rate_and_power's closed-form ZF rate and mu . p plus the fixed
    draw, the terms the power step divides, so ee is bit for bit the ratio
    _score (or the relay's Dinkelbach) gave the point, which must be feasible.
    """
    rate, ptot = map(float, rate_and_power(powers.p, config.mu, config.sigma2,
                                           _power_offset(config, relay=phases is None)))
    return SolveReport(ee=rate / ptot, sum_rate=rate, total_power=ptot, phases=phases,
                       powers=powers, outer_iterations=iterations, feasible=True, method_tag=tag)


def _beam_loads(channels, phi: np.ndarray) -> np.ndarray:
    """Squared ZF beam norms (B, K) of the surface at responses phi (B, N): one zf_gram_inverse.

    channels is one ChannelSet, or a list of them, one per row of phi. Rows
    whose effective channel is rank deficient hold inf.
    """
    if isinstance(channels, ChannelSet):
        return zf_gram_inverse(effective_channels(channels.h1, channels.h2, channels.h, phi))[1]
    return zf_gram_inverse(effective_channels(*(np.stack([getattr(c, name) for c in channels])
                                                for name in ("h1", "h2", "h")), phi))[1]


def _fits(weights: np.ndarray, p: np.ndarray, p_budget) -> np.ndarray:
    """Rows of weights (B, K) that radiate powers p within the budget, up to BUDGET_SLACK."""
    with np.errstate(invalid="ignore"):  # inf beam norms: an inf or nan (inf * 0) load never fits
        return np.sum(weights * p, axis=1) <= p_budget * (1.0 + BUDGET_SLACK)


def _cell_terms(config: SystemConfig) -> tuple:
    """_score's terms of a surface point of config: (budget, QoS floors, fixed draw, EE°, p°)."""
    return _task_terms([config])[0]


def _task_terms(configs) -> list:
    """_cell_terms of each config, with one efficiency_bound call per distinct bound problem.

    Configs with equal floors, mu, noise and fixed draw share one (EE°, p°),
    since the budget and the channels do not enter it. p° is read-only, so
    the reports certified at it cannot change each other.
    """
    bounds, terms = {}, []
    for config in configs:
        p_min, offset = qos_min_powers(config), _power_offset(config)
        key = (p_min.tobytes(), config.mu.tobytes(), config.sigma2, offset)
        if key not in bounds:
            ee_bound, p_bound = efficiency_bound(p_min, config.mu, config.sigma2, offset)
            p_bound.flags.writeable = False
            bounds[key] = ee_bound, p_bound
        terms.append((config.p_budget, p_min, offset, *bounds[key]))
    return terms


def _score(config: SystemConfig, weights: np.ndarray, terms: tuple,
           start: float = 0.0) -> tuple:
    """The power step of every surface point: (ee, powers, certified) of beam norms (B, K).

    This is the one scoring rule. terms are the budget, QoS floors, fixed
    draw and phase_free_bound (EE°, p°) of one cell, as _cell_terms gives
    them, which every row shares, or those of each row, stacked to shapes
    (B,), (B, K), (B,), (B,) and (B, K). config supplies the amplifier
    factors, the noise and epsilon, which every row shares. A row that
    radiates its p° within its budget (up to BUDGET_SLACK) is certified and
    scores exactly (EE°, p°), with no Dinkelbach run. The other rows run one
    dinkelbach_batch from ratio start, so each scores as it would alone, and
    at start 0 as dinkelbach_allocation on its weights, bit for bit. A row
    whose beam norms are inf (rank deficient), whose QoS floors need more
    than its budget, or whose Dinkelbach run does not settle scores -inf
    with zero powers. Returns ee (B,), powers (B, K) and the certified mask
    (B,).
    """
    budget, p_min, offset, ee_bound, p_bound = terms
    certified = _fits(weights, p_bound, budget)
    keep = _fits(weights, p_min, budget) & ~certified
    ee = np.where(certified, ee_bound, -np.inf)
    powers = np.where(certified[:, None], p_bound, 0.0)
    if np.any(keep):
        if np.asarray(budget).ndim:  # stacked per row: the kept rows' own terms
            budget, p_min, offset = budget[keep], p_min[keep], offset[keep]
        lambdas, powers[keep], _ = dinkelbach_batch(
            weights[keep], p_min, config.mu, config.sigma2, budget, offset, config.epsilon, start,
        )
        ee[keep] = lambdas[-1]
    return ee, powers, certified


def phase_free_bound(config: SystemConfig) -> tuple:
    """(EE°, p°) of config: power.efficiency_bound at its floors, mu, noise and fixed draw.

    No surface report at resolution config.b exceeds EE°, and the phases
    _score certifies attain it. EE° depends on the config alone: K, N, b,
    mu, the noise, the floors and the circuit powers, not the channels or
    the budget.
    """
    return _cell_terms(config)[3:]


def _grid_search(channels: ChannelSet, config: SystemConfig, start: PhaseConfig,
                 terms: tuple) -> tuple:
    """Best-improvement search over single-element moves on the b-bit grid, from start.

    Every point is scored by _score with the cell's terms. A certified start
    ends the search "bound" after its one-row Gram inverse, with no
    Dinkelbach run. Otherwise each sweep scores, in one stacked Gram
    inverse, the N (2^b - 1) vectors that differ from the current point in
    one element: the first sweep with the start, from ratio 0, each later
    one from the current ratio. The search moves to the best row while it is strictly above the current
    ratio (a tie goes to the current point, then to the lowest element and
    the fewest grid steps up), and ends "bound" when the row it moved to is
    certified, or when no row beats the current point but one is certified.
    An infeasible start scores -inf, so the search moves to any feasible
    neighbour. Returns (iterates, termination): the feasible points visited,
    with strictly rising efficiencies, and "bound", "converged", or
    "infeasible" when no point scored.
    """
    levels = 1 << config.b
    grid = phase_grid(config.b)
    responses = np.exp(1j * grid)
    moves = np.arange(config.n * (levels - 1))
    element, shift = moves // (levels - 1), moves % (levels - 1) + 1
    digits = np.rint(start.theta / grid[1]).astype(int)
    iterates = []

    def visit(candidate, ee, p):
        iterates.append(AlternatingIterate(
            PhaseConfig(theta=grid[candidate], resolution=config.b),
            PowerAllocation(p=p), float(ee)))

    def sweep(digits):
        """The single-element moves from digits and their beam norms."""
        moved = np.tile(digits, (moves.size, 1))
        moved[moves, element] = (digits[element] + shift) % levels
        return moved, _beam_loads(channels, responses[moved])

    loads = _beam_loads(channels, responses[digits][None, :])
    budget, _, _, ee_bound, p_bound = terms
    if _fits(loads, p_bound, budget)[0]:
        visit(digits, ee_bound, p_bound)
        return iterates, "bound"
    moved, weights = sweep(digits)
    ee, powers, certified = _score(config, np.vstack([loads, weights]), terms)
    ratio = ee[0]
    if ratio > -np.inf:
        visit(digits, ratio, powers[0])
    ee, powers, certified = ee[1:], powers[1:], certified[1:]
    while True:
        i = int(np.argmax(ee))
        if not ee[i] > ratio:
            return iterates, ("bound" if certified.any() else
                              "converged" if iterates else "infeasible")
        digits, ratio = moved[i], ee[i]
        visit(digits, ratio, powers[i])
        if certified[i]:
            return iterates, "bound"
        moved, weights = sweep(digits)
        ee, powers, certified = _score(config, weights, terms, ratio)


def alternate_cells(cells, options: RelaxedSolveOptions | None = None, terms=None) -> list:
    """The continuous alternating loop of many cells (channels, config, first_step) in lockstep.

    first_step is the cell's first phase step, from first_phase_steps (None
    if it failed); the loop starts there. Each later round makes one
    solve_relaxed_cells call with one start per live cell, warm at its
    previous iterate's phases and powers, and each round scores the live
    cells' phases in one _score call from ratio 0, every row with its own
    cell's _cell_terms (terms, one per cell, or computed here). Each cell
    keeps its own stop rule: it ends "bound" after its first certified
    iterate, "converged" when an iterate's ratio is not strictly above the
    one before it, "infeasible" when its first step is None, a phase step
    fails or an iterate scores -inf, and "iteration-cap" after
    DEFAULT_MAX_OUTER (50) iterates. No cell's figures depend on the others,
    so each equals its batch-of-one loop bit for bit. The cells must share
    K, M, N, mu, the noise and epsilon.

    Returns per cell (AlternatingTrace, seconds): seconds is the cell's even
    share of the wall time of every round it was live in.
    """
    config = cells[0][1]  # the amplifier factors, noise and epsilon of every row
    refine = replace(options or RelaxedSolveOptions(), num_restarts=1)
    terms = [np.array(term) for term in zip(*(terms or _task_terms([cfg for _, cfg, _ in cells])))]
    phases = [step for _, _, step in cells]
    iterates = [[] for _ in cells]
    ends = ["infeasible"] * len(cells)  # each cell's termination, once it ends
    seconds = [0.0] * len(cells)
    live = [c for c, step in enumerate(phases) if step is not None]
    for i in range(DEFAULT_MAX_OUTER):
        if not live:
            break
        t0 = time.perf_counter()
        if i:
            steps = solve_relaxed_cells([(cells[c][0], iterates[c][-1].powers, phases[c].theta, 0)
                                         for c in live], refine)
            for c, step in zip(live, steps):
                phases[c] = None if step is None else PhaseConfig(theta=step[0])
        stepped = [c for c in live if phases[c] is not None]
        going = []
        if stepped:
            weights = _beam_loads([cells[c][0] for c in stepped],
                                  np.array([phases[c].phi for c in stepped]))
            ee, powers, certified = _score(config, weights, [term[stepped] for term in terms])
            for c, e, p, done in zip(stepped, ee, powers, certified):
                if e == -np.inf:
                    continue
                iterates[c].append(AlternatingIterate(phases[c], PowerAllocation(p=p), float(e)))
                if done:
                    ends[c] = "bound"
                elif len(iterates[c]) > 1 and iterates[c][-1].ee <= iterates[c][-2].ee:
                    ends[c] = "converged"
                else:
                    going.append(c)
        share = (time.perf_counter() - t0) / len(live)
        for c in live:
            seconds[c] += share
        live = going
    for c in live:
        ends[c] = "iteration-cap"
    return [(AlternatingTrace(tuple(its), end, cell[2]), wall)
            for its, end, cell, wall in zip(iterates, ends, cells, seconds)]


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
                       first_step=_SOLVE_HERE, terms: tuple | None = None):
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

    Both branches score their points by _score with the cell's
    _cell_terms: terms if given (the harness computes them once per task),
    else computed once per solve; they end "bound" at a certified point.
    At a finite b the first step is quantized and _grid_search takes over,
    which departs from the paper's alternation: the report is the last point
    the search accepted, and outer_iterations counts the accepted points.
    With continuous phases the paper's loop runs, alternate_cells on this
    one cell: phase steps from one start, warm at the previous phases and
    powers, each followed by a power step, until an iterate is certified
    ("bound"), an iterate's ratio is not strictly above the previous one's
    ("converged") or for DEFAULT_MAX_OUTER (50) iterates ("iteration-cap").
    The phase step optimizes a feasibility surrogate, so an iterate can lose
    efficiency; the best iterate (the earlier on a tie) is reported, and
    outer_iterations counts the iterates.

    Returns (SolveReport, AlternatingTrace). The report has feasible=False
    when no feasible point is found: the first phase step failed, no grid
    point visited fits the QoS floors (finite b), or the first iterate
    scores -inf (continuous).
    """
    if first_step is _SOLVE_HERE:
        (first_step,) = first_phase_steps([(channels, config, seed)], options)
    terms = _cell_terms(config) if terms is None else terms
    if config.b == CONTINUOUS:
        ((trace, _),) = alternate_cells([(channels, config, first_step)], options, [terms])
    else:
        iterates, termination = ([], "infeasible") if first_step is None else _grid_search(
            channels, config, quantize_phases(first_step.theta, config.b), terms)
        trace = AlternatingTrace(tuple(iterates), termination, first_step)
    return trace_report(config, trace), trace


def trace_report(config: SystemConfig, trace: AlternatingTrace) -> SolveReport:
    """alternating_ee_max's report of its trace: the best iterate (the earlier on a tie), evaluated.

    outer_iterations counts the iterates; a trace with none gives the
    infeasible report.
    """
    tag = resolution_tag(config.b)
    if not trace.iterates:
        return SolveReport.infeasible(tag)
    best = max(trace.iterates, key=lambda it: it.ee)
    return evaluate(config, best.phases, best.powers, len(trace.iterates), tag)


def exhaustive_search(channels: ChannelSet, config: SystemConfig,
                      terms: tuple | None = None) -> SolveReport:
    """Try every admissible phase vector; keep the efficiency-best feasible one.

    Candidates whose effective channel is rank deficient or whose QoS floors
    do not fit the budget are skipped. Candidate i sets element j to grid
    level (i // 2^(b*j)) mod 2^b. Candidates are scored _EXHAUSTIVE_CHUNK at
    a time, one stacked Gram inverse for their beam norms and one _score
    call from ratio 0, with the cell's _cell_terms: terms if given, else
    computed once per call. Deterministic:
    equal efficiencies resolve to the lowest enumeration index.
    outer_iterations reports the number of candidates enumerated. More than
    DEFAULT_ENUMERATION_CAP (2^20) candidates raise EnumerationCapError
    before any is scored.
    """
    total = enumeration_count(config.n, config.b)
    terms = _cell_terms(config) if terms is None else terms
    responses = np.exp(1j * phase_grid(config.b))
    levels = 1 << config.b
    place = levels ** np.arange(config.n)
    best = (-np.inf, None, None)  # (ee, digits, powers)
    for first in range(0, total, _EXHAUSTIVE_CHUNK):
        digits = np.arange(first, min(first + _EXHAUSTIVE_CHUNK, total))[:, None] // place % levels
        ee, powers, _ = _score(config, _beam_loads(channels, responses[digits]), terms)
        i = int(np.argmax(ee))
        if ee[i] > best[0]:
            best = (ee[i], digits[i], powers[i])
    if best[1] is None:
        return SolveReport.infeasible("exhaustive", total)
    phases = PhaseConfig(theta=phase_grid(config.b)[best[1]], resolution=config.b)
    return evaluate(config, phases, PowerAllocation(p=best[2]), total, "exhaustive")


def _fixed_link_rows(links, configs) -> tuple:
    """Beam norms of the stacked channels links, each row's budget and floors from configs,
    and the indices of the rows _fits keeps: full rank, with floors within the budget."""
    weights = zf_gram_inverse(np.stack(links))[1]
    budget, p_min = (np.array(term) for term in zip(*((c.p_budget, qos_min_powers(c))
                                                      for c in configs)))
    return weights, budget, p_min, np.flatnonzero(_fits(weights, p_min, budget))


def relay_reports(cells) -> list:
    """Amplify-and-forward baseline of many cells (channels, config): fixed gain, no phase design.

    The surface slot is occupied by a relay applying gain alpha to every
    element (ideal reception, no precoding), so each cell's effective channel
    is a fixed matrix and only the power allocation is designed. Power
    accounting swaps the per-element surface draw for the relay's dedicated
    transmit power. The cells' channels take one stacked Gram inverse and
    their power steps one dinkelbach_batch from ratio 0, each row with its own budget,
    floors and fixed draw, so each report equals its batch-of-one solve bit
    for bit. A cell whose relay channel is rank deficient, whose QoS floors
    do not fit its budget, or whose ratio does not settle gets the infeasible
    report. The cells must share K, M, mu, the noise and epsilon.
    """
    configs = [config for _, config in cells]
    weights, budget, p_min, keep = _fixed_link_rows(
        [_link(channels, config, None) for channels, config in cells], configs)
    offset = np.array([_power_offset(config, relay=True) for config in configs])
    reports = [SolveReport.infeasible("relay")] * len(cells)
    if keep.size:
        config = configs[0]  # the amplifier factors, noise and epsilon of every row
        lambdas, powers, iterations = dinkelbach_batch(
            weights[keep], p_min[keep], config.mu, config.sigma2, budget[keep], offset[keep],
            config.epsilon)
        for i, ee, p, count in zip(keep, lambdas[-1], powers, iterations):
            if ee > -np.inf:
                reports[i] = evaluate(configs[i], None, PowerAllocation(p=p), int(count), "relay")
    return reports


def relay_baseline(channels: ChannelSet, config: SystemConfig) -> SolveReport:
    """The amplify-and-forward baseline of one cell: relay_reports on a batch of one."""
    return relay_reports([(channels, config)])[0]


def max_rate_fills(cells) -> list:
    """Re-allocate each feasible report's powers to maximize the sum rate; cells are
    (channels, report, config).

    This is the inner concave solve with no ratio penalty, so the budget
    constraint is necessarily active. The reports' channels (phases None:
    the relay channel) take one stacked Gram inverse and their fills one
    solve_inner at ratio 0, each row with its own budget and floors, so each equals its
    batch-of-one fill bit for bit. The phases, tag and iteration count are
    kept; rate, power and efficiency are re-evaluated. A row whose channel is
    rank deficient, whose QoS floors do not fit its budget or whose budget
    multiplier does not settle gets the infeasible report of its tag. The
    cells must share K, M and the noise. Raises ValueError for an infeasible
    report.
    """
    for _, report, _ in cells:
        if not report.feasible:
            raise ValueError(f"cannot re-fill an infeasible {report.method_tag} report")
    configs = [config for _, _, config in cells]
    weights, budget, p_min, keep = _fixed_link_rows(
        [_link(channels, config, report.phases) for channels, report, config in cells], configs)
    reports = [SolveReport.infeasible(report.method_tag) for _, report, _ in cells]
    if keep.size:
        powers = solve_inner(0.0, weights[keep], p_min[keep], configs[0].mu, configs[0].sigma2,
                             budget[keep])
        for i, p in zip(keep, powers):
            if not np.isnan(p[0]):
                report = cells[i][1]
                reports[i] = evaluate(configs[i], report.phases, PowerAllocation(p=p),
                                      report.outer_iterations, report.method_tag)
    return reports


def max_rate_power_fill(channels: ChannelSet, report: SolveReport,
                        config: SystemConfig) -> SolveReport:
    """The max-rate fill of one feasible report: max_rate_fills on a batch of one."""
    return max_rate_fills([(channels, report, config)])[0]
