"""Surface phase design for fixed powers: relaxed solve, discretization, feasibility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .model import (
    BUDGET_SLACK,
    TWO_PI,
    PhaseConfig,
    PowerAllocation,
    effective_channels,
    phase_grid,
    zf_svd,
)

# Stopping tests of the relaxed solve: largest projected-gradient entry, both absolute
# and per unit of objective (alone, the absolute test stops early on objectives near
# 1e-5 W); relative objective decrease.
_GRADIENT_TOLERANCE = 1e-6
_RELATIVE_GRADIENT_TOLERANCE = 2e-2
_STEP_TOLERANCE = 1e-12
# Objectives the nonmonotone line search looks back on, Armijo sufficient-decrease
# constant, trials per line search.
_HISTORY = 10
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 20


class PhaseOptimizationError(RuntimeError):
    """Every restart of the relaxed solve landed in a rank-deficient region."""


@dataclass(frozen=True)
class RelaxedSolveOptions:
    """Iteration cap and start count of the relaxed phase solve.

    max_iterations caps each start's iterations. num_restarts counts total starts, run in
    lockstep: the caller's warm start plus num_restarts - 1 random points drawn from the
    solve's seed (at 1, no draw and no generator). Only the first phase step of
    alternating_ee_max runs them; its later steps run the warm start alone. The gradient and
    objective-decrease tolerances are fixed (1e-6 and 2e-2 of the objective per radian, and
    1e-12).
    """

    max_iterations: int = 80
    num_restarts: int = 4

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")


@dataclass(frozen=True)
class PhaseSolveOutcome:
    """Relaxed (continuous) phases, the radiated power they need at given powers, the budget test."""

    phases: PhaseConfig
    objective: float
    feasible: bool


def stack_rows(pairs, repeats: int) -> tuple:
    """trace_value_and_grad's per-row channels and powers: each (channels, powers) pair, repeated.

    Returns h1 (B, N, M), h2 (B, K, N), h (B, K, M) and p (B, K), with B =
    repeats * len(pairs): each pair's rows in turn. The pairs must share K,
    M and N.
    """
    return tuple(np.repeat(np.stack(arrays), repeats, axis=0)
                 for arrays in zip(*((c.h1, c.h2, c.h, p.p) for c, p in pairs)))


def trace_values(thetas: np.ndarray, channels: ChannelSet, powers: PowerAllocation) -> np.ndarray:
    """Radiated ZF power for a batch of phase vectors (B, N): trace_value_and_grad's values (B,).

    +inf where rank deficient. The one channel and power vector are
    repeated per row, and the gradient is computed and dropped; no solver
    path calls this, only trace_objective.
    """
    thetas = np.atleast_2d(thetas)
    return trace_value_and_grad(thetas, *stack_rows([(channels, powers)], len(thetas)))[0]


def trace_objective(theta: np.ndarray, channels: ChannelSet, powers: PowerAllocation) -> float:
    """Transmit power ZF needs to deliver the allocation under phases theta."""
    return float(trace_values(np.asarray(theta, dtype=float)[None, :], channels, powers)[0])


def trace_value_and_grad(thetas: np.ndarray, h1: np.ndarray, h2: np.ndarray, h: np.ndarray,
                         p: np.ndarray) -> tuple:
    """Radiated ZF power at a batch of phase vectors and its exact gradient, one stacked SVD.

    Row b has phases thetas[b] (N,), its own channels h1[b] (N, M), h2[b]
    (K, N), h[b] (K, M) and powers p[b] (K,); stack_rows repeats one
    channel and power vector per row. Returns values (B,) and gradients
    (B, N). With the effective channel H = U S V^H, the ZF precoder
    G = V S^-1 U^H and X = (H H^H)^-1 = U S^-2 U^H, tr(P X) has
    d/d theta_n = 2 Im(phi_n [h1 G P X h2]_nn), and
    h1 G P X h2 = (h1 V S^-1)(U^H P U S^-2)(U^H h2). Rank-deficient rows
    give +inf and a zero gradient, so line searches back off. No row's
    figures depend on the other rows.
    """
    phi = np.exp(1j * thetas)
    u, s, vh, beam_norms = zf_svd(effective_channels(h1, h2, h, phi))
    bad = np.isinf(beam_norms[:, 0])
    values = np.einsum("bk,bk->b", beam_norms, p)
    values[bad] = np.inf  # inf * 0 of a zero-power user is nan
    s[bad] = 1.0
    uh = u.conj().swapaxes(1, 2)
    h1_g = (h1 @ vh.conj().swapaxes(1, 2)) / s[:, None, :]
    px = (uh @ (p[:, :, None] * u)) / (s * s)[:, None, :]
    grad = 2.0 * (phi * np.einsum("bnk,bkn->bn", h1_g @ px, uh @ h2)).imag
    grad[bad] = 0.0
    return values, grad


def _projected(x: np.ndarray, f: np.ndarray, v: np.ndarray) -> tuple:
    """Projected gradient magnitudes and spg_lockstep's gradient stopping test, per row.

    Returns |v| with the entries zeroed that would push x out of [0, 2*pi]
    along -v, and whether each row's largest entry passes both tolerances.
    """
    apg = np.abs(v)
    apg[((x <= 0.0) & (v > 0.0)) | ((x >= TWO_PI) & (v < 0.0))] = 0.0
    return apg, apg.max(axis=1) <= np.minimum(_GRADIENT_TOLERANCE, _RELATIVE_GRADIENT_TOLERANCE * f)


def _armijo(rise: np.ndarray, g: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per-row sufficient decrease: the objective rises by at most _ARMIJO * g^T step < 0."""
    gs = np.einsum("bn,bn->b", g, step)
    return (rise <= _ARMIJO * gs) & (gs < 0.0)


def spg_lockstep(starts: np.ndarray, h1: np.ndarray, h2: np.ndarray, h: np.ndarray,
                 p: np.ndarray, max_iterations: int) -> tuple:
    """Minimize the radiated-power objective on [0, 2*pi]^N from every row of starts (B, N).

    Row b minimizes under its own channels and powers h1[b], h2[b], h[b]
    and p[b], shaped as trace_value_and_grad takes them. Each row runs its
    own nonmonotone spectral projected gradient (Birgin, Martinez & Raydan
    2000). It steps along d = clip(x - alpha g, 0, 2*pi) - x,
    the projection of a gradient step onto the box. alpha is the
    Barzilai-Borwein length s^T s / s^T y of the last step s and gradient
    change y when s^T y > 0; otherwise, and on the first step, it is
    1 / |pg|, so the step moves a distance of at most 1. Here pg is the
    projected gradient: g with the entries zeroed whose angle sits on a
    bound and would leave the box along -g.

    The line search is nonmonotone (Grippo, Lampariello & Lucidi 1986): a
    trial x1 passes when its objective is at most the largest of the row's
    last _HISTORY objectives plus _ARMIJO * g^T (x1 - x). Every accepted
    objective is therefore below the start's. The first trial takes the
    full step d, and a failed trial shrinks the step by safeguarded
    quadratic interpolation. A row stops when its projected gradient's
    largest entry is at most min(_GRADIENT_TOLERANCE,
    _RELATIVE_GRADIENT_TOLERANCE * f), when a step changes its objective by
    no more than _STEP_TOLERANCE * max(f, 1), when its line search fails,
    or after max_iterations steps; it then leaves the batch, and its
    channels and powers leave with it, so the batch's arrays stay compact
    and no call gathers them. Each round of trial points, one per searching
    row, is one stacked trace_value_and_grad call. No row's figures depend
    on the other rows, so each equals a batch-of-one solve.

    Returns the end points (B, N), in [0, 2*pi], and their objectives (B,),
    none above its start's (clipped to the box).
    """
    x = np.asarray(starts, dtype=float).clip(0.0, TWO_PI)
    f, g = trace_value_and_grad(x, h1, h2, h, p)
    ends, values = x.copy(), f.copy()
    apg, stationary = _projected(x, f, g)
    rows = (~stationary).nonzero()[0]
    x, f, g, apg = x[rows], f[rows], g[rows], apg[rows]
    data = (h1[rows], h2[rows], h[rows], p[rows])
    history = np.repeat(f[:, None], _HISTORY, axis=1)
    alpha = 1.0 / np.sqrt(np.einsum("bn,bn->b", apg, apg))
    for i in range(max_iterations):
        if rows.size == 0:
            break
        d = (x - alpha[:, None] * g).clip(0.0, TWO_PI) - x
        x1, f1, g1, s = _line_search(x, f, g, d, history.max(axis=1), data)
        sy = np.einsum("bn,bn->b", s, g1 - g)
        small = np.abs(f - f1) <= _STEP_TOLERANCE * np.maximum(f, 1.0)
        x, f, g = x1, f1, g1
        apg, stationary = _projected(x, f, g)
        history[:, i % _HISTORY] = f

        # a failed line search restored its row, and a zero change is small
        done = small | stationary
        if np.count_nonzero(done):
            ends[rows[done]], values[rows[done]] = x[done], f[done]
            live = ~done
            rows, x, f, g, apg = rows[live], x[live], f[live], g[live], apg[live]
            history, s, sy = history[live], s[live], sy[live]
            data = tuple(a[live] for a in data)
        fallback = None if (sy > 0.0).all() else 1.0 / np.sqrt(np.einsum("bn,bn->b", apg, apg))
        alpha = np.divide(np.einsum("bn,bn->b", s, s), sy, out=fallback, where=sy > 0.0)
    ends[rows], values[rows] = x, f
    return ends, values


def _line_search(x, f, g, d, reference, data) -> tuple:
    """Backtracking Armijo line search of spg_lockstep, per row of the start (x, f, g).

    Each row first tries the full step d, clipped to the box, in one stacked
    trace_value_and_grad call. A trial x1 passes when its objective exceeds
    the row's reference value by at most _ARMIJO * g^T (x1 - x) < 0. The
    failed rows retry together at the minimizer of the quadratic through f,
    the slope g^T d and their last trial, kept within [0.1, 0.5] of the last
    step, up to _MAX_BACKTRACKS trials in all. data holds the rows' channels
    and powers, h1, h2, h and p; the failed rows take their part of it along
    as they shrink. Returns (x1, f1, g1, x1 - x): each row's first passing
    trial, or its start and a zero step if none did.
    """
    x1 = (x + d).clip(0.0, TWO_PI)
    f1, g1 = trace_value_and_grad(x1, *data)
    s = x1 - x
    rows = (~_armijo(f1 - reference, g, s)).nonzero()[0]
    if rows.size:
        t, slope = np.ones(rows.size), np.einsum("bn,bn->b", g[rows], d[rows])
        data = tuple(a[rows] for a in data)
        for _ in range(_MAX_BACKTRACKS - 1):
            drop = f1[rows] - f[rows]
            t = np.fmin(np.fmax(-slope * t ** 2 / (2.0 * (drop - slope * t)), 0.1 * t), 0.5 * t)
            x1[rows] = (x[rows] + t[:, None] * d[rows]).clip(0.0, TWO_PI)
            f1[rows], g1[rows] = trace_value_and_grad(x1[rows], *data)
            s[rows] = x1[rows] - x[rows]
            miss = ~_armijo(f1[rows] - reference[rows], g[rows], s[rows])
            if not miss.all():
                rows, t, slope = rows[miss], t[miss], slope[miss]
                if rows.size == 0:
                    return x1, f1, g1, s
                data = tuple(a[miss] for a in data)
        x1[rows], f1[rows], g1[rows], s[rows] = x[rows], f[rows], g[rows], 0.0
    return x1, f1, g1, s


def solve_relaxed(channels: ChannelSet, powers: PowerAllocation, warm_start: np.ndarray,
                  options: RelaxedSolveOptions | None = None, seed: int = 0) -> tuple:
    """Minimize the radiated-power objective over the phase angles, from warm_start (N,).

    Runs spg_lockstep from the warm start and, when num_restarts > 1, from
    num_restarts - 1 random points drawn from seed, with the exact gradient
    of trace_value_and_grad. Rank-deficient points evaluate to +inf so line
    searches step away. The result is the lowest end point, ties to the
    lowest restart, so it is never worse than the warm start, where restart
    0 starts and which it never rises above. This is solve_relaxed_cells on
    one cell.

    Returns (theta, objective): the angles (N,) and their objective, the
    SPG's own value of that end point, equal bit for bit to trace_objective.
    """
    n = channels.h1.shape[0]
    warm = np.asarray(warm_start, dtype=float)
    if warm.shape != (n,):
        raise ValueError(f"warm start must have length {n}, got shape {warm.shape}")
    (best,) = solve_relaxed_cells([(channels, powers, warm, seed)], options)
    if best is None:
        raise PhaseOptimizationError("all restarts ended in rank-deficient regions")
    return best


def solve_relaxed_cells(cells, options: RelaxedSolveOptions | None = None) -> list:
    """solve_relaxed on many cells (channels, powers, warm start (N,), seed) in one lockstep batch.

    The cells must share K, M and N. Each cell's starts, solve_relaxed's,
    carry its channels and powers through one spg_lockstep call. Returns
    per cell solve_relaxed's (theta, objective), bit for bit whatever the
    cell's batch neighbours, or None where every restart is rank deficient.
    """
    options = options or RelaxedSolveOptions()
    r = options.num_restarts
    starts = np.vstack([
        np.vstack([warm, np.random.default_rng(seed).uniform(0.0, TWO_PI, (r - 1, warm.size))])
        if r > 1 else warm for _, _, warm, seed in cells])
    rows = stack_rows([(channels, powers) for channels, powers, _, _ in cells], r)
    thetas, values = spg_lockstep(starts, *rows, options.max_iterations)
    best = np.arange(0, len(values), r) + np.argmin(values.reshape(-1, r), axis=1)
    return [(thetas[i], float(values[i])) if np.isfinite(values[i]) else None for i in best]


def quantize_phases(theta: np.ndarray, b: int) -> PhaseConfig:
    """Snap each angle to the nearest admissible b-bit phase.

    Distance is circular; a tie midway between two levels rounds to the
    higher angle, and 2*pi wraps to 0.
    """
    grid = phase_grid(b)
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > TWO_PI):
        raise ValueError("angles must lie in [0, 2*pi]")
    m = np.floor(theta / grid[1] + 0.5).astype(int) % grid.size
    return PhaseConfig(theta=grid[m], resolution=int(b))


def solve_phase_subproblem(channels: ChannelSet, powers: PowerAllocation,
                           warm_start: np.ndarray, p_budget: float,
                           options: RelaxedSolveOptions | None = None,
                           seed: int = 0) -> PhaseSolveOutcome:
    """Relaxed phase solve and budget test: alternating_ee_max's phase step after the first."""
    theta, objective = solve_relaxed(channels, powers, warm_start=warm_start,
                                     options=options, seed=seed)
    return PhaseSolveOutcome(
        phases=PhaseConfig(theta=theta),
        objective=objective,
        feasible=objective <= p_budget * (1.0 + BUDGET_SLACK),
    )
