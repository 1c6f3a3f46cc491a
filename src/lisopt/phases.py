"""Surface phase design for fixed powers: relaxed solve, discretization, feasibility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import ChannelSet
from .config import CONTINUOUS
from .model import (
    TWO_PI,
    PhaseConfig,
    PowerAllocation,
    effective_channels,
    phase_grid,
    zf_beam_norms,
    zf_svd,
)

# Stands in for +inf inside line searches so they back off instead of dying.
_SENTINEL = 1e30
# L-BFGS-B's projected-gradient (gtol) and relative objective-decrease (ftol) tests.
_GRADIENT_TOLERANCE = 1e-6
_STEP_TOLERANCE = 1e-12


class PhaseOptimizationError(RuntimeError):
    """Every restart of the relaxed solve landed in a rank-deficient region."""


@dataclass(frozen=True)
class RelaxedSolveOptions:
    """Iteration cap and start count of the box-constrained quasi-Newton solve.

    max_iterations caps each L-BFGS-B run. num_restarts counts total starts:
    the caller's warm start plus num_restarts - 1 seeded random points. The
    gradient and objective-decrease tolerances are fixed (1e-6 and 1e-12).
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
    """Discretized phases, the radiated power they need at the given powers, and the budget test.

    theta_quantized is the relaxed solution snapped to the b-bit grid, or the
    relaxed solution itself for continuous phases.
    """

    theta_quantized: PhaseConfig
    objective_quantized: float
    feasible: bool


def trace_values(thetas: np.ndarray, channels: ChannelSet, powers: PowerAllocation) -> np.ndarray:
    """Radiated ZF power for a batch of phase vectors; +inf where rank deficient.

    thetas has shape (B, N); returns shape (B,). The beam norms of the whole
    batch come from one stacked zf_beam_norms call.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    beam_norms = zf_beam_norms(effective_channels(channels, np.exp(1j * thetas)))
    good = np.all(np.isfinite(beam_norms), axis=1)
    out = np.full(thetas.shape[0], np.inf)
    out[good] = beam_norms[good] @ powers.p
    return out


def trace_objective(theta: np.ndarray, channels: ChannelSet, powers: PowerAllocation) -> float:
    """Transmit power ZF needs to deliver the allocation under phases theta."""
    return float(trace_values(np.asarray(theta, dtype=float)[None, :], channels, powers)[0])


def trace_value_and_grad(theta: np.ndarray, channels: ChannelSet,
                         powers: PowerAllocation) -> tuple:
    """Radiated ZF power at phases theta and its exact gradient, from one reduced SVD.

    With the effective channel H = U S V^H, the ZF precoder G = V S^-1 U^H and
    X = (H H^H)^-1 = U S^-2 U^H, tr(P X) has d/d theta_n = 2 Im(phi_n [h1 G P X h2]_nn).
    The value is trace_objective's. A rank-deficient point gives the sentinel
    and a zero gradient, so line searches back off.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.exp(1j * theta)
    u, s, vh, beam_norms = zf_svd(effective_channels(channels, phi[None, :]))
    if not np.isfinite(beam_norms[0, 0]):
        return _SENTINEL, np.zeros_like(theta)
    u, s, vh, p = u[0], s[0], vh[0], powers.p
    uh = u.conj().T
    h1_g = (channels.h1 @ vh.conj().T / s) @ uh
    px_h2 = p[:, None] * ((u / s ** 2) @ (uh @ channels.h2))
    grad = 2.0 * np.imag(phi * np.einsum("nk,kn->n", h1_g, px_h2))
    return float((beam_norms @ p)[0]), grad


def solve_relaxed(channels: ChannelSet, powers: PowerAllocation,
                  warm_start: np.ndarray | None = None,
                  options: RelaxedSolveOptions | None = None,
                  seed: int = 0) -> np.ndarray:
    """Minimize the radiated-power objective over the box [0, 2*pi]^N.

    Runs a projected quasi-Newton solve (L-BFGS-B) from the warm start and
    from num_restarts - 1 seeded random points, with the exact gradient of
    trace_value_and_grad (one SVD per evaluation), the gradient tolerance
    1e-6 and the relative decrease tolerance 1e-12. Rank-deficient points
    evaluate to a large sentinel so line searches step away. The result is
    never worse than the warm start, because restart 0 starts there and
    L-BFGS-B never ends above its start; ties go to the lowest restart index.
    """
    options = options or RelaxedSolveOptions()
    n = channels.h1.shape[0]
    if warm_start is None:
        warm = np.zeros(n)
    else:
        warm = np.clip(np.asarray(warm_start, dtype=float), 0.0, TWO_PI)
        if warm.shape != (n,):
            raise ValueError(f"warm start must have length {n}, got shape {warm.shape}")
    rng = np.random.default_rng(seed)
    starts = [warm] + [rng.uniform(0.0, TWO_PI, n) for _ in range(options.num_restarts - 1)]

    def value(theta: np.ndarray) -> float:
        v = trace_values(theta[None, :], channels, powers)[0]
        return float(v) if np.isfinite(v) else _SENTINEL

    best_f, best_theta = np.inf, warm
    for x0 in starts:
        res = minimize(
            trace_value_and_grad, x0, args=(channels, powers), jac=True, method="L-BFGS-B",
            bounds=[(0.0, TWO_PI)] * n,
            options={
                "maxiter": options.max_iterations,
                "ftol": _STEP_TOLERANCE,
                "gtol": _GRADIENT_TOLERANCE,
            },
        )
        cand = np.clip(res.x, 0.0, TWO_PI)
        # Not res.fun: after an abnormal line-search exit (status 2) scipy
        # returns the restored x with the last trial's objective value.
        f_cand = value(cand)
        if f_cand < best_f:
            best_f, best_theta = f_cand, cand
    if best_f >= _SENTINEL:
        raise PhaseOptimizationError("all restarts ended in rank-deficient regions")
    return best_theta


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


def solve_phase_subproblem(channels: ChannelSet, powers: PowerAllocation, b,
                           warm_start: np.ndarray | None, p_budget: float,
                           options: RelaxedSolveOptions | None = None,
                           seed: int = 0) -> PhaseSolveOutcome:
    """Relax, solve, then discretize (finite b) and test the caller's budget.

    For b == CONTINUOUS the discretization step is the identity.
    """
    theta_c = solve_relaxed(channels, powers, warm_start=warm_start, options=options, seed=seed)
    if b == CONTINUOUS:
        quantized = PhaseConfig(theta=theta_c, resolution=CONTINUOUS)
    else:
        quantized = quantize_phases(theta_c, b)
    objective = trace_objective(quantized.theta, channels, powers)
    return PhaseSolveOutcome(
        theta_quantized=quantized,
        objective_quantized=objective,
        feasible=objective <= p_budget * (1.0 + 1e-9),
    )
