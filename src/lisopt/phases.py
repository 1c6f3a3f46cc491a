"""Surface phase design for fixed powers: relaxed solve, discretization, feasibility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import ChannelSet
from .config import CONTINUOUS
from .model import TWO_PI, PhaseConfig, PowerAllocation, effective_channels, zf_beam_norms

# Stands in for +inf inside line searches so they back off instead of dying.
_SENTINEL = 1e30


class PhaseOptimizationError(RuntimeError):
    """Every restart of the relaxed solve landed in a rank-deficient region."""


@dataclass(frozen=True)
class RelaxedSolveOptions:
    """Knobs for the box-constrained quasi-Newton solve.

    num_restarts counts total starts: the caller's warm start plus
    num_restarts - 1 seeded random points. step_tolerance maps to the
    solver's relative objective-decrease test.
    """

    max_iterations: int = 80
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-12
    num_restarts: int = 4
    finite_difference_step: float = 1e-5

    def __post_init__(self):
        for name in ("max_iterations", "gradient_tolerance", "step_tolerance",
                     "finite_difference_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")


@dataclass(frozen=True)
class PhaseSolveOutcome:
    """Relaxed solution, its discretization, and both radiated-power objectives."""

    theta_continuous: np.ndarray
    theta_quantized: PhaseConfig
    objective_continuous: float
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


def solve_relaxed(channels: ChannelSet, powers: PowerAllocation,
                  warm_start: np.ndarray | None = None,
                  options: RelaxedSolveOptions | None = None,
                  seed: int = 0) -> np.ndarray:
    """Minimize the radiated-power objective over the box [0, 2*pi]^N.

    Runs a projected quasi-Newton solve (L-BFGS-B) from the warm start and
    from num_restarts - 1 seeded random points; gradients are central finite
    differences so the objective stays a black box. Rank-deficient points
    evaluate to a large sentinel so line searches step away. The result is
    never worse than the warm start; ties go to the lowest restart index.
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

    h = options.finite_difference_step
    eye = np.eye(n)

    def value(theta: np.ndarray) -> float:
        v = trace_values(theta[None, :], channels, powers)[0]
        return float(v) if np.isfinite(v) else _SENTINEL

    def value_and_grad(theta: np.ndarray):
        probes = np.concatenate([theta[None, :], theta + h * eye, theta - h * eye], axis=0)
        vals = trace_values(probes, channels, powers)
        vals = np.where(np.isfinite(vals), vals, _SENTINEL)
        grad = (vals[1:n + 1] - vals[n + 1:]) / (2.0 * h)
        return vals[0], grad

    # The raw warm-start point is candidate zero: it guarantees the descent contract.
    best_f, best_theta = value(warm), warm
    for x0 in starts:
        res = minimize(
            value_and_grad, x0, jac=True, method="L-BFGS-B",
            bounds=[(0.0, TWO_PI)] * n,
            options={
                "maxiter": options.max_iterations,
                "ftol": options.step_tolerance,
                "gtol": options.gradient_tolerance,
            },
        )
        cand = np.clip(res.x, 0.0, TWO_PI)
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
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"resolution must be a positive integer, got {b!r}")
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > TWO_PI):
        raise ValueError("angles must lie in [0, 2*pi]")
    step = TWO_PI / (1 << b)
    m = np.floor(theta / step + 0.5).astype(int) % (1 << b)
    return PhaseConfig(theta=m * step, resolution=int(b))


def check_feasibility(phases: PhaseConfig, powers: PowerAllocation,
                      channels: ChannelSet, p_budget: float) -> bool:
    """Budget test: can ZF deliver the allocation within the radiated-power cap."""
    return trace_objective(phases.theta, channels, powers) <= p_budget * (1.0 + 1e-9)


def solve_phase_subproblem(channels: ChannelSet, powers: PowerAllocation, b,
                           warm_start: np.ndarray | None, p_budget: float,
                           options: RelaxedSolveOptions | None = None,
                           seed: int = 0) -> PhaseSolveOutcome:
    """Relax, solve, then discretize (finite b) and test the caller's budget.

    For b == CONTINUOUS the discretization step is the identity.
    """
    theta_c = solve_relaxed(channels, powers, warm_start=warm_start, options=options, seed=seed)
    objective_c = trace_objective(theta_c, channels, powers)
    if b == CONTINUOUS:
        quantized = PhaseConfig(theta=theta_c, resolution=CONTINUOUS)
        objective_q = objective_c
    else:
        quantized = quantize_phases(theta_c, b)
        objective_q = trace_objective(quantized.theta, channels, powers)
    feasible = objective_q <= p_budget * (1.0 + 1e-9)
    return PhaseSolveOutcome(
        theta_continuous=theta_c,
        theta_quantized=quantized,
        objective_continuous=objective_c,
        objective_quantized=objective_q,
        feasible=feasible,
    )
