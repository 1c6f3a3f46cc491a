"""Effective channel, zero-forcing precoding, and the rate/power/efficiency figures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .config import CONTINUOUS, SystemConfig

TWO_PI = 2.0 * np.pi


class SingularMatrixError(ValueError):
    """Effective channel is numerically rank deficient."""

    def __init__(self, smallest_singular_value: float, threshold: float):
        self.smallest_singular_value = smallest_singular_value
        self.threshold = threshold
        super().__init__(
            f"rank-deficient effective channel: smallest singular value "
            f"{smallest_singular_value:.6e} <= threshold {threshold:.6e}"
        )


def phase_grid(b: int) -> np.ndarray:
    """The 2^b admissible phase angles for b-bit elements."""
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"resolution must be a positive integer, got {b!r}")
    step = TWO_PI / (1 << b)
    return step * np.arange(1 << b)


@dataclass(frozen=True)
class PhaseConfig:
    """Per-element phase angles plus the resolution they honour.

    Finite-resolution angles must sit exactly on the admissible grid
    {2*pi*m / 2^b}; continuous angles may be anywhere in [0, 2*pi].
    """

    theta: np.ndarray
    resolution: int | str = CONTINUOUS

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1:
            raise ValueError(f"theta must be a vector, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        if np.any(theta < 0.0) or np.any(theta > TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi]")
        if self.resolution != CONTINUOUS:
            b = self.resolution
            if not isinstance(b, (int, np.integer)) or b < 1:
                raise ValueError(f"resolution must be a positive integer or {CONTINUOUS!r}, got {b!r}")
            step = TWO_PI / (1 << b)
            m = np.round(theta / step)
            if np.any(m >= (1 << b)) or np.any(theta != m * step):
                raise ValueError("finite-resolution phases must sit exactly on the admissible grid")

    @property
    def phi(self) -> np.ndarray:
        """Unit-modulus element responses exp(j*theta)."""
        return np.exp(1j * self.theta)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers in watts."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1:
            raise ValueError(f"powers must be a vector, got shape {p.shape}")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("powers must be finite and non-negative")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one joint design: efficiency, rate, power, operating point.

    When ``feasible`` is False the numeric fields are zero and the
    operating point may be absent.
    """

    ee: float
    sum_rate: float
    total_power: float
    phases: PhaseConfig | None
    powers: PowerAllocation | None
    outer_iterations: int
    feasible: bool
    method_tag: str


def effective_channel(channels: ChannelSet, phases: PhaseConfig) -> np.ndarray:
    """Composite users<-BS channel through and around the surface."""
    if phases.theta.shape[0] != channels.h1.shape[0]:
        raise ValueError(
            f"phase vector length {phases.theta.shape[0]} does not match "
            f"{channels.h1.shape[0]} surface elements"
        )
    return effective_channels(channels, phases.phi)


def effective_channels(channels: ChannelSet, phi: np.ndarray) -> np.ndarray:
    """Composite channels for element responses phi of shape (..., N); shape (..., K, M)."""
    return (channels.h2 * phi[..., None, :]) @ channels.h1 + channels.h


def _zf_shape(h_eff: np.ndarray) -> tuple:
    k, m = h_eff.shape[-2:]
    if k > m:
        raise ValueError(f"need at least as many antennas as users, got K={k} > M={m}")
    return k, m


def _rank_threshold(s: np.ndarray, k: int, m: int) -> np.ndarray:
    # singular values s sorted descending along the last axis; rank deficient at s[-1] <= threshold
    return max(k, m) * np.finfo(float).eps * s[..., 0]


def zf_precoder(h_eff: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse of the effective channel; columns are per-user beams.

    Raises SingularMatrixError when the smallest singular value falls at or
    below max(K, M) * machine_eps * s_max.
    """
    k, m = _zf_shape(h_eff)
    u, s, vh = np.linalg.svd(h_eff, full_matrices=False)
    threshold = _rank_threshold(s, k, m)
    if s[-1] <= threshold:
        raise SingularMatrixError(float(s[-1]), float(threshold))
    return (vh.conj().T / s[None, :]) @ u.conj().T


def zf_beam_norms(h_eff: np.ndarray) -> np.ndarray:
    """Squared ZF beam norms ||g_k||^2 of an effective channel or a stack of them.

    h_eff has shape (..., K, M); the result has shape (..., K). With the
    reduced SVD U S V^H the beam norms are sum_j |U[k, j]|^2 / s_j^2, so a
    stack costs one batched SVD. A channel that zf_precoder rejects as rank
    deficient gets +inf in every entry.
    """
    h_eff = np.asarray(h_eff)
    k, m = _zf_shape(h_eff)
    u, s, _ = np.linalg.svd(h_eff.reshape(-1, k, m), full_matrices=False)
    good = s[:, -1] > _rank_threshold(s, k, m)
    out = np.full(u.shape[:2], np.inf)
    out[good] = np.einsum("bkj,bj->bk", np.abs(u[good]) ** 2, 1.0 / s[good] ** 2)
    return out.reshape(h_eff.shape[:-1])


def sinr(k: int, channels: ChannelSet, phases: PhaseConfig, precoder: np.ndarray,
         powers: PowerAllocation, sigma2: float) -> float:
    """Per-user SINR evaluated literally: wanted-beam gain over interference plus noise."""
    h_eff = effective_channel(channels, phases)
    if not 0 <= k < h_eff.shape[0]:
        raise IndexError(f"user index {k} out of range for {h_eff.shape[0]} users")
    gains = np.abs(h_eff[k] @ precoder) ** 2
    p = powers.p
    signal = p[k] * gains[k]
    interference = float(np.dot(p, gains)) - signal
    return float(signal / (interference + sigma2))


def sum_rate(channels: ChannelSet, phases: PhaseConfig, precoder: np.ndarray,
             powers: PowerAllocation, sigma2: float) -> float:
    """Sum of per-user log2(1 + SINR), bits/s/Hz."""
    h_eff = effective_channel(channels, phases)
    gains = np.abs(h_eff @ precoder) ** 2  # gains[k, i] = |h_k g_i|^2
    p = powers.p
    signal = p * np.diag(gains)
    interference = gains @ p - signal
    return float(np.sum(np.log2(1.0 + signal / (interference + sigma2))))


def transmit_power_used(powers: PowerAllocation, precoder: np.ndarray) -> float:
    """Radiated power sum_k p_k * ||g_k||^2 (the trace of P G^H G)."""
    return float(np.dot(powers.p, np.sum(np.abs(precoder) ** 2, axis=0)))


def consumed_power(p, mu, p_c: float, n_elements: int, p_n: float) -> float:
    """Amplifier draw plus per-link circuit power plus per-element surface power."""
    p = np.asarray(p, dtype=float)
    return float(np.dot(np.asarray(mu, dtype=float), p)) + p.size * p_c + n_elements * p_n


def total_power(powers: PowerAllocation, config: SystemConfig) -> float:
    """System power consumption at the configured resolution."""
    if config.b not in config.p_n_of_b:
        raise ValueError(f"p_n_of_b has no entry for resolution {config.b!r}")
    return consumed_power(powers.p, config.mu, config.p_c, config.n, config.p_n_of_b[config.b])


def energy_efficiency(channels: ChannelSet, phases: PhaseConfig,
                      powers: PowerAllocation, config: SystemConfig) -> float:
    """Achievable sum rate per watt of total consumption, under ZF precoding."""
    precoder = zf_precoder(effective_channel(channels, phases))
    rate = sum_rate(channels, phases, precoder, powers, config.sigma2)
    return rate / total_power(powers, config)
