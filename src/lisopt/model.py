"""Effective channel, zero-forcing precoding, and the rate and radiated-power figures."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channels import ChannelSet
from .config import CONTINUOUS

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
    """The 2^b admissible phase angles 2*pi*m / 2^b of b-bit elements, m = 0 .. 2^b - 1."""
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"resolution must be a positive integer, got {b!r}")
    return TWO_PI / (1 << b) * np.arange(1 << b)


class _ArrayFieldsEq:
    """Field-by-field equality that compares ndarray fields with np.array_equal."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class PhaseConfig(_ArrayFieldsEq):
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
        on_grid = self.resolution == CONTINUOUS or np.isin(theta, phase_grid(self.resolution)).all()
        if not on_grid:
            raise ValueError("finite-resolution phases must sit exactly on the admissible grid")

    @property
    def phi(self) -> np.ndarray:
        """Unit-modulus element responses exp(j*theta)."""
        return np.exp(1j * self.theta)


@dataclass(frozen=True, eq=False)
class PowerAllocation(_ArrayFieldsEq):
    """Per-user transmit powers in watts."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1:
            raise ValueError(f"powers must be a vector, got shape {p.shape}")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("powers must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class SolveReport(_ArrayFieldsEq):
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

    @classmethod
    def infeasible(cls, tag: str, iterations: int = 0) -> SolveReport:
        """Report of a solve that found no feasible operating point."""
        return cls(ee=0.0, sum_rate=0.0, total_power=0.0, phases=None, powers=None,
                   outer_iterations=iterations, feasible=False, method_tag=tag)


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


def zf_svd(h_eff: np.ndarray) -> tuple:
    """Reduced SVD U S V^H of a stack of effective channels and its squared ZF beam norms.

    h_eff has shape (..., K, M) and is taken as a stack of B channels. Returns
    u (B, K, K), s (B, K), vh (B, K, M) and the beam norms ||g_k||^2 =
    sum_j |U[k, j]|^2 / s_j^2 of shape (B, K). A channel is rank deficient
    when its smallest singular value falls at or below
    max(K, M) * machine_eps * s_max; it gets +inf in every beam norm.
    """
    h_eff = np.asarray(h_eff)
    k, m = _zf_shape(h_eff)
    u, s, vh = np.linalg.svd(h_eff.reshape(-1, k, m), full_matrices=False)
    good = s[:, -1] > _rank_threshold(s, k, m)
    norms = np.full(u.shape[:2], np.inf)
    norms[good] = np.einsum("bkj,bj->bk", np.abs(u[good]) ** 2, 1.0 / s[good] ** 2)
    return u, s, vh, norms


def zf_factor(h_eff: np.ndarray) -> tuple:
    """zf_svd of one effective channel (K, M): u (K, K), s (K,), vh (K, M) and beam norms (K,).

    Raises SingularMatrixError when zf_svd finds the channel rank deficient.
    """
    k, m = np.shape(h_eff)
    u, s, vh, norms = zf_svd(h_eff)
    if not np.isfinite(norms[0, 0]):
        raise SingularMatrixError(float(s[0, -1]), float(_rank_threshold(s[0], k, m)))
    return u[0], s[0], vh[0], norms[0]


def zf_precoder(h_eff: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse of the effective channel; columns are per-user beams.

    Raises SingularMatrixError when the channel is rank deficient (see zf_svd).
    """
    u, s, vh, _ = zf_factor(h_eff)
    return (vh.conj().T / s[None, :]) @ u.conj().T


def zf_beam_norms(h_eff: np.ndarray) -> np.ndarray:
    """Squared ZF beam norms (..., K) of effective channels (..., K, M), as zf_svd gives them."""
    h_eff = np.asarray(h_eff)
    return zf_svd(h_eff)[3].reshape(h_eff.shape[:-1])


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


def sum_rate(h_eff: np.ndarray, precoder: np.ndarray, powers: PowerAllocation,
             sigma2: float) -> float:
    """Sum of per-user log2(1 + SINR) over effective channel h_eff, bits/s/Hz."""
    gains = np.abs(h_eff @ precoder) ** 2  # gains[k, i] = |h_k g_i|^2
    p = powers.p
    signal = p * np.diag(gains)
    interference = gains @ p - signal
    return float(np.sum(np.log2(1.0 + signal / (interference + sigma2))))


def transmit_power_used(powers: PowerAllocation, precoder: np.ndarray) -> float:
    """Radiated power sum_k p_k * ||g_k||^2 (the trace of P G^H G)."""
    return float(np.dot(powers.p, np.sum(np.abs(precoder) ** 2, axis=0)))
