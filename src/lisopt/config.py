"""Scalar system parameters, unit helpers, and geometry/pathloss containers.

All internal arithmetic is linear-scale (watts); dBm values are converted
once, at configuration time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# Distinguished resolution value for elements with unquantized phases.
CONTINUOUS = "continuous"


def dbm_to_watts(x: float) -> float:
    """Convert a power level in dBm to linear watts."""
    return 10.0 ** ((x - 30.0) / 10.0)


@dataclass(frozen=True)
class PathlossParams:
    """Log-distance attenuation beta(d) = beta0 * (d/d0)^(-exponent).

    ``ref_loss_db`` is the attenuation at the reference distance d0, so
    beta0 = 10^(-ref_loss_db/10). Exponent 0 with ref_loss_db 0 gives
    unit-variance channels regardless of distance (handy for desk-scale
    normalized experiments).
    """

    exponent: float
    ref_loss_db: float = 30.0
    d0: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent >= 0.0):
            raise ValueError(f"pathloss exponent must be finite and >= 0, got {self.exponent}")
        if not (math.isfinite(self.d0) and self.d0 > 0.0):
            raise ValueError(f"reference distance must be finite and positive, got {self.d0}")
        if not math.isfinite(self.ref_loss_db):
            raise ValueError("reference loss must be finite")
        try:
            self.beta0
        except OverflowError:
            raise ValueError(f"reference loss {self.ref_loss_db} dB gives a gain beta0 "
                             "beyond the float range") from None

    @property
    def beta0(self) -> float:
        return 10.0 ** (-self.ref_loss_db / 10.0)


@dataclass(frozen=True)
class PathlossModel:
    """Per-link attenuation parameters for the three propagation paths."""

    bs_user: PathlossParams = PathlossParams(exponent=3.5)
    bs_lis: PathlossParams = PathlossParams(exponent=2.2)
    lis_user: PathlossParams = PathlossParams(exponent=2.2)

    def for_link(self, link: str) -> PathlossParams:
        if link not in {f.name for f in fields(self)}:
            raise ValueError(f"unknown link type {link!r}")
        return getattr(self, link)


@dataclass(frozen=True)
class Geometry:
    """Planar layout: BS and surface positions plus the user drop rectangle.

    The user rectangle is (xmin, xmax, ymin, ymax). The default 10 m x 10 m
    box sits just below the surface on the right-hand side of the layout;
    users are re-dropped uniformly inside it for every channel realization.
    """

    bs: tuple = (0.0, 0.0)
    lis: tuple = (100.0, 100.0)
    user_box: tuple = (95.0, 105.0, 85.0, 95.0)

    def __post_init__(self):
        for name in ("bs", "lis"):
            point = getattr(self, name)
            if np.shape(point) != (2,) or not np.all(np.isfinite(point)):
                raise ValueError(f"{name} must be two finite coordinates, got {point}")
        if np.array_equal(self.bs, self.lis):
            raise ValueError(f"the BS and the surface share the position {self.bs}")
        if np.shape(self.user_box) != (4,) or not np.all(np.isfinite(self.user_box)):
            raise ValueError(f"user rectangle must be four finite values, got {self.user_box}")
        xmin, xmax, ymin, ymax = self.user_box
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"degenerate user rectangle {self.user_box}")


@dataclass(frozen=True)
class RelayParams:
    """Amplify-and-forward baseline: fixed gain plus dedicated transmit power."""

    alpha: float = 0.3
    tx_power_w: float = dbm_to_watts(60.0)

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"relay gain must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.tx_power_w) and self.tx_power_w >= 0.0):
            raise ValueError(f"relay transmit power must be finite and >= 0, got {self.tx_power_w}")


def _default_p_n_map() -> dict:
    # Per-element consumption defaults: 5/15/45 dBm for 1-bit/2-bit/unquantized. The keys are
    # the resolutions the harness's surface methods run at and its p_n_dbm.* keys name.
    return {
        1: dbm_to_watts(5.0),
        2: dbm_to_watts(15.0),
        CONTINUOUS: dbm_to_watts(45.0),
    }


@dataclass
class SystemConfig:
    """Every scalar the toolkit needs, in linear units.

    m, k, n        -- BS antennas, users, surface elements (n >= k, m >= k)
    b              -- phase resolution in bits (>= 1) or CONTINUOUS
    p_budget       -- maximum radiated power, W
    sigma2         -- receiver noise variance, W
    mu             -- per-user amplifier inefficiency, scalar or length-k (>= 1)
    p_c            -- circuit power per served link, W; the 100 dBm default is
                      physically enormous but kept verbatim as the reference
                      operating point, override for realistic studies
    p_n_of_b       -- per-element consumption by resolution, W
    r_min          -- per-user minimum rate, bits/s/Hz, scalar or length-k
    epsilon        -- Dinkelbach's tolerance on the efficiency ratio, bit/J/Hz:
                      a power step ends when an update moves the ratio by less
                      than epsilon
    """

    m: int
    k: int
    n: int
    b: int | str
    p_budget: float
    sigma2: float
    mu: object = 1.1
    p_c: float = dbm_to_watts(100.0)
    p_n_of_b: dict = field(default_factory=_default_p_n_map)
    r_min: object = 0.0
    geometry: Geometry = field(default_factory=Geometry)
    pathloss: PathlossModel = field(default_factory=PathlossModel)
    relay: RelayParams = field(default_factory=RelayParams)
    epsilon: float = 0.01

    def __post_init__(self):
        for name in ("m", "k", "n"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.n < self.k:
            raise ValueError(f"need n >= k surface elements, got n={self.n}, k={self.k}")
        if self.m < self.k:
            raise ValueError(f"need m >= k BS antennas, got m={self.m}, k={self.k}")
        if self.b != CONTINUOUS and (not isinstance(self.b, (int, np.integer)) or self.b < 1):
            raise ValueError(f"resolution must be a positive integer or {CONTINUOUS!r}, got {self.b!r}")
        for name in ("p_budget", "sigma2", "p_c", "epsilon"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if self.b not in self.p_n_of_b:
            raise ValueError(f"p_n_of_b has no entry for resolution {self.b!r}")
        for key, value in self.p_n_of_b.items():
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"per-element power for resolution {key!r} must be positive")

        self.mu = self._per_user("mu")
        if not np.all(np.isfinite(self.mu) & (self.mu >= 1.0)):
            raise ValueError("amplifier inefficiency mu must be finite and >= 1")
        self.r_min = self._per_user("r_min")
        if np.any(self.r_min < 0.0) or not np.all(np.isfinite(self.r_min)):
            raise ValueError("minimum rates must be finite and >= 0")

    def _per_user(self, name: str) -> np.ndarray:
        """Field name as a length-k float vector; a scalar is repeated k times."""
        v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
        if v.size == 1:
            v = np.full(self.k, float(v[0]))
        if v.shape != (self.k,):
            raise ValueError(f"{name} must be scalar or length {self.k}, got shape {v.shape}")
        return v
