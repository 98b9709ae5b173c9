"""Optical channel model: LOS Lambertian gains, Rician link statistics with an
optional geometry-derived K factor, channel matrix sampling, and SNR-to-noise
calibration.

Scenario coordinates are centimeters; everything here converts to meters once
(`_CM`) so the gain formula stays in SI.  All operations are pure given an
explicit RNG, so Monte Carlo callers can run trials on independent streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, LengthError
from .modem import mean_symbol_energy
from .scene import LedConfig, ModulationConfig, PdConfig, RoomConfig, ScenarioConfig, Vec3

__all__ = [
    "LinkStats",
    "LinkStatsGrid",
    "NoiseModel",
    "K_MIN",
    "K_MAX",
    "los_gain",
    "los_gain_at_offsets",
    "rician_params",
    "omega_from_mu",
    "k_factor_from_geometry",
    "link_stats",
    "sample_channel_matrix",
    "noise_variance_for_snr",
]

_CM = 0.01  # meters per centimeter

K_MIN = 1e-3
K_MAX = 1e9


@dataclass(frozen=True)
class LinkStats:
    """Per-link Rician parameters in the electrical domain."""

    mu: float       # LOS gain
    sigma2: float   # diffuse (NLOS) variance
    omega: float    # power profile, mu^2 + sigma2
    k_factor: float

    def __post_init__(self):
        if self.mu < 0 or self.sigma2 < 0:
            raise DomainError("LinkStats requires mu >= 0 and sigma2 >= 0")


@dataclass(frozen=True)
class LinkStatsGrid:
    """LinkStats for every (PD, LED) pair as aligned (N_r, N_t) arrays."""

    mu: np.ndarray
    sigma2: np.ndarray


@dataclass(frozen=True)
class NoiseModel:
    sigma2_w: float  # electrical noise variance per receive branch
    snr_db: float
    p_ref: float     # reference electrical signal power used for calibration


def los_gain_at_offsets(led: LedConfig, pd: PdConfig, dx_cm, dy_cm, dz_cm):
    """Vectorized LOS gain for LED-to-PD separations given in centimeters.

    dz_cm must be positive (LED above the PD plane); the gain is zero outside
    the PD field of view and for non-positive dz.
    """
    dx = np.asarray(dx_cm, dtype=float) * _CM
    dy = np.asarray(dy_cm, dtype=float) * _CM
    dz = np.asarray(dz_cm, dtype=float) * _CM
    d2 = dx * dx + dy * dy + dz * dz
    if np.any(d2 == 0.0):
        raise GeometryError("coincident LED and PD")
    d = np.sqrt(d2)
    cos_phi = np.where(dz > 0, dz / d, 0.0)
    cos_fov = math.cos(math.radians(pd.fov_half_angle_deg))
    m = led.lambertian_order
    area_m2 = pd.area_cm2 * _CM * _CM
    gain = (m + 1.0) * area_m2 / (2.0 * math.pi * d2)
    gain = gain * np.power(cos_phi, m + 1.0) * pd.optical_gain_factor
    # inclusive FoV boundary; small epsilon absorbs cos round-off at the edge
    visible = cos_phi >= cos_fov - 1e-12
    return np.where(visible, gain, 0.0)


def los_gain(led: LedConfig, pd_position: Vec3, pd: PdConfig) -> float:
    """Scalar LOS gain between one LED and a PD at `pd_position` (cm)."""
    return float(
        los_gain_at_offsets(
            led, pd,
            led.position.x - pd_position.x,
            led.position.y - pd_position.y,
            led.position.z - pd_position.z,
        )
    )


def rician_params(h_los: float, k_factor: float) -> LinkStats:
    """Rician statistics with mean h_los and K = mu^2 / sigma2.

    K = +inf declares a LOS-only link (sigma2 = 0).  K = 0 with a nonzero LOS
    gain is contradictory in fixed-K mode; declare pure-diffuse links with
    h_los = 0 and an explicit sigma2 via LinkStats instead.
    """
    if h_los < 0:
        raise DomainError("h_los must be non-negative")
    if k_factor < 0:
        raise DomainError("k_factor must be non-negative")
    if k_factor == 0.0:
        if h_los > 0.0:
            raise DomainError("K = 0 with a nonzero LOS gain is contradictory")
        return LinkStats(0.0, 0.0, 0.0, 0.0)
    sigma2 = 0.0 if math.isinf(k_factor) else h_los * h_los / k_factor
    return LinkStats(h_los, sigma2, h_los * h_los + sigma2, k_factor)


def omega_from_mu(mu, k_factor: float):
    """Vectorized power profile mu^2 * (1 + 1/K); K=inf gives the LOS-only mu^2."""
    mu = np.asarray(mu, dtype=float)
    if k_factor < 0:
        raise DomainError("k_factor must be non-negative")
    if k_factor == 0.0:
        if np.any(mu > 0):
            raise DomainError("K = 0 with a nonzero LOS gain is contradictory")
        return np.zeros_like(mu)
    factor = 1.0 if math.isinf(k_factor) else 1.0 + 1.0 / k_factor
    return mu * mu * factor


def _wall_segments(room: RoomConfig, seg_m: float):
    """Centers (x, y, z) of square segments tiling the four walls, in meters."""
    half_l = room.dims.x * _CM / 2.0
    half_w = room.dims.y * _CM / 2.0
    height = room.dims.z * _CM
    zs = np.arange(seg_m / 2.0, height, seg_m)
    xs = np.arange(-half_l + seg_m / 2.0, half_l, seg_m)
    ys = np.arange(-half_w + seg_m / 2.0, half_w, seg_m)
    walls = []
    for x_fixed in (-half_l, half_l):  # walls parallel to the y axis
        yy, zz = np.meshgrid(ys, zs, indexing="ij")
        walls.append(np.stack([np.full_like(yy, x_fixed), yy, zz], axis=-1).reshape(-1, 3))
    for y_fixed in (-half_w, half_w):
        xx, zz = np.meshgrid(xs, zs, indexing="ij")
        walls.append(np.stack([xx, np.full_like(xx, y_fixed), zz], axis=-1).reshape(-1, 3))
    return np.concatenate(walls, axis=0)


def k_factor_from_geometry(
    room: RoomConfig,
    led_position: Vec3,
    pd_position: Vec3,
    segment_size_cm: float,
    d_override_cm: float | None = None,
) -> float:
    """Rician K factor from single-bounce wall reflections.

    The four walls are tiled with square segments of edge `segment_size_cm`;
    each segment of area ds contributes
        zeta * sqrt(D1^2 - (z_led - z_j)^2) * sqrt(D2^2 - (z_pd - z_j)^2)
            / (D1^4 * D2^4) * ds,
    with zeta = (l + z_j)(z_j - l + 5), l the room height, D1 the LED-segment
    and D2 the segment-PD distance.  K is l^2 / (rho * D^4 * sum), with D the
    direct LED-PD distance (overridable, the source model leaves D
    unsubscripted) and rho the wall reflectivity.

    Everything is evaluated in meters; the additive constant 5 in zeta only
    stays positive for rooms under 5 m in that convention, and ds enters as
    the quadrature weight of the wall integral so refining the segmentation
    converges instead of scaling the result.  K is clamped to [K_MIN, K_MAX].
    """
    if not segment_size_cm > 0:
        raise GeometryError("segment size must be positive")
    led = np.array([led_position.x, led_position.y, led_position.z]) * _CM
    pd = np.array([pd_position.x, pd_position.y, pd_position.z]) * _CM
    d_direct = float(np.linalg.norm(led - pd)) if d_override_cm is None else d_override_cm * _CM
    if d_direct == 0.0:
        raise GeometryError("coincident LED and PD")
    rho = room.wall_reflectivity
    if rho == 0.0:
        return K_MAX  # no reflections, LOS only
    seg_m = segment_size_cm * _CM
    centers = _wall_segments(room, seg_m)
    d1 = np.linalg.norm(centers - led, axis=1)
    d2 = np.linalg.norm(centers - pd, axis=1)
    if np.any(d1 == 0.0) or np.any(d2 == 0.0):
        raise GeometryError("LED or PD lies on a wall segment center")
    z_j = centers[:, 2]
    ell = room.dims.z * _CM
    zeta = (ell + z_j) * (z_j - ell + 5.0)
    rad1 = np.maximum(d1 * d1 - (led[2] - z_j) ** 2, 0.0)  # horizontal distances squared
    rad2 = np.maximum(d2 * d2 - (pd[2] - z_j) ** 2, 0.0)
    terms = zeta * np.sqrt(rad1) * np.sqrt(rad2) / (d1 ** 4 * d2 ** 4)
    wall_sum = float(np.sum(terms)) * seg_m * seg_m
    if wall_sum <= 0.0:
        return K_MAX
    k = ell * ell / (rho * d_direct ** 4 * wall_sum)
    return float(min(max(k, K_MIN), K_MAX))


def _k_for_link(scenario: ScenarioConfig, led: LedConfig, pd_position: Vec3) -> float:
    ric = scenario.rician
    if ric.mode == "fixed":
        return ric.k_factor
    return k_factor_from_geometry(scenario.room, led.position, pd_position,
                                  ric.segment_size_cm)


def link_stats(scenario: ScenarioConfig, pd_positions) -> LinkStatsGrid:
    """Rician statistics for every (PD, LED) pair, given one position per
    scenario PD; out-of-FoV links get mu = 0."""
    n_r, n_t = len(pd_positions), scenario.n_leds
    if n_r != len(scenario.pds):
        raise LengthError(f"{n_r} PD positions for {len(scenario.pds)} PDs")
    mu = np.zeros((n_r, n_t))
    sigma2 = np.zeros((n_r, n_t))
    for r, (pos, pd) in enumerate(zip(pd_positions, scenario.pds)):
        for t, led in enumerate(scenario.leds):
            stats = rician_params(los_gain(led, pos, pd), _k_for_link(scenario, led, pos))
            mu[r, t] = stats.mu
            sigma2[r, t] = stats.sigma2
    return LinkStatsGrid(mu=mu, sigma2=sigma2)


def sample_channel_matrix(stats: LinkStatsGrid, rng: np.random.Generator) -> np.ndarray:
    """One Rician (N_r, N_t) gain matrix h = mu + sigma * N(0, 1) for `stats`.

    Deterministic given the RNG state: a single (N_r, N_t) standard normal
    block is consumed regardless of the statistics.  Samples may go negative
    for small K; they are used as-is (electrical-domain model).
    """
    noise = rng.standard_normal(stats.mu.shape)
    return stats.mu + np.sqrt(stats.sigma2) * noise


def noise_variance_for_snr(
    stats: LinkStatsGrid,
    modulation: ModulationConfig,
    snr_db: float,
) -> NoiseModel:
    """Calibrate the AWGN variance for a target received electrical SNR.

    Reference power is the mean PAM symbol energy times the mean squared LOS
    gain over all links; the SNR convention is isolated here so alternative
    references are one-line swaps.
    """
    mean_mu2 = float(np.mean(stats.mu ** 2))
    if mean_mu2 == 0.0:
        raise DomainError("all links have zero LOS gain, SNR reference undefined")
    p_ref = mean_symbol_energy(modulation.pam_order, modulation.amplitude) * mean_mu2
    sigma2_w = 0.0 if math.isinf(snr_db) else p_ref / (10.0 ** (snr_db / 10.0))
    return NoiseModel(sigma2_w=sigma2_w, snr_db=snr_db, p_ref=p_ref)
