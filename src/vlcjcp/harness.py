"""Monte Carlo experiment engine: BER sweeps, 2-D/3-D positioning-error sweeps,
spiral trajectories, and empirical CDFs, all deterministically seeded.

Sweeps run serially through one engine, `_run_trials`, which sets up each
sweep point once and passes every trial through the same front end.

Seeding contract: every trial draws from an independent stream derived as
SeedSequence(scenario seed, spawn_key=(sweep kind, trial index)), in the
order channel, pilot noise, then (BER) payload bits and payload noise.  The
spawn key deliberately excludes the sweep value, receiver position, and PAM
order: trial k sees identical fading and noise draws at every point of a
sweep, so cross-SNR monotonicity and location/order comparisons are paired
(common random numbers) while trials stay mutually independent.

The SNR-to-noise mapping is calibrated once per sweep point against a
reference receiver at the room center (x = y = 0) at the height of the swept
point; the noise floor is then held fixed across receiver positions, so
off-center receivers genuinely see weaker signals rather than a rescaled
noise.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .channel import NoiseModel, link_stats, noise_variance_for_snr, sample_channel_matrix
from .errors import CollinearError, DomainError, EmptyError, InsufficientCirclesError, RankError
from .modem import pam_constellation, pilot_schedule, sm_bits_per_symbol, \
    sm_indices_from_bits, bits_from_sm_indices
from .positioning import measure_rss, position_2d, position_3d
from .receiver import ls_joint_estimate, ml_detect_batch, remove_dc_bias
from .scene import ScenarioConfig, Vec3

__all__ = [
    "SweepSpec",
    "MetricsRecord",
    "derive_rng",
    "run_ber_sweep",
    "run_positioning_sweep_2d",
    "run_positioning_sweep_3d",
    "spiral_trajectory",
    "empirical_cdf",
    "eval_cdf",
    "write_metrics_csv",
    "write_samples_csv",
    "write_json_report",
    "METRICS_CSV_HEADER",
]

METRICS_CSV_HEADER = ["sweep_var", "value", "metric", "mean", "ci_half_width", "trials", "seed"]

_KIND_TAG = {"ber": 0, "pos2d": 1, "pos3d": 2}
_Z95 = 1.959963984540054  # normal-approximation 95 percent quantile
# a failed fix, including an estimator that cannot identify the dimming zones
_CENSORED = (RankError, InsufficientCirclesError, CollinearError)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep (SNR values in dB) and how hard to average at each point."""

    scenario: ScenarioConfig
    values: tuple[float, ...] = ()
    trials_per_point: int = 1000
    bits_per_trial: int = 1_000_000
    frame_payload_symbols: int = 2000

    def __post_init__(self):
        if not self.values:
            raise DomainError("sweep needs at least one value")
        if self.trials_per_point < 1:
            raise DomainError("trials_per_point must be >= 1")


@dataclass
class MetricsRecord:
    """One aggregated measurement plus enough coordinates to replay it."""

    metric: str                      # "ber" | "mean_error_cm"
    snr_db: float
    value: float
    trials: int
    ci_half_width: float
    seed: int
    position: tuple[float, float, float] | None = None
    m_order: int | None = None
    failures: int = 0
    samples: np.ndarray | None = field(default=None, repr=False)

    def series_label(self) -> str:
        parts = []
        if self.m_order is not None:
            parts.append(f"m={self.m_order}")
        if self.position is not None:
            x, y, z = self.position
            parts.append(f"pos=({x:g},{y:g},{z:g})")
        return f"{self.metric}[{','.join(parts)}]" if parts else self.metric


def derive_rng(seed: int, kind: str, trial: int) -> np.random.Generator:
    """Independent per-trial stream; see the module docstring for the contract."""
    key = (_KIND_TAG[kind], trial)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _reference_noise(scenario: ScenarioConfig, snr_db: float, height_cm: float) -> NoiseModel:
    reference = scenario.pd_positions(Vec3(0.0, 0.0, height_cm))
    return noise_variance_for_snr(link_stats(scenario, reference),
                                  scenario.modulation, snr_db)


def _transmit(h, led, amp, bias, sigma_w: float, rng: np.random.Generator) -> np.ndarray:
    """y = amp * h[:, led] + bias + sigma_w * N(0, 1), one row per pilot or
    payload slot; bias = v_dc * h @ rho is shared by a trial's pilots and
    payload.  golden/records.json was recorded with this summation order."""
    clean = amp[:, None] * h.T[led] + bias[None, :]
    return clean + rng.standard_normal(clean.shape) * sigma_w


def _run_trials(scenario: ScenarioConfig, kind: str, count: int, noise: NoiseModel,
                pd_positions, schedule, back_end: Callable, censor: tuple = ()) -> list:
    """Outcomes of trials 0..count-1 at one sweep point.

    Each trial draws its channel, sends the pilots through `_transmit` and
    makes the LS estimate; back_end(rng, h, bias, pilots, estimate) then
    gives its outcome, or None when the trial raises one of `censor`.
    """
    v_dc = scenario.modulation.v_dc
    stats = link_stats(scenario, pd_positions)
    led = np.array([s[0] for s in schedule])
    amp = np.array([s[1] for s in schedule])
    psi = scenario.dimming.psi_matrix()
    rho = scenario.dimming.rho()
    sigma_w = math.sqrt(noise.sigma2_w)
    outcomes = []
    for trial in range(count):
        rng = derive_rng(scenario.seed, kind, trial)
        h = sample_channel_matrix(stats, rng)
        bias = v_dc * (h @ rho)
        pilots = _transmit(h, led, amp, bias, sigma_w, rng)
        try:
            estimate = ls_joint_estimate(pilots, schedule, psi, v_dc)
            outcomes.append(back_end(rng, h, bias, pilots, estimate))
        except censor:
            outcomes.append(None)
    return outcomes


def run_ber_sweep(
    spec: SweepSpec,
    position: Vec3 = Vec3(-2.5, 1.5, 0.0),
    m_orders: Sequence[int] | None = None,
) -> list[MetricsRecord]:
    """Bit error rate per (SNR, PAM order) for a receiver at `position`.

    Each frame is one trial (block fading) with a random payload, DC removal
    and joint ML detection; decoding errors are the measurement, while an
    estimator failure aborts the sweep.
    """
    scenario = spec.scenario
    if m_orders is None:
        m_orders = [scenario.modulation.pam_order]
    n_leds, v_dc = scenario.n_leds, scenario.modulation.v_dc
    schedule = pilot_schedule(n_leds, scenario.modulation.amplitude, scenario.n_pilots)
    records = []
    for snr_db in spec.values:
        for m_order in m_orders:
            scn = replace(scenario, modulation=replace(scenario.modulation, pam_order=m_order))
            noise = _reference_noise(scn, snr_db, position.z)
            constellation = pam_constellation(m_order, scn.modulation.amplitude)
            levels = np.asarray(constellation.levels)
            bits_per_frame = spec.frame_payload_symbols * sm_bits_per_symbol(n_leds, m_order)
            n_frames = max(1, math.ceil(spec.bits_per_trial / bits_per_frame))

            def frame_errors(rng, h, bias, pilots, est):
                bits = rng.integers(0, 2, bits_per_frame, dtype=np.uint8)
                led_idx, pam_idx = sm_indices_from_bits(bits, n_leds, m_order)
                y = _transmit(h, led_idx, levels[pam_idx], bias,
                              math.sqrt(noise.sigma2_w), rng)
                debiased = remove_dc_bias(y, est, v_dc)
                pam_hat, led_hat, _ = ml_detect_batch(debiased, est.h_hat, constellation)
                bits_hat = bits_from_sm_indices(led_hat, pam_hat, n_leds, m_order)
                return int(np.sum(bits != bits_hat))

            errors = sum(_run_trials(scn, "ber", n_frames, noise, scn.pd_positions(position),
                                     schedule, frame_errors))
            total_bits = n_frames * bits_per_frame
            ber = errors / total_bits
            ci = _Z95 * math.sqrt(max(ber * (1.0 - ber), 0.0) / total_bits)
            records.append(MetricsRecord(metric="ber", snr_db=snr_db, value=ber,
                                         trials=total_bits, ci_half_width=ci,
                                         seed=scenario.seed,
                                         position=(position.x, position.y, position.z),
                                         m_order=m_order))
    return records


def _positioning_records(spec, positions, kind, fix_error, max_samples):
    scenario = spec.scenario
    schedule = pilot_schedule(scenario.n_leds, scenario.modulation.amplitude,
                              scenario.n_pilots)
    records = []
    for snr_db in spec.values:
        for position in positions:
            noise = _reference_noise(scenario, snr_db, position.z)
            pd_positions = scenario.pd_positions(position)

            def trial_error(rng, h, bias, pilots, est):
                debiased = remove_dc_bias(pilots, est, scenario.modulation.v_dc)
                return fix_error(position, pd_positions, noise, schedule, debiased)

            outcomes = _run_trials(scenario, kind, spec.trials_per_point, noise,
                                   pd_positions, schedule, trial_error, _CENSORED)
            errors = np.array([e for e in outcomes if e is not None])
            failures = sum(1 for e in outcomes if e is None)
            if errors.size > max_samples:
                keep = np.linspace(0, errors.size - 1, max_samples).astype(int)
                samples = errors[keep]
            else:
                samples = errors
            mean = float(errors.mean()) if errors.size else math.nan
            ci = (_Z95 * float(errors.std(ddof=1)) / math.sqrt(errors.size)
                  if errors.size > 1 else 0.0)
            records.append(MetricsRecord(metric="mean_error_cm", snr_db=snr_db,
                                         value=mean, trials=spec.trials_per_point,
                                         ci_half_width=ci, seed=scenario.seed,
                                         position=(position.x, position.y, position.z),
                                         failures=failures, samples=samples))
    return records


def run_positioning_sweep_2d(
    spec: SweepSpec,
    positions: Sequence[Vec3],
    mode: str = "analytic",
    max_samples: int = 100_000,
) -> list[MetricsRecord]:
    """Mean 2-D positioning error per (SNR, position), PD 1 as the reference.

    Failed fixes and estimates are censored: counted in
    MetricsRecord.failures and excluded from the mean, never silently dropped.
    """
    def fix_error(position, pd_positions, noise, schedule, debiased):
        rss = measure_rss(debiased, schedule)
        return position_2d(rss[0], spec.scenario, position.z, mode, noise=noise,
                           pd_index=0, truth=pd_positions[0]).euclidean_error_cm

    return _positioning_records(spec, positions, "pos2d", fix_error, max_samples)


def run_positioning_sweep_3d(
    spec: SweepSpec,
    positions: Sequence[Vec3],
    mode: str = "analytic",
    max_samples: int = 100_000,
) -> list[MetricsRecord]:
    """Mean 3-D positioning error per (SNR, position).

    The trial error is the mean of the two PDs' Euclidean errors at the
    selected height; failures are censored as in the 2-D sweep.
    """
    def fix_error(position, pd_positions, noise, schedule, debiased):
        est1, est2, _ = position_3d(debiased, schedule, spec.scenario, noise=noise,
                                    mode=mode, truths=(pd_positions[0], pd_positions[1]))
        return 0.5 * (est1.euclidean_error_cm + est2.euclidean_error_cm)

    return _positioning_records(spec, positions, "pos3d", fix_error, max_samples)


def spiral_trajectory(
    kind: str,
    center: tuple[float, float],
    r_start: float,
    r_end: float,
    turns: float,
    n_points: int,
    z_start: float = 0.0,
    z_end: float = 0.0,
    room=None,
) -> list[Vec3]:
    """Evaluation trajectory: radius (and height, for \"3d\") linear in t.

    p(t_k) = center + r(t_k) (cos theta_k, sin theta_k) with
    theta_k = 2 pi turns t_k and t_k = k / (n_points - 1).  Raises DomainError
    if any point falls outside `room` (a RoomConfig) when one is given.
    """
    if kind not in ("2d", "3d"):
        raise DomainError(f"unknown spiral kind {kind!r}")
    if n_points < 2:
        raise DomainError("need at least two points")
    if r_start < 0 or r_end < 0:
        raise DomainError("radii must be non-negative")
    t = np.arange(n_points) / (n_points - 1)
    radius = r_start + (r_end - r_start) * t
    theta = 2.0 * math.pi * turns * t
    z = z_start + (z_end - z_start) * t if kind == "3d" else np.full(n_points, z_start)
    xs = center[0] + radius * np.cos(theta)
    ys = center[1] + radius * np.sin(theta)
    points = [Vec3(float(x), float(y), float(zz)) for x, y, zz in zip(xs, ys, z)]
    if room is not None:
        half_l, half_w = room.dims.x / 2.0, room.dims.y / 2.0
        for k, p in enumerate(points):
            if abs(p.x) > half_l or abs(p.y) > half_w or not 0.0 <= p.z <= room.dims.z:
                raise DomainError(f"trajectory point {k} at {p.as_tuple()} leaves the room")
    return points


def empirical_cdf(samples) -> list[tuple[float, float]]:
    """Right-continuous step function F(x) = #{samples <= x} / n."""
    values = np.asarray(samples, dtype=float).reshape(-1)
    if values.size == 0:
        raise EmptyError("empirical CDF of an empty sample set")
    unique, counts = np.unique(np.sort(values), return_counts=True)
    cum = np.cumsum(counts) / values.size
    return list(zip(unique.tolist(), cum.tolist()))


def eval_cdf(cdf: list[tuple[float, float]], x: float) -> float:
    prob = 0.0
    for value, p in cdf:
        if value <= x:
            prob = p
        else:
            break
    return prob


# ---------------------------------------------------------------------------
# structured output

def write_metrics_csv(records: Sequence[MetricsRecord], path) -> None:
    """Pinned layout: sweep_var,value,metric,mean,ci_half_width,trials,seed.

    Series coordinates (position, PAM order) ride inside the metric label so
    one file can hold a whole sweep.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_CSV_HEADER)
        for rec in records:
            writer.writerow([
                "snr_db", f"{rec.snr_db:g}", rec.series_label(),
                f"{rec.value:.10e}", f"{rec.ci_half_width:.6e}",
                rec.trials, rec.seed,
            ])


def write_samples_csv(record: MetricsRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["error_cm"])
        for value in (record.samples if record.samples is not None else []):
            writer.writerow([f"{value:.10e}"])


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def write_json_report(records: Sequence[MetricsRecord], path, meta: dict | None = None) -> None:
    """Strict JSON report of `records`.

    Non-finite floats are written as null: the NaN mean of a point whose
    every trial failed, and the infinite SNR of a noiseless sweep.  A
    positioning CI from fewer than two successful trials is null too: the
    record's 0.0 there means "not estimable", not zero uncertainty.
    """
    payload = {
        "meta": meta or {},
        "records": [
            {
                "metric": rec.metric,
                "series": rec.series_label(),
                "snr_db": _finite_or_none(rec.snr_db),
                "position": rec.position,
                "m_order": rec.m_order,
                "mean": _finite_or_none(rec.value),
                "ci_half_width": (None if rec.metric == "mean_error_cm"
                                  and rec.trials - rec.failures < 2
                                  else _finite_or_none(rec.ci_half_width)),
                "trials": rec.trials,
                "failures": rec.failures,
                "seed": rec.seed,
            }
            for rec in records
        ],
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
