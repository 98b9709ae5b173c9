"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

Criteria 1-6 are exact or tightly-toleranced properties; criteria 7-10 check
trend reproduction at desk scale (orderings, monotonicity, and bands) under
the documented defaults, with all randomness pinned to the scenario seed.

Criterion 9's low-SNR clause conjoins an absolute error band with a strict
height ordering.  With unweighted radical-axis fixes in the height search the
band failed at z = 250 (46.4 cm against 30): the noise of near-grazing LEDs'
radii moved the height pick.  The height search now weighs each circle by its
r^2 variance (generalised least squares) and the clause holds as written;
the z = 50 / z = 150 ordering margin is under half a centimeter.
"""
import dataclasses
import math
import time
from itertools import combinations

import numpy as np
import pytest

from vlcjcp.channel import (
    link_stats,
    noise_variance_for_snr,
    rician_params,
    sample_channel_matrix,
)
from vlcjcp.errors import CrcError
from vlcjcp.harness import (
    SweepSpec,
    derive_rng,
    run_ber_sweep,
    run_positioning_sweep_2d,
    run_positioning_sweep_3d,
)
from vlcjcp.modem import (
    build_frame,
    bytes_to_bits,
    crc16,
    frame_from_bits,
    frame_to_bits,
    pam_constellation,
    parse_frame,
    pilot_schedule,
    sm_indices_from_bits,
    bits_from_sm_indices,
)
from vlcjcp.positioning import Circle2D, measure_rss, position_2d, radical_axis_position_2d
from vlcjcp.receiver import ls_joint_estimate, ml_detect, ml_detect_batch, remove_dc_bias
from vlcjcp.scene import Vec3, with_rician


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def _noiseless_pilot_obs(scenario, h, schedule):
    led = np.array([s[0] for s in schedule])
    amp = np.array([s[1] for s in schedule])
    bias = scenario.modulation.v_dc * (h @ scenario.dimming.rho())
    return amp[:, None] * h.T[led] + bias[None, :]


# ---------------------------------------------------------------------------
# criterion 1: noiseless end-to-end exactness

def test_criterion_1_noiseless_end_to_end(los_scenario):
    start = time.time()
    scn = los_scenario
    device = Vec3(20.0, -35.0, 0.0)
    pd_positions = scn.pd_positions(device)
    h = sample_channel_matrix(link_stats(scn, pd_positions), np.random.default_rng(0))
    schedule = pilot_schedule(scn.n_leds, scn.modulation.amplitude, scn.n_pilots)
    psi = scn.dimming.psi_matrix()
    obs = _noiseless_pilot_obs(scn, h, schedule)
    est = ls_joint_estimate(obs, schedule, psi, scn.modulation.v_dc)
    h_err = np.max(np.abs(est.h_hat - h) / np.abs(h))
    kappa = np.asarray(scn.dimming.kappa)
    k_err = np.max(np.abs(est.kappa_hat - kappa) / np.abs(kappa))
    assert h_err <= 1e-9 and k_err <= 1e-9

    # joint ML detection over 1e5 random frames of 5 payload symbols each;
    # sigma_w = 0 and K = inf make the channel one fixed realization, so the
    # frames batch cleanly
    n_frames, n_sym = 100_000, 5
    order = scn.modulation.pam_order
    const = pam_constellation(order, scn.modulation.amplitude)
    eta = int(np.log2(scn.n_leds)) + int(np.log2(order))
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, n_frames * n_sym * eta, dtype=np.uint8)
    led_idx, pam_idx = sm_indices_from_bits(bits, scn.n_leds, order)
    levels = np.asarray(const.levels)
    bias = scn.modulation.v_dc * (h @ scn.dimming.rho())
    y = levels[pam_idx][:, None] * h.T[led_idx] + bias[None, :]
    debiased = remove_dc_bias(y, est, scn.modulation.v_dc)
    pam_hat, led_hat, _ = ml_detect_batch(debiased, est.h_hat, const)
    bits_hat = bits_from_sm_indices(led_hat, pam_hat, scn.n_leds, order)
    bit_errors = int(np.sum(bits != bits_hat))
    assert bit_errors == 0

    rss = measure_rss(debiased_pilots := (obs - bias[None, :]), schedule)
    fix = position_2d(rss[0], scn, 0.0, "analytic", truth=pd_positions[0])
    assert fix.euclidean_error_cm <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("criterion 1",
            f"h rel err {h_err:.2e}, kappa rel err {k_err:.2e}, "
            f"0/{bits.size} bit errors over {n_frames} frames, "
            f"2D error {fix.euclidean_error_cm:.2e} cm, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: detector oracle equivalence

def test_criterion_2_detector_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    const = pam_constellation(4, 1.0)
    levels = const.levels
    checked = 0
    for _ in range(10_000):
        h = rng.standard_normal((2, 4))
        y = rng.standard_normal(2)
        best = None
        for j in range(4):
            for i in range(4):
                metric = float(np.sum((y - levels[i] * h[:, j]) ** 2))
                if best is None or metric < best[0]:
                    best = (metric, i, j)
        res = ml_detect(y, h, const)
        assert (res.pam_index, res.led_index) == (best[1], best[2])
        assert abs(res.metric - best[0]) <= 1e-12
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("criterion 2", f"{checked} randomized instances identical, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: radical-axis brute-force oracle

def test_criterion_3_radical_axis_oracle():
    start = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        truth = rng.uniform(20.0, 80.0, size=2)
        # well-spread centers around the construction point
        angles = rng.uniform(0.0, 2.0 * math.pi) + np.array([0.0, 2.1, 4.2]) \
            + rng.uniform(-0.3, 0.3, size=3)
        dists = rng.uniform(30.0, 70.0, size=3)
        centers = truth + np.column_stack([dists * np.cos(angles),
                                           dists * np.sin(angles)])
        radii = np.linalg.norm(centers - truth, axis=1) \
            * (1.0 + rng.uniform(-0.01, 0.01, size=3))
        circles = [Circle2D((float(c[0]), float(c[1])), float(r))
                   for c, r in zip(centers, radii)]
        x, y = radical_axis_position_2d(circles)

        # independent oracle: millimeter-lattice argmin of the summed squared
        # pairwise power-distance differences, centered on the construction
        # point (not on the solver output)
        step = 0.1
        xs = np.arange(truth[0] - 5.0, truth[0] + 5.0 + step / 2, step)
        ys = np.arange(truth[1] - 5.0, truth[1] + 5.0 + step / 2, step)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        powers = [(xx - c.center[0]) ** 2 + (yy - c.center[1]) ** 2 - c.radius ** 2
                  for c in circles]
        total = np.zeros_like(xx)
        for i, j in combinations(range(3), 2):
            total += (powers[i] - powers[j]) ** 2
        k = int(np.argmin(total))
        bx, by = float(xx.flat[k]), float(yy.flat[k])
        worst = max(worst, math.hypot(x - bx, y - by))
    elapsed = time.time() - start
    assert worst <= 0.2  # 2 mm
    assert elapsed < 60.0
    _report("criterion 3", f"max |LS - grid argmin| = {worst * 10:.2f} mm over "
                           f"100 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: Rician sampling statistics

def test_criterion_4_rician_statistics():
    start = time.time()
    rng = np.random.default_rng(4)
    details = []
    for k in (0.5, 1.0, 10.0):
        stats = rician_params(3e-6, k)
        draws = stats.mu + math.sqrt(stats.sigma2) * rng.standard_normal(1_000_000)
        mean_rel = abs(np.mean(draws) - stats.mu) / stats.mu
        var_rel = abs(np.var(draws) - stats.sigma2) / stats.sigma2
        assert mean_rel <= 0.01 and var_rel <= 0.01
        details.append(f"K={k:g}: mean off {mean_rel:.2%}, var off {var_rel:.2%}")
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion 4", "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: frame codec conformance

def test_criterion_5_frame_codec(default_scenario):
    assert crc16(bytes_to_bits(b"123456789")) == 0x29B1

    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "golden",
                        "frame-vectors.json")
    vectors = json.load(open(path))["vectors"]
    assert len(vectors) == 10
    flips_checked = 0
    for vec in vectors:
        scn = dataclasses.replace(
            default_scenario,
            modulation=dataclasses.replace(default_scenario.modulation,
                                           pam_order=vec["pam_order"],
                                           amplitude=vec["amplitude"]),
            n_pilots=vec["n_pilots"],
        )
        bits = np.array([int(c) for c in vec["payload_bits"]], dtype=np.uint8)
        frame = build_frame(bits, scn.dimming, scn)
        stream = frame_to_bits(frame, scn.n_leds, vec["pam_order"])
        assert "".join(map(str, stream.tolist())) == vec["serialized_bits"]
        again = frame_from_bits(stream, scn)
        assert np.array_equal(parse_frame(again, scn), bits)
        if bits.size:
            flipped_bits = bits.copy()
            flipped_bits[bits.size // 2] ^= 1
            sym = build_frame(flipped_bits, scn.dimming, scn).payload
            tampered = dataclasses.replace(frame, payload=sym)
            with pytest.raises(CrcError):
                parse_frame(tampered, scn)
            flips_checked += 1
    _report("criterion 5", f"CRC check value 0x29B1, 10 golden vectors bit-exact, "
                           f"{flips_checked} single-bit flips detected")


# ---------------------------------------------------------------------------
# criterion 6: estimator consistency

def test_criterion_6_estimator_consistency(los_scenario):
    scn = los_scenario
    device = Vec3(30.0, 10.0, 0.0)
    pd_positions = scn.pd_positions(device)
    stats = link_stats(scn, pd_positions)
    h = stats.mu
    noise = noise_variance_for_snr(stats, scn.modulation, 40.0)
    sigma_w = math.sqrt(noise.sigma2_w)
    psi = scn.dimming.psi_matrix()
    rng = np.random.default_rng(6)
    counts = (8, 32, 128, 512)
    mse = []
    for n_p in counts:
        schedule = pilot_schedule(scn.n_leds, scn.modulation.amplitude, n_p)
        clean = _noiseless_pilot_obs(scn, h, schedule)
        errs = []
        for _ in range(600):
            obs = clean + sigma_w * rng.standard_normal(clean.shape)
            est = ls_joint_estimate(obs, schedule, psi, scn.modulation.v_dc)
            errs.append(np.mean((est.h_hat - h) ** 2))
        mse.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(counts), np.log(mse), 1)[0])
    assert abs(slope + 1.0) <= 0.15
    _report("criterion 6", f"log-log MSE slope vs n_P = {slope:.3f}")


# ---------------------------------------------------------------------------
# criterion 7: BER trend per PAM order (Fig. 12 analogue)

def test_criterion_7_ber_order_trend(default_scenario):
    start = time.time()
    snrs = (55.0, 60.0, 65.0, 70.0)
    spec = SweepSpec(scenario=default_scenario, values=snrs,
                     bits_per_trial=1_000_000)
    records = run_ber_sweep(spec, Vec3(-2.5, 1.5, 0.0), m_orders=[2, 4, 8])
    ber = {(r.snr_db, r.m_order): r.value for r in records}
    for snr in snrs:
        assert ber[(snr, 2)] <= ber[(snr, 4)] <= ber[(snr, 8)], \
            f"order inversion at {snr} dB"
    for m in (2, 4, 8):
        series = [ber[(snr, m)] for snr in snrs]
        assert all(b >= a for a, b in zip(series[1:], series)), \
            f"non-monotone BER for M={m}: {series}"
    assert ber[(snrs[-1], 2)] < 1e-6
    elapsed = time.time() - start
    assert elapsed < 600.0
    table = "; ".join(
        f"{snr:g}dB: " + "/".join(f"{ber[(snr, m)]:.1e}" for m in (2, 4, 8))
        for snr in snrs)
    _report("criterion 7", f"M=2/4/8 BER {table}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: 2D positioning trend (Fig. 9 analogue)

def test_criterion_8_positioning_2d_trend(default_scenario):
    start = time.time()
    snrs = (40.0, 50.0, 60.0, 70.0)
    spec = SweepSpec(scenario=default_scenario, values=snrs, trials_per_point=1000)
    positions = [Vec3(0, 0, 0), Vec3(50, 50, 0), Vec3(100, 100, 0), Vec3(149, 149, 0)]
    records = run_positioning_sweep_2d(spec, positions)
    mean = {(r.snr_db, r.position[:2]): r.value for r in records}
    ci = {(r.snr_db, r.position[:2]): r.ci_half_width for r in records}
    assert all(r.failures == 0 for r in records)

    center_series = [mean[(snr, (0.0, 0.0))] for snr in snrs]
    assert max(center_series) < 1.0, f"center not sub-cm: {center_series}"

    ratio = mean[(snrs[0], (149.0, 149.0))] / mean[(snrs[0], (0.0, 0.0))]
    assert ratio > 3.0, f"corner/center ratio {ratio:.2f} at {snrs[0]} dB"

    for pos in positions:
        key = (pos.x, pos.y)
        for a, b in zip(snrs, snrs[1:]):
            slack = 1.96 * math.hypot(ci[(a, key)], ci[(b, key)])
            assert mean[(b, key)] <= mean[(a, key)] + slack, \
                f"error increased {a}->{b} dB at {key}"
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report("criterion 8",
            f"center errors {['%.3f' % v for v in center_series]} cm, "
            f"corner/center ratio {ratio:.2f} at {snrs[0]} dB, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: 3D positioning trend (Fig. 10 analogue)

def test_criterion_9_positioning_3d_trend(default_scenario):
    # full-hemisphere FoV and a LOS-only channel: with the canonical 60 degree
    # FoV three of the four LEDs fall outside the cone at (100, 100, 250), so
    # the top height would be unobservable
    start = time.time()
    pds = tuple(dataclasses.replace(pd, fov_half_angle_deg=90.0)
                for pd in default_scenario.pds)
    scn = dataclasses.replace(with_rician(default_scenario, math.inf), pds=pds)
    snrs = (44.0, 60.0, 80.0)
    spec = SweepSpec(scenario=scn, values=snrs, trials_per_point=1000)
    positions = [Vec3(100, 100, 50), Vec3(100, 100, 150), Vec3(100, 100, 250)]
    records = run_positioning_sweep_3d(spec, positions)
    mean = {(r.snr_db, r.position[2]): r.value for r in records}
    assert all(r.failures == 0 for r in records)

    low = [mean[(snrs[0], z)] for z in (50.0, 150.0, 250.0)]
    high = [mean[(snrs[-1], z)] for z in (50.0, 150.0, 250.0)]
    detail = (f"lowest SNR {snrs[0]} dB errors {['%.1f' % v for v in low]} cm, "
              f"highest {snrs[-1]} dB errors {['%.2f' % v for v in high]} cm, "
              f"{time.time() - start:.0f}s")
    assert all(v <= 2.0 for v in high), detail
    assert low[0] < low[1] < low[2], detail
    assert all(5.0 <= v <= 30.0 for v in low), detail
    assert time.time() - start < 900.0
    _report("criterion 9", detail)


# ---------------------------------------------------------------------------
# criterion 10: BER location trend (Fig. 11 analogue)

def test_criterion_10_ber_location_trend(default_scenario):
    # near-center receiver, not the exact center: the symmetric LED layout
    # makes the channel columns identical at (0, 0) and the spatial index
    # unidentifiable there
    start = time.time()
    snrs = (45.0, 50.0, 55.0, 60.0)
    spec = SweepSpec(scenario=default_scenario, values=snrs,
                     bits_per_trial=1_000_000)
    center = {r.snr_db: r.value
              for r in run_ber_sweep(spec, Vec3(25.0, 25.0, 0.0))}
    corner = {r.snr_db: r.value
              for r in run_ber_sweep(spec, Vec3(149.0, 149.0, 0.0))}
    for snr in snrs:
        assert center[snr] <= corner[snr], \
            f"center {center[snr]:.2e} > corner {corner[snr]:.2e} at {snr} dB"
    elapsed = time.time() - start
    table = "; ".join(f"{snr:g}dB: {center[snr]:.1e} <= {corner[snr]:.1e}"
                      for snr in snrs)
    _report("criterion 10", f"{table}, {elapsed:.0f}s")
