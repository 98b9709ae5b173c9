import math

import numpy as np
import pytest

from vlcjcp.errors import DomainError, EmptyError, RankError
from vlcjcp.harness import (
    MetricsRecord,
    SweepSpec,
    empirical_cdf,
    eval_cdf,
    run_ber_sweep,
    run_positioning_sweep_2d,
    run_positioning_sweep_3d,
    spiral_trajectory,
    write_json_report,
    write_metrics_csv,
    write_samples_csv,
)
from vlcjcp.scene import Vec3


def _spec(scenario, values, trials=20, bits=3000):
    return SweepSpec(scenario=scenario, values=tuple(values),
                     trials_per_point=trials, bits_per_trial=bits,
                     frame_payload_symbols=200)


def test_sweep_spec_validation(default_scenario):
    with pytest.raises(DomainError):
        SweepSpec(scenario=default_scenario, values=())
    with pytest.raises(DomainError):
        SweepSpec(scenario=default_scenario, values=(10.0,), trials_per_point=0)


def test_spiral_endpoints_and_increments():
    points = spiral_trajectory("3d", center=(0.0, 0.0), r_start=100.0, r_end=20.0,
                               turns=2.0, n_points=9, z_start=10.0, z_end=90.0)
    assert points[0].as_tuple() == pytest.approx((100.0, 0.0, 10.0))
    assert math.hypot(points[-1].x, points[-1].y) == pytest.approx(20.0)
    assert points[-1].z == pytest.approx(90.0)
    angles = np.unwrap([math.atan2(p.y, p.x) for p in points])
    assert np.allclose(np.diff(angles), 2.0 * math.pi * 2.0 / 8.0)


def test_spiral_2d_keeps_height():
    points = spiral_trajectory("2d", center=(10.0, -5.0), r_start=50.0, r_end=0.0,
                               turns=1.0, n_points=5, z_start=75.0)
    assert all(p.z == 75.0 for p in points)


def test_spiral_rejects_out_of_room(default_scenario):
    with pytest.raises(DomainError):
        spiral_trajectory("2d", center=(0.0, 0.0), r_start=200.0, r_end=0.0,
                          turns=1.0, n_points=8, room=default_scenario.room)
    with pytest.raises(DomainError):
        spiral_trajectory("2d", center=(0.0, 0.0), r_start=10.0, r_end=0.0,
                          turns=1.0, n_points=1)


def test_empirical_cdf_basics():
    cdf = empirical_cdf([1.0, 2.0, 3.0])
    assert eval_cdf(cdf, 2.0) == pytest.approx(2.0 / 3.0)
    assert cdf[-1][1] == 1.0
    probs = [p for _, p in cdf]
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    with pytest.raises(EmptyError):
        empirical_cdf([])


def test_ber_zero_at_infinite_snr(los_scenario):
    records = run_ber_sweep(_spec(los_scenario, [math.inf]), Vec3(-2.5, 1.5, 0.0))
    assert records[0].value == 0.0
    assert records[0].trials >= 3000


def test_ber_center_no_worse_than_corner(default_scenario):
    # near-center, not (0, 0): at the exact center the symmetric LED layout
    # makes all channel columns equal and the spatial index unidentifiable
    spec = _spec(default_scenario, [45.0], bits=20000)
    center = run_ber_sweep(spec, Vec3(25.0, 25.0, 0.0))[0]
    corner = run_ber_sweep(spec, Vec3(149.0, 149.0, 0.0))[0]
    assert center.value <= corner.value


def test_ber_reproducible(default_scenario):
    spec = _spec(default_scenario, [50.0], bits=5000)
    a = run_ber_sweep(spec, Vec3(-2.5, 1.5, 0.0))
    b = run_ber_sweep(spec, Vec3(-2.5, 1.5, 0.0))
    assert a[0].value == b[0].value


def test_ber_frames_are_a_prefix(default_scenario, monkeypatch):
    # frame k draws from its own stream, so a sweep of fewer bits sends
    # exactly the first frames of a longer one
    import vlcjcp.harness as harness

    received = []
    detect = harness.ml_detect_batch

    def spy(y, h_hat, constellation):
        received.append((y.copy(), h_hat.copy()))
        return detect(y, h_hat, constellation)

    monkeypatch.setattr(harness, "ml_detect_batch", spy)
    position = Vec3(25.0, 25.0, 0.0)
    run_ber_sweep(_spec(default_scenario, [40.0], bits=1600), position)
    n_short = len(received)
    run_ber_sweep(_spec(default_scenario, [40.0], bits=4000), position)
    assert (n_short, len(received) - n_short) == (2, 5)  # 800 bits per frame
    for (y_a, h_a), (y_b, h_b) in zip(received[:n_short], received[n_short:]):
        assert np.array_equal(y_a, y_b) and np.array_equal(h_a, h_b)


def test_positioning_2d_noiseless_is_exact(los_scenario):
    spec = _spec(los_scenario, [math.inf], trials=5)
    records = run_positioning_sweep_2d(spec, [Vec3(0.0, 0.0, 0.0)])
    assert records[0].value <= 1e-3
    assert records[0].failures == 0


def test_positioning_2d_corner_worse_than_center(default_scenario):
    spec = _spec(default_scenario, [20.0], trials=60)
    records = run_positioning_sweep_2d(spec, [Vec3(0.0, 0.0, 0.0),
                                              Vec3(149.0, 149.0, 0.0)])
    by_pos = {r.position[:2]: r.value for r in records}
    assert by_pos[(149.0, 149.0)] > by_pos[(0.0, 0.0)]


def test_positioning_2d_monotone_in_snr(default_scenario):
    spec = _spec(default_scenario, [20.0, 40.0, 60.0], trials=40)
    records = run_positioning_sweep_2d(spec, [Vec3(50.0, 50.0, 0.0)])
    values = [r.value for r in sorted(records, key=lambda r: r.snr_db)]
    assert values[0] >= values[1] >= values[2]


def test_positioning_3d_noiseless_within_grid_bound(los_scenario):
    spec = _spec(los_scenario, [math.inf], trials=3)
    records = run_positioning_sweep_3d(spec, [Vec3(100.0, 100.0, 150.0)])
    assert records[0].value <= 1.0  # height-grid quantization bound
    assert records[0].failures == 0


def test_positioning_trials_are_a_prefix(default_scenario):
    position = [Vec3(50.0, 50.0, 0.0)]
    a = run_positioning_sweep_2d(_spec(default_scenario, [40.0], trials=12), position)[0]
    b = run_positioning_sweep_2d(_spec(default_scenario, [40.0], trials=12), position)[0]
    assert a.value == b.value
    assert np.array_equal(a.samples, b.samples)
    short = run_positioning_sweep_2d(_spec(default_scenario, [40.0], trials=7), position)[0]
    assert (short.failures, a.failures) == (0, 0)
    assert np.array_equal(short.samples, a.samples[:7])


@pytest.mark.parametrize("sweep", [run_positioning_sweep_2d, run_positioning_sweep_3d])
def test_noiseless_rank_deficient_point_is_censored(default_scenario, sweep):
    # 60 degree FoV at (100, 100, 250): neither PD sees LEDs 2 and 3, so the
    # noiseless H_hat psi_dim has a zero zone column and ls_joint_estimate
    # raises RankError on every trial
    spec = _spec(default_scenario, [math.inf], trials=3)
    record = sweep(spec, [Vec3(100.0, 100.0, 250.0)])[0]
    assert (record.trials, record.failures) == (3, 3)
    assert math.isnan(record.value) and record.samples.size == 0


def test_ber_estimator_failure_aborts(default_scenario):
    spec = _spec(default_scenario, [math.inf])
    with pytest.raises(RankError):
        run_ber_sweep(spec, Vec3(100.0, 100.0, 250.0))


def test_ci_half_width_shrinks_like_sqrt_trials(default_scenario):
    small = _spec(default_scenario, [40.0], trials=50)
    large = _spec(default_scenario, [40.0], trials=200)
    r_small = run_positioning_sweep_2d(small, [Vec3(50.0, 50.0, 0.0)])[0]
    r_large = run_positioning_sweep_2d(large, [Vec3(50.0, 50.0, 0.0)])[0]
    ratio = r_small.ci_half_width / r_large.ci_half_width
    assert ratio == pytest.approx(2.0, rel=0.35)


def _all_failed_record(scenario):
    # 60 degree FoV: at z=250 only one LED is visible from (100, 100), so
    # every trial fails and must be counted
    spec = _spec(scenario, [80.0], trials=4)
    return run_positioning_sweep_3d(spec, [Vec3(100.0, 100.0, 250.0)])[0]


def test_failures_are_censored_not_dropped(los_scenario):
    record = _all_failed_record(los_scenario)
    assert record.failures == 4
    assert math.isnan(record.value)


def test_report_of_all_failed_point_is_strict_json(los_scenario, tmp_path):
    import json

    record = _all_failed_record(los_scenario)
    path = tmp_path / "r.json"
    write_json_report([record], path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["records"][0]["mean"] is None
    assert payload["records"][0]["ci_half_width"] is None
    assert payload["records"][0]["failures"] == 4


def test_metrics_csv_layout(default_scenario, tmp_path):
    rec = MetricsRecord(metric="ber", snr_db=60.0, value=1.5e-4, trials=1000000,
                        ci_half_width=2e-5, seed=7, position=(0.0, 0.0, 0.0),
                        m_order=2)
    path = tmp_path / "metrics.csv"
    write_metrics_csv([rec], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sweep_var,value,metric,mean,ci_half_width,trials,seed"
    assert lines[1].startswith('snr_db,60,"ber[m=2,pos=(0,0,0)]"')


def test_samples_and_report_files(default_scenario, tmp_path):
    rec = MetricsRecord(metric="mean_error_cm", snr_db=40.0, value=1.0, trials=3,
                        ci_half_width=0.1, seed=0, position=(0.0, 0.0, 0.0),
                        samples=np.array([0.5, 1.0, 1.5]))
    samples_path = tmp_path / "s.csv"
    write_samples_csv(rec, samples_path)
    assert samples_path.read_text().splitlines()[0] == "error_cm"
    report_path = tmp_path / "r.json"
    write_json_report([rec], report_path, meta={"kind": "pos2d"})
    import json

    payload = json.loads(report_path.read_text())
    assert payload["records"][0]["mean"] == 1.0
