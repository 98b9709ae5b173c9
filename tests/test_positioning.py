import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcjcp.channel import NoiseModel
from vlcjcp.errors import (
    CollinearError,
    DomainError,
    GeometryError,
    InsufficientCirclesError,
    LengthError,
    OutOfRangeError,
)
from vlcjcp.modem import pilot_schedule
from vlcjcp.positioning import (
    Circle2D,
    _positions_over_heights,
    _radii,
    _radius_sq_variances,
    build_reference_grid,
    candidate_heights,
    measure_rss,
    position_2d,
    position_3d,
    radical_axis_position_2d,
    radius_from_rss,
    select_matching_height,
    write_rss_table_csv,
)
from vlcjcp.scene import LedConfig, PdConfig, Vec3


def _led(x=0.0, y=0.0, z=300.0, m=1.0):
    half = math.degrees(math.acos(2.0 ** (-1.0 / m)))
    return LedConfig(Vec3(x, y, z), 20.0, half, m)


def _pd(fov=90.0):
    return PdConfig(Vec3(0.0, 0.0, 0.0), 1.0, fov, 1.0)


# ---------------------------------------------------------------------------
# measured RSS

def test_measure_rss_example():
    # two slots at +-1 through a gain-2 channel, noiseless
    schedule = ((0, 1.0), (0, -1.0))
    obs = np.array([[2.0], [-2.0]])
    out = measure_rss(obs, schedule)
    assert out[0, 0] == pytest.approx(4.0)


def test_measure_rss_quadratic_scaling():
    schedule = pilot_schedule(2, 1.0, 8)
    rng = np.random.default_rng(0)
    obs = rng.standard_normal((8, 2))
    base = measure_rss(obs, schedule)
    assert np.allclose(measure_rss(2.0 * obs, schedule), 4.0 * base)


def test_measure_rss_noise_only_approaches_floor():
    n = 10_000
    schedule = tuple((0, 1.0 if i % 2 == 0 else -1.0) for i in range(n))
    rng = np.random.default_rng(1)
    sigma2 = 2.5e-5
    obs = math.sqrt(sigma2) * rng.standard_normal((n, 1))
    out = measure_rss(obs, schedule)
    assert out[0, 0] == pytest.approx(sigma2, rel=0.05)


def test_measure_rss_length_mismatch():
    with pytest.raises(LengthError):
        measure_rss(np.zeros((3, 2)), pilot_schedule(2, 1.0, 4))


# ---------------------------------------------------------------------------
# reference grid

def test_reference_grid_los_entries(default_scenario, los_scenario):
    from vlcjcp.channel import los_gain

    table = build_reference_grid(los_scenario, 0.0)
    idx_x = np.argmin(np.abs(table.xs - 0.0))
    idx_y = np.argmin(np.abs(table.ys - 0.0))
    led = los_scenario.leds[0]
    gain = los_gain(led, Vec3(0.0, 0.0, 0.0), los_scenario.pds[0])
    expected = (los_scenario.modulation.amplitude * gain) ** 2
    assert table.per_led[0, idx_x, idx_y] == pytest.approx(expected, rel=1e-12)


def test_reference_grid_shape_and_peak(default_scenario):
    table = build_reference_grid(default_scenario, 0.0)
    assert table.per_led.shape == (4, 61, 61)
    for t, led in enumerate(default_scenario.leds):
        i, j = np.unravel_index(np.argmax(table.per_led[t]), (61, 61))
        # peak sits at the grid point beneath the LED
        assert table.xs[i] == pytest.approx(led.position.x)
        assert table.ys[j] == pytest.approx(led.position.y)


def test_reference_grid_radially_non_increasing(default_scenario):
    table = build_reference_grid(default_scenario, 0.0)
    led = default_scenario.leds[0]
    xx, yy = np.meshgrid(table.xs, table.ys, indexing="ij")
    radius = np.hypot(xx - led.position.x, yy - led.position.y)
    values = table.per_led[0]
    inside = values > 0
    order = np.argsort(radius[inside])
    sorted_vals = values[inside][order]
    assert np.all(np.diff(sorted_vals) <= 1e-12 * sorted_vals[:-1] + 1e-300)


def test_reference_grid_rejects_bad_height(default_scenario):
    with pytest.raises(GeometryError):
        build_reference_grid(default_scenario, 300.0)


def test_rss_table_csv_deterministic(default_scenario, tmp_path):
    table = build_reference_grid(default_scenario, 0.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rss_table_csv(table, p1)
    write_rss_table_csv(table, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "x_cm,y_cm,led_index,expected_rss"
    assert len(lines) == 1 + 61 * 61 * 4


# ---------------------------------------------------------------------------
# radius inversion

def test_radius_inversion_closed_form_case():
    # forward model value at r = 50 cm, dz = 300 cm, and back
    led, pd = _led(), _pd()
    gain = 9e-4 / (math.pi * 85.5625)
    rss = gain * gain
    out = radius_from_rss(rss, led, pd, 0.0, k_factor=math.inf, pilot_energy=1.0)
    assert out == pytest.approx(50.0, abs=1e-4)


def test_radius_at_peak_and_out_of_range():
    led, pd = _led(), _pd()
    peak = (1e-4 / (9 * math.pi)) ** 2
    assert radius_from_rss(peak, led, pd, 0.0, k_factor=math.inf) == 0.0
    with pytest.raises(OutOfRangeError):
        radius_from_rss(peak * 1.01, led, pd, 0.0, k_factor=math.inf)
    with pytest.raises(OutOfRangeError):
        radius_from_rss(0.0, led, pd, 0.0, k_factor=math.inf, noise_floor=1e-15)


@settings(deadline=None)
@given(radius=st.floats(min_value=0.0, max_value=280.0),
       height=st.floats(min_value=0.0, max_value=200.0))
def test_radius_forward_inverse_consistency(radius, height):
    from vlcjcp.channel import los_gain_at_offsets, omega_from_mu

    led, pd = _led(), _pd()
    mu = float(los_gain_at_offsets(led, pd, radius, 0.0, led.position.z - height))
    rss = 2.0 * float(omega_from_mu(mu, 5.0)) + 1e-16
    out = radius_from_rss(rss, led, pd, height, k_factor=5.0, pilot_energy=2.0,
                          noise_floor=1e-16, max_radius_cm=300.0)
    assert out == pytest.approx(radius, abs=max(1e-6 * max(radius, 1.0), 1e-6))


def test_radius_grid_mode(default_scenario):
    table = build_reference_grid(default_scenario, 0.0)
    led = default_scenario.leds[0]
    pd = default_scenario.pds[0]
    # value of the grid cell at (100, 100) feeds back its exact distance
    i = np.argmin(np.abs(table.xs - 100.0))
    j = np.argmin(np.abs(table.ys - 100.0))
    rss = table.per_led[0, i, j]
    out = radius_from_rss(rss, led, pd, 0.0, mode="grid", table=table, led_index=0)
    assert out == pytest.approx(math.hypot(100.0 - 50.0, 100.0 - 50.0), abs=1e-9)
    with pytest.raises(OutOfRangeError):
        radius_from_rss(table.per_led[0].max() * 1.01, led, pd, 0.0,
                        mode="grid", table=table, led_index=0)
    with pytest.raises(OutOfRangeError):
        radius_from_rss(math.nan, led, pd, 0.0, mode="grid", table=table, led_index=0)
    with pytest.raises(DomainError):
        radius_from_rss(rss, led, pd, 0.0, mode="grid", led_index=0)
    with pytest.raises(DomainError):
        radius_from_rss(rss, led, pd, 0.0, mode="grid", table=table)


@pytest.mark.parametrize("scenario_name", ["default_scenario", "los_scenario"])
def test_grid_radii_match_table_lookup(scenario_name, request):
    # the sorted-distance search against the literal per-height table lookup;
    # the 60 degree FoV leaves a floor plateau at the upper heights, where
    # np.argmin's first-index tie rule picks the radius
    scenario = request.getfixturevalue(scenario_name)
    rng = np.random.default_rng(11)
    heights = np.sort(rng.choice(candidate_heights(scenario), 60, replace=False))
    peak = build_reference_grid(scenario, float(heights[-1])).per_led.max()
    noise = NoiseModel(sigma2_w=1e-6 * peak, snr_db=60.0, p_ref=1.0)
    floor = noise.sigma2_w
    tables = [build_reference_grid(scenario, float(h), noise, 1) for h in heights]
    draws = floor + peak * np.exp(rng.uniform(math.log(1e-7), math.log(1.3), (24, 4)))
    draws[0] = floor
    draws[1] = 0.5 * floor
    draws[2] = 2.0 * peak
    draws[3] = tables[5].per_led[:, 7, 40]  # exact table entries
    plateau = 0
    for rss in draws:
        fast = _radii(rss[None], scenario, (1,), heights, noise, "grid")[0]
        oracle = np.full_like(fast, np.nan)
        for hi, (height, table) in enumerate(zip(heights, tables)):
            for t, led in enumerate(scenario.leds):
                try:
                    oracle[hi, t] = radius_from_rss(
                        float(rss[t]), led, scenario.pds[1], float(height),
                        mode="grid", table=table, led_index=t)
                except OutOfRangeError:
                    pass
                grid = table.per_led[t]
                nearest = grid.flat[np.abs(grid - rss[t]).argmin()]
                plateau += bool(nearest == floor and rss[t] > floor)
        assert np.array_equal(np.isnan(fast), np.isnan(oracle))
        assert np.allclose(fast, oracle, rtol=0.0, atol=1e-9, equal_nan=True)
    assert plateau > 0


# ---------------------------------------------------------------------------
# radical axis

def test_radical_axis_symmetry():
    circles = [Circle2D((0.0, 0.0), 1.0), Circle2D((2.0, 0.0), 1.0),
               Circle2D((1.0, 2.0), math.sqrt(2.0))]
    x, y = radical_axis_position_2d(circles)
    assert x == pytest.approx(1.0, abs=1e-9)


def test_radical_axis_concurrent_circles():
    # all three circles pass through (1, 1)
    centers = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    circles = [Circle2D(c, math.dist(c, (1.0, 1.0))) for c in centers]
    x, y = radical_axis_position_2d(circles)
    assert (x, y) == pytest.approx((1.0, 1.0), abs=1e-9)


def test_radical_axis_collinear_centers():
    circles = [Circle2D((0.0, 0.0), 1.0), Circle2D((1.0, 0.0), 1.0),
               Circle2D((2.0, 0.0), 1.0)]
    with pytest.raises(CollinearError):
        radical_axis_position_2d(circles)
    with pytest.raises(CollinearError):
        radical_axis_position_2d(circles[:2])  # two centers are always collinear


def _power_distance_argmin(circles, box_center, half_width=5.0, step=0.1):
    """Independent oracle: brute-force argmin of summed squared pairwise
    power-distance differences over a millimeter lattice."""
    xs = np.arange(box_center[0] - half_width, box_center[0] + half_width + step / 2, step)
    ys = np.arange(box_center[1] - half_width, box_center[1] + half_width + step / 2, step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    total = np.zeros_like(xx)
    from itertools import combinations

    powers = [
        (xx - c.center[0]) ** 2 + (yy - c.center[1]) ** 2 - c.radius ** 2
        for c in circles
    ]
    for i, j in combinations(range(len(circles)), 2):
        total += (powers[i] - powers[j]) ** 2
    k = np.argmin(total)
    return float(xx.flat[k]), float(yy.flat[k])


def test_radical_axis_matches_brute_force_under_perturbation():
    rng = np.random.default_rng(5)
    truth = (55.0, 42.0)
    centers = [(0.0, 0.0), (100.0, 0.0), (20.0, 90.0)]
    circles = []
    for c in centers:
        r = math.dist(c, truth)
        circles.append(Circle2D(c, r * (1.0 + 0.01)))  # +1 percent radii
    x, y = radical_axis_position_2d(circles)
    bx, by = _power_distance_argmin(circles, truth)
    assert math.hypot(x - bx, y - by) <= 0.3
    assert math.hypot(x - truth[0], y - truth[1]) <= 3.0


@given(scale=st.floats(min_value=0.1, max_value=100.0))
def test_radical_axis_scale_invariance(scale):
    circles = [Circle2D((0.0, 0.0), 2.0), Circle2D((10.0, 0.0), 3.0),
               Circle2D((3.0, 8.0), 4.0)]
    x0, y0 = radical_axis_position_2d(circles)
    scaled = [Circle2D((c.center[0] * scale, c.center[1] * scale), c.radius * scale)
              for c in circles]
    x1, y1 = radical_axis_position_2d(scaled)
    assert x1 == pytest.approx(x0 * scale, rel=1e-9, abs=1e-9)
    assert y1 == pytest.approx(y0 * scale, rel=1e-9, abs=1e-9)


def test_radical_axis_consistent_subsets():
    truth = (13.0, 77.0)
    centers = [(0.0, 0.0), (100.0, 10.0), (20.0, 90.0), (80.0, 80.0)]
    circles = [Circle2D(c, math.dist(c, truth)) for c in centers]
    for subset in ([0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 1, 2, 3]):
        x, y = radical_axis_position_2d([circles[i] for i in subset])
        assert (x, y) == pytest.approx(truth, rel=1e-9)


def test_radical_axis_centroid_mode_matches_ls_when_consistent():
    truth = (40.0, 25.0)
    centers = [(0.0, 0.0), (100.0, 0.0), (20.0, 90.0)]
    circles = [Circle2D(c, math.dist(c, truth)) for c in centers]
    assert radical_axis_position_2d(circles, mode="centroid") == \
        pytest.approx(radical_axis_position_2d(circles), abs=1e-8)


# ---------------------------------------------------------------------------
# position fixes

def _debiased_noiseless(scn, device):
    from vlcjcp.channel import link_stats, sample_channel_matrix

    pds = scn.pd_positions(device)
    h = sample_channel_matrix(link_stats(scn, pds), np.random.default_rng(0))
    schedule = pilot_schedule(scn.n_leds, scn.modulation.amplitude, scn.n_pilots)
    led = np.array([s[0] for s in schedule])
    amp = np.array([s[1] for s in schedule])
    return amp[:, None] * h.T[led], schedule, pds


def test_position_2d_noiseless_exact(los_scenario):
    for point in (Vec3(0.0, 0.0, 0.0), Vec3(100.0, 100.0, 0.0)):
        obs, schedule, pds = _debiased_noiseless(los_scenario, point)
        rss = measure_rss(obs, schedule)
        fix = position_2d(rss[0], los_scenario, 0.0, "analytic", truth=pds[0])
        assert fix.euclidean_error_cm <= 1e-3


def test_position_2d_grid_mode_within_cell(los_scenario):
    obs, schedule, pds = _debiased_noiseless(los_scenario, Vec3(72.0, -33.0, 0.0))
    rss = measure_rss(obs, schedule)
    fix = position_2d(rss[0], los_scenario, 0.0, "grid", truth=pds[0])
    assert fix.euclidean_error_cm <= los_scenario.room.grid_resolution_cm * math.sqrt(2.0)


def test_position_2d_insufficient_circles(los_scenario):
    rss = np.zeros(4)  # nothing above the floor anywhere
    with pytest.raises(InsufficientCirclesError):
        position_2d(rss, los_scenario, 0.0)


def _reference_position_2d(rss, scenario, height, mode, noise):
    """Reference composition: `radius_from_rss` per LED, dropping the LEDs
    it rejects, then `radical_axis_position_2d`."""
    floor = noise.sigma2_w
    table = build_reference_grid(scenario, height, noise) if mode == "grid" else None
    circles = []
    for t, led in enumerate(scenario.leds):
        try:
            r = radius_from_rss(
                float(rss[t]), led, scenario.pds[0], height,
                k_factor=scenario.rician.k_factor,
                pilot_energy=scenario.modulation.amplitude ** 2, noise_floor=floor,
                mode=mode, table=table, led_index=t,
                max_radius_cm=math.hypot(scenario.room.dims.x, scenario.room.dims.y))
        except (OutOfRangeError, GeometryError):
            continue
        circles.append(Circle2D((led.position.x, led.position.y), r))
    if len(circles) < 2:
        raise InsufficientCirclesError(f"{len(circles)} circles")
    return radical_axis_position_2d(circles)


@pytest.mark.parametrize("scenario_name", ["default_scenario", "los_scenario"])
@pytest.mark.parametrize("mode", ["analytic", "grid"])
def test_position_2d_matches_reference_composition(scenario_name, mode, request):
    # noisy RSS around random floor points; some draws keep exactly two
    # usable circles (always collinear) or fewer, which must fail alike
    from vlcjcp.channel import los_gain_at_offsets

    scenario = request.getfixturevalue(scenario_name)
    rng = np.random.default_rng(17)
    e_p = scenario.modulation.amplitude ** 2
    pd = scenario.pds[0]
    outcomes = {"fix": 0, CollinearError: 0, InsufficientCirclesError: 0}
    for height in (0.0, 60.0, 150.0, 240.0):
        peak = build_reference_grid(scenario, height).per_led.max()
        noise = NoiseModel(sigma2_w=1e-5 * peak, snr_db=50.0, p_ref=1.0)
        for draw in range(14):
            x, y = rng.uniform(-140.0, 140.0, 2)
            mu = np.array([los_gain_at_offsets(led, pd, led.position.x - x,
                                               led.position.y - y,
                                               led.position.z - height)
                           for led in scenario.leds])
            rss = e_p * mu ** 2 * rng.lognormal(0.0, 0.05, 4) + noise.sigma2_w
            dropped = rng.permutation(4)[:draw % 4]  # 0 to 3 LEDs below the floor
            rss[dropped] = 0.5 * noise.sigma2_w
            try:
                reference = _reference_position_2d(rss, scenario, height, mode, noise)
            except (CollinearError, InsufficientCirclesError) as exc:
                with pytest.raises(type(exc)):
                    position_2d(rss, scenario, height, mode, noise=noise)
                outcomes[type(exc)] += 1
                continue
            fix = position_2d(rss, scenario, height, mode, noise=noise)
            assert (fix.coords.x, fix.coords.y) == pytest.approx(reference, rel=1e-9,
                                                                 abs=1e-9)
            outcomes["fix"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_select_matching_height():
    d = 10.0
    assert select_matching_height([d + 3.0, d + 0.4, d + 7.0], d) == 1
    assert select_matching_height([d + 1.0, d - 1.0], d) == 0  # tie -> lower height


def test_candidate_heights_cover_room(default_scenario):
    heights = candidate_heights(default_scenario)
    assert heights[0] == 0.0
    assert heights[-1] == 299.0
    assert np.allclose(np.diff(heights), 1.0)


def test_position_3d_noiseless(los_scenario):
    device = Vec3(100.0, 100.0, 150.0)
    obs, schedule, pds = _debiased_noiseless(los_scenario, device)
    est1, est2, height = position_3d(obs, schedule, los_scenario,
                                     truths=(pds[0], pds[1]))
    assert height == 150.0
    assert est1.euclidean_error_cm <= 1e-3
    assert est2.euclidean_error_cm <= 1e-3


def test_position_3d_grid_mode_noiseless(los_scenario):
    # both PDs on 5 cm grid points at a whole-cm height: off the grid, the
    # radius quantisation alone can move the height pick by several steps
    bound = (los_scenario.room.grid_resolution_cm * math.sqrt(2.0)
             + los_scenario.room.height_grid_resolution_cm)
    for device in (Vec3(100.0, 100.0, 150.0), Vec3(-20.0, 40.0, 200.0)):
        obs, schedule, pds = _debiased_noiseless(los_scenario, device)
        est1, est2, height = position_3d(obs, schedule, los_scenario, mode="grid",
                                         truths=(pds[0], pds[1]))
        assert abs(height - device.z) <= los_scenario.room.height_grid_resolution_cm
        assert est1.euclidean_error_cm <= bound
        assert est2.euclidean_error_cm <= bound


def test_position_3d_all_heights_failing(los_scenario):
    schedule = pilot_schedule(4, 1.0, 8)
    with pytest.raises(InsufficientCirclesError):
        position_3d(np.zeros((8, 2)), schedule, los_scenario)


# ---------------------------------------------------------------------------
# weighted (GLS) radical-axis fixes of the height search

_CENTERS = np.array([[50.0, 50.0], [50.0, -50.0], [-50.0, 50.0], [-50.0, -50.0]])


def _consistent_radii(truth):
    return np.array([math.dist(c, truth) for c in _CENTERS])


def test_weighted_fix_exact_for_consistent_circles():
    rng = np.random.default_rng(3)
    truth = (37.0, -81.0)
    radii = np.tile(_consistent_radii(truth), (20, 1))
    variances = rng.uniform(1e-3, 1e3, radii.shape)
    fixes = _positions_over_heights(radii, _CENTERS, variances)
    assert np.allclose(fixes, truth, rtol=0.0, atol=1e-9)


def test_weighted_fix_equal_variances_is_unweighted_ls():
    rng = np.random.default_rng(4)
    radii = rng.uniform(40.0, 220.0, (30, 4))
    radii[rng.random(radii.shape) < 0.2] = np.nan
    fixes = _positions_over_heights(radii, _CENTERS, np.full(radii.shape, 7.0))
    for row, fix in zip(radii, fixes):
        circles = [Circle2D(tuple(c), r) for c, r in zip(_CENTERS, row)
                   if not np.isnan(r)]
        if len(circles) < 3:
            assert np.isnan(fix).all()
            continue
        assert fix == pytest.approx(radical_axis_position_2d(circles),
                                    rel=1e-9, abs=1e-9)


def test_weighted_fix_discounts_noisy_circle():
    truth = (100.0, 100.0)
    radii = _consistent_radii(truth)
    radii[3] += 20.0  # the far, grazing LED carries the radius error
    radii = radii[None, :]
    variances = np.array([[1.0, 1.0, 1.0, 1e6]])
    unweighted = _positions_over_heights(radii, _CENTERS, np.ones((1, 4)))[0]
    weighted = _positions_over_heights(radii, _CENTERS, variances)[0]
    assert math.dist(unweighted, truth) > 5.0
    assert math.dist(weighted, truth) < 0.01


def test_weighted_fix_three_circles_and_unusable_reference():
    truth = (-12.0, 64.0)
    radii = np.tile(_consistent_radii(truth), (3, 1))
    radii[0, 2] = np.nan   # three usable circles
    radii[1, 0] = np.nan   # the first circle, the GLS reference, unusable
    radii[2, [0, 1]] = np.nan  # two circles: collinear, no fix
    variances = np.array([[1.0, 4.0, 9.0, 16.0]] * 3)
    fixes = _positions_over_heights(radii, _CENTERS, variances)
    assert np.allclose(fixes[:2], truth, rtol=0.0, atol=1e-9)
    assert np.isnan(fixes[2]).all()
    assert _positions_over_heights(radii[:0], _CENTERS, variances[:0]).shape == (0, 2)


def test_radius_sq_variance_is_delta_method(los_scenario):
    # d(r^2)/dP from the analytic inversion, against the closed-form slope
    led, pd = los_scenario.leds[3], los_scenario.pds[0]
    height, floor = 100.0, 1e-16
    power = (1e-4 / (9 * math.pi)) ** 2 * 0.2
    r0, r1 = (radius_from_rss(p + floor, led, pd, height, noise_floor=floor)
              for p in (power, power * (1.0 + 1e-6)))
    slope = (r1 ** 2 - r0 ** 2) / (power * 1e-6)
    n_slots = np.full(4, 100)
    rss = np.full(4, power + floor)
    radii = np.full((1, 4), r0)
    var = _radius_sq_variances(radii, np.array([height]), rss, los_scenario,
                               n_slots, floor)
    var_p = (4.0 * power * floor + 2.0 * floor ** 2) / 100
    assert var[0, 3] == pytest.approx(slope ** 2 * var_p, rel=1e-4)
    # the noiseless form is the sigma -> 0 limit up to the common 4 sigma2_w
    quiet = _radius_sq_variances(radii, np.array([height]), rss - floor,
                                 los_scenario, n_slots, 0.0)
    assert np.allclose(var / quiet, 4.0 * floor * (1.0 + floor / (2.0 * power)),
                       rtol=1e-12)
