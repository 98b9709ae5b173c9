import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcjcp.channel import (
    K_MAX,
    k_factor_from_geometry,
    link_stats,
    los_gain,
    noise_variance_for_snr,
    omega_from_mu,
    rician_params,
    sample_channel_matrix,
)
from vlcjcp.errors import DomainError, GeometryError, LengthError
from vlcjcp.scene import LedConfig, PdConfig, Vec3


def _led(x=0.0, y=0.0, z=300.0, m=1.0):
    half = math.degrees(math.acos(2.0 ** (-1.0 / m)))
    return LedConfig(Vec3(x, y, z), 20.0, half, m)


def _pd(fov=60.0, area=1.0, gain=1.0):
    return PdConfig(Vec3(0.0, 0.0, 0.0), area, fov, gain)


def test_los_gain_beneath_led():
    # closed form: 2 * 1e-4 m^2 / (2 pi (3 m)^2) at normal incidence
    value = los_gain(_led(), Vec3(0.0, 0.0, 0.0), _pd())
    assert value == pytest.approx(1e-4 / (9.0 * math.pi), rel=1e-12)


def test_los_gain_offset_case():
    value = los_gain(_led(50.0, 50.0), Vec3(0.0, 0.0, 0.0), _pd())
    assert value == pytest.approx(3.1743e-6, rel=1e-4)


def test_los_gain_outside_fov_is_zero():
    # 70 degree incidence vs 60 degree field of view
    r = 300.0 * math.tan(math.radians(70.0))
    assert los_gain(_led(r, 0.0), Vec3(0.0, 0.0, 0.0), _pd(fov=60.0)) == 0.0


def test_los_gain_coincident_raises():
    with pytest.raises(GeometryError):
        los_gain(_led(z=0.0), Vec3(0.0, 0.0, 0.0), _pd())


def test_optical_gain_factor_multiplies():
    base = los_gain(_led(), Vec3(0.0, 0.0, 0.0), _pd())
    boosted = los_gain(_led(), Vec3(0.0, 0.0, 0.0), _pd(gain=2.6))
    assert boosted == pytest.approx(2.6 * base, rel=1e-12)


@given(r1=st.floats(min_value=0.0, max_value=170.0),
       r2=st.floats(min_value=0.0, max_value=170.0))
def test_los_gain_monotone_in_horizontal_distance(r1, r2):
    lo, hi = sorted((r1, r2))
    led, pd = _led(), _pd(fov=90.0)
    g_lo = los_gain(led, Vec3(lo, 0.0, 0.0), pd)
    g_hi = los_gain(led, Vec3(hi, 0.0, 0.0), pd)
    assert g_lo >= g_hi


def test_rician_params_examples():
    stats = rician_params(1e-6, 1.0)
    assert stats.mu == 1e-6
    assert stats.sigma2 == pytest.approx(1e-12)
    assert stats.omega == pytest.approx(2e-12)
    los_only = rician_params(1e-6, math.inf)
    assert los_only.sigma2 == 0.0 and los_only.omega == pytest.approx(1e-12)


def test_rician_zero_k_with_los_is_contradictory():
    with pytest.raises(DomainError):
        rician_params(1e-6, 0.0)
    assert rician_params(0.0, 0.0).omega == 0.0


@given(h=st.floats(min_value=0.0, max_value=1.0),
       k=st.floats(min_value=1e-3, max_value=1e9))
def test_rician_omega_identity(h, k):
    stats = rician_params(h, k)
    assert stats.omega == stats.mu ** 2 + stats.sigma2


def test_sample_k_inf_equals_los(los_scenario):
    stats = link_stats(los_scenario, los_scenario.pd_positions(Vec3(0.0, 0.0, 0.0)))
    h = sample_channel_matrix(stats, np.random.default_rng(3))
    assert np.array_equal(h, stats.mu)


def test_sample_deterministic_given_seed(default_scenario):
    stats = link_stats(default_scenario,
                       default_scenario.pd_positions(Vec3(10.0, -20.0, 0.0)))
    a = sample_channel_matrix(stats, np.random.default_rng(11))
    b = sample_channel_matrix(stats, np.random.default_rng(11))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [0.5, 1.0, 10.0])
def test_sampled_moments_match_parameters(k):
    # mean within 1% of mu and variance within 1% of sigma2 over 1e6 draws
    mu, sigma2 = 2.0e-6, (2.0e-6) ** 2 / k
    rng = np.random.default_rng(42)
    draws = mu + math.sqrt(sigma2) * rng.standard_normal(1_000_000)
    assert np.mean(draws) == pytest.approx(mu, rel=0.01)
    assert np.var(draws) == pytest.approx(sigma2, rel=0.01)


def test_sampled_second_moment_matches_omega(default_scenario):
    import vlcjcp.channel as channel

    stats = rician_params(1e-6, 2.0)
    rng = np.random.default_rng(5)
    draws = stats.mu + math.sqrt(stats.sigma2) * rng.standard_normal(1_000_000)
    assert np.mean(draws ** 2) == pytest.approx(stats.omega, rel=0.01)


def test_link_stats_out_of_fov_mu_zero(default_scenario):
    # device far in a corner at ceiling height sees nothing within a 60 deg FoV
    cfg = default_scenario
    positions = cfg.pd_positions(Vec3(140.0, 140.0, 295.0))
    stats = link_stats(cfg, positions)
    assert stats.mu[0, 3] == 0.0  # opposite-corner LED far outside the cone
    assert stats.sigma2[0, 3] == 0.0


def test_link_stats_needs_one_position_per_pd(default_scenario):
    with pytest.raises(LengthError):
        link_stats(default_scenario, default_scenario.pd_positions(Vec3(0.0, 0.0, 0.0))[:1])


def test_k_factor_reflectivity_proportionality(default_scenario):
    room = default_scenario.room
    led, pd = Vec3(50.0, 50.0, 300.0), Vec3(0.0, 0.0, 0.0)
    base = k_factor_from_geometry(room, led, pd, 10.0)
    doubled = k_factor_from_geometry(
        dataclasses.replace(room, wall_reflectivity=2 * room.wall_reflectivity),
        led, pd, 10.0)
    assert doubled == pytest.approx(base / 2.0, rel=1e-12)


def test_k_factor_grid_refinement_converges(default_scenario):
    room = default_scenario.room
    led, pd = Vec3(50.0, 50.0, 300.0), Vec3(0.0, 0.0, 0.0)
    coarse = k_factor_from_geometry(room, led, pd, 10.0)
    fine = k_factor_from_geometry(room, led, pd, 5.0)
    assert abs(fine - coarse) / fine < 0.02


def test_k_factor_center_beats_corner(default_scenario):
    room = default_scenario.room
    led = Vec3(50.0, 50.0, 300.0)
    k_center = k_factor_from_geometry(room, led, Vec3(0.0, 0.0, 0.0), 10.0)
    k_corner = k_factor_from_geometry(room, led, Vec3(149.0, 149.0, 0.0), 10.0)
    assert k_center > k_corner


def test_k_factor_zero_reflectivity_clamps_to_max(default_scenario):
    room = dataclasses.replace(default_scenario.room, wall_reflectivity=0.0)
    assert k_factor_from_geometry(room, Vec3(50, 50, 300), Vec3(0, 0, 0), 10.0) == K_MAX


def test_noise_variance_examples(default_scenario):
    stats = link_stats(default_scenario,
                       default_scenario.pd_positions(Vec3(0.0, 0.0, 0.0)))
    mod = default_scenario.modulation
    noise = noise_variance_for_snr(stats, mod, 60.0)
    e_s = mod.amplitude ** 2 * (mod.pam_order ** 2 - 1) / 3.0
    assert noise.p_ref == pytest.approx(e_s * np.mean(stats.mu ** 2), rel=1e-12)
    assert noise.sigma2_w == pytest.approx(noise.p_ref / 1e6, rel=1e-12)
    assert noise_variance_for_snr(stats, mod, math.inf).sigma2_w == 0.0


def test_noise_variance_all_zero_links_rejected(default_scenario):
    from vlcjcp.channel import LinkStatsGrid

    zeros = np.zeros((2, 4))
    grid = LinkStatsGrid(mu=zeros, sigma2=zeros, omega=zeros, k_factor=zeros)
    with pytest.raises(DomainError):
        noise_variance_for_snr(grid, default_scenario.modulation, 60.0)


def test_omega_from_mu_vectorized():
    mu = np.array([0.0, 1e-6, 2e-6])
    out = omega_from_mu(mu, 4.0)
    assert np.allclose(out, mu ** 2 * 1.25)
    assert np.allclose(omega_from_mu(mu, math.inf), mu ** 2)
