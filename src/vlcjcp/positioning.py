"""RSS positioning: iso-RSS circles per LED, radical-axis 2D fixes, and
height-search 3D fixes using the known separation of the two photodiodes.

Measured RSS is the per-LED mean of squared debiased pilot observations (the
DC term must be removed before squaring, since the measurement statistic has
no bias term).  Reference RSS is the model expectation: pilot energy times the
link power profile plus the ambient noise floor, so measurement and reference
agree in expectation.  Radius inversion subtracts the ambient floor and then
inverts the monotone LOS+NLOS power curve, either analytically (bisection of
the radial curve) or by nearest-RSS lookup on the floor grid of
`build_reference_grid`.  With a fixed K that grid is radially symmetric about
each LED, so the position fixes find the nearest entry by a binary search
along the grid points sorted by distance, without building the table; a
geometric K has no radial symmetry, and its table is built per height.

Both fixes run one pipeline: `_radii` inverts every circle's radius at a
list of candidate heights, and `_positions_over_heights` solves the
radical-axis equations at each by generalised least squares.  The 3-D height
search weighs each circle by the r^2 variance that RSS noise implies
(near-grazing LEDs sit on the flat tail of the RSS-vs-radius curve, so their
radii carry most of the noise); the 2-D fix is the one-height, equal-weight
case, the unweighted least-squares radical center.  `radius_from_rss` and
`radical_axis_position_2d` are the scalar references the tests check it by.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channel import NoiseModel, los_gain_at_offsets, omega_from_mu
from .errors import (
    CollinearError,
    DomainError,
    GeometryError,
    InsufficientCirclesError,
    LengthError,
    OutOfRangeError,
)
from .scene import LedConfig, PdConfig, ScenarioConfig, Vec3

__all__ = [
    "RssTable",
    "Circle2D",
    "PositionEstimate",
    "measure_rss",
    "build_reference_grid",
    "write_rss_table_csv",
    "radius_from_rss",
    "radical_axis_position_2d",
    "position_2d",
    "position_3d",
    "select_matching_height",
    "candidate_heights",
]

_BISECT_ITERS = 64


@dataclass(frozen=True)
class Circle2D:
    """Iso-RSS circle: centered on an LED's floor projection, radius in cm."""

    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class PositionEstimate:
    coords: Vec3
    per_axis_error: Vec3 | None = None      # vs ground truth, test-only
    euclidean_error_cm: float | None = None

    @staticmethod
    def from_coords(coords: Vec3, truth: Vec3 | None = None) -> "PositionEstimate":
        if truth is None:
            return PositionEstimate(coords=coords)
        dx, dy, dz = (coords.x - truth.x, coords.y - truth.y, coords.z - truth.z)
        return PositionEstimate(coords=coords, per_axis_error=Vec3(dx, dy, dz),
                                euclidean_error_cm=math.sqrt(dx * dx + dy * dy + dz * dz))


@dataclass(frozen=True)
class RssTable:
    """Expected RSS per LED over the floor-plan grid at one height."""

    height_cm: float
    resolution_cm: float
    per_led: np.ndarray     # (N_t, nx, ny)
    xs: np.ndarray
    ys: np.ndarray
    noise_floor: float


def measure_rss(debiased_obs, schedule) -> np.ndarray:
    """Per-LED empirical mean of squared debiased pilot observations.

    Args:
        debiased_obs: (n_P, N_r) pilot observations with the DC term removed.
        schedule: the (led_index, amplitude) slots that produced them.

    Returns an (N_r, N_t) array; LEDs with no slots get NaN.
    """
    y = np.asarray(debiased_obs, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    led = np.array([s[0] for s in schedule], dtype=np.int64)
    if y.shape[0] != led.size:
        raise LengthError(f"{led.size} schedule slots but {y.shape[0]} observations")
    n_t = int(led.max()) + 1 if led.size else 0
    out = np.full((y.shape[1], n_t), np.nan)
    sq = y * y
    for t in range(n_t):
        sel = led == t
        if np.any(sel):
            out[:, t] = sq[sel].mean(axis=0)
    return out


def _resolved_k(scenario: ScenarioConfig) -> float:
    """K for the radially symmetric forward curve.

    Geometric mode has a position-dependent K, so no exact radial profile
    exists; the analytic inversion then falls back to the LOS-only curve
    (grid tables keep the exact per-point profile).
    """
    if scenario.rician.mode == "fixed":
        return scenario.rician.k_factor
    return math.inf


def _expected_rss_radial(led: LedConfig, pd: PdConfig, height_cm, r_cm,
                         k_factor: float, pilot_energy: float, noise_floor: float):
    dz = led.position.z - np.asarray(height_cm, dtype=float)
    mu = los_gain_at_offsets(led, pd, np.asarray(r_cm, dtype=float), 0.0, dz)
    return pilot_energy * omega_from_mu(mu, k_factor) + noise_floor


def _max_radius(led: LedConfig, pd: PdConfig, dz_cm, room_diag_cm: float):
    fov = math.radians(pd.fov_half_angle_deg)
    if fov >= math.pi / 2.0 - 1e-12:
        return np.full_like(np.asarray(dz_cm, dtype=float), room_diag_cm)
    return np.minimum(np.asarray(dz_cm, dtype=float) * math.tan(fov), room_diag_cm)


def _invert_radius_batch(targets, led: LedConfig, pd: PdConfig, heights,
                         k_factor: float, pilot_energy: float, noise_floor: float,
                         room_diag_cm: float) -> np.ndarray:
    """Vectorized bisection of the monotone RSS-vs-radius curve.

    `targets` and `heights` are aligned 1-D arrays; entries whose target lies
    outside (ambient floor, beneath-LED maximum] come back NaN.
    """
    targets = np.asarray(targets, dtype=float)
    heights = np.asarray(heights, dtype=float)
    dz = led.position.z - heights
    ok = dz > 0
    r_hi = np.where(ok, _max_radius(led, pd, np.maximum(dz, 1e-9), room_diag_cm), 0.0)
    peak = np.where(ok, _expected_rss_radial(led, pd, heights, 0.0, k_factor,
                                             pilot_energy, noise_floor), -np.inf)
    edge = np.where(ok, _expected_rss_radial(led, pd, heights, r_hi, k_factor,
                                             pilot_energy, noise_floor), np.inf)
    valid = ok & (targets > noise_floor) & (targets <= peak) & (targets >= edge)
    lo = np.zeros_like(targets)
    hi = np.where(valid, r_hi, 1.0)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f_mid = _expected_rss_radial(led, pd, heights, mid, k_factor,
                                     pilot_energy, noise_floor)
        go_right = f_mid > targets  # curve decreasing: root to the right of mid
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = 0.5 * (lo + hi)
    out[targets == peak] = 0.0
    out[~valid] = np.nan
    return out


def _room_diag(scenario: ScenarioConfig) -> float:
    """Bisection upper bound for radius inversion; generous on purpose so the
    only rejections are the RSS-range conditions the contract names."""
    return math.hypot(scenario.room.dims.x, scenario.room.dims.y)


def radius_from_rss(
    rss: float,
    led: LedConfig,
    pd: PdConfig,
    height_cm: float,
    *,
    k_factor: float = math.inf,
    pilot_energy: float = 1.0,
    noise_floor: float = 0.0,
    mode: str = "analytic",
    table: RssTable | None = None,
    led_index: int | None = None,
    max_radius_cm: float = 600.0,
) -> float:
    """Horizontal distance to the LED's floor projection for a measured RSS.

    Analytic mode bisects the monotone forward model; grid mode returns the
    horizontal distance of the nearest-RSS grid point in `table` (the literal
    lookup procedure).  Raises OutOfRangeError when the measurement exceeds
    the beneath-LED maximum, does not rise above the ambient floor or is not
    finite, and DomainError when grid mode lacks `table` or `led_index`.
    """
    if mode == "grid":
        if table is None or led_index is None:
            raise DomainError("grid mode needs a reference table and led_index")
        grid = table.per_led[led_index]
        if not math.isfinite(rss):
            raise OutOfRangeError("measured RSS is not finite")
        if rss <= table.noise_floor:
            raise OutOfRangeError("measured RSS at or below the ambient floor")
        if rss > grid.max():
            raise OutOfRangeError("measured RSS above the beneath-LED maximum")
        i, j = np.unravel_index(np.argmin(np.abs(grid - rss)), grid.shape)
        return math.hypot(table.xs[i] - led.position.x, table.ys[j] - led.position.y)

    radius = _invert_radius_batch(
        np.array([rss]), led, pd, np.array([height_cm]),
        k_factor, pilot_energy, noise_floor, max_radius_cm,
    )[0]
    if math.isnan(radius):
        if led.position.z <= height_cm:
            raise GeometryError("receiver plane at or above the LED")
        if rss <= noise_floor:
            raise OutOfRangeError("measured RSS at or below the ambient floor")
        raise OutOfRangeError("measured RSS outside the invertible range")
    return float(radius)


def _grid_axes(length_cm: float, resolution_cm: float) -> np.ndarray:
    n = int(math.floor(length_cm / resolution_cm + 1e-9)) + 1
    return -length_cm / 2.0 + resolution_cm * np.arange(n)


def _check_heights(scenario: ScenarioConfig, heights) -> None:
    heights = np.asarray(heights, dtype=float)
    min_led_z = min(led.position.z for led in scenario.leds)
    bad = heights[~((heights >= 0.0) & (heights < min_led_z))]
    if bad.size:
        raise GeometryError(
            f"receiver plane {float(bad[0])} cm must lie in [0, {min_led_z}) cm")


def build_reference_grid(scenario: ScenarioConfig, height_cm: float,
                         noise: NoiseModel | None = None,
                         pd_index: int = 0) -> RssTable:
    """Expected RSS per LED over the room floor plan at `height_cm`.

    Each entry is pilot_energy * Omega + sigma2_w: the LOS power, the diffuse
    NLOS power, and the ambient noise power.  Pilot energy is the mean squared
    pilot amplitude (bipolar pilots: the amplitude squared).
    """
    room = scenario.room
    _check_heights(scenario, [height_cm])
    floor = noise.sigma2_w if noise is not None else 0.0
    pd = scenario.pds[pd_index]
    e_p = scenario.modulation.amplitude ** 2
    xs = _grid_axes(room.dims.x, room.grid_resolution_cm)
    ys = _grid_axes(room.dims.y, room.grid_resolution_cm)
    per_led = np.empty((scenario.n_leds, xs.size, ys.size))
    geometric = scenario.rician.mode == "geometric"
    for t, led in enumerate(scenario.leds):
        mu = los_gain_at_offsets(led, pd, led.position.x - xs[:, None],
                                 led.position.y - ys[None, :], led.position.z - height_cm)
        if geometric:
            from .channel import k_factor_from_geometry

            omega = np.empty_like(mu)
            for i in range(xs.size):
                for j in range(ys.size):
                    k = k_factor_from_geometry(room, led.position,
                                               Vec3(xs[i], ys[j], height_cm),
                                               scenario.rician.segment_size_cm)
                    omega[i, j] = omega_from_mu(mu[i, j], k)
        else:
            omega = omega_from_mu(mu, scenario.rician.k_factor)
        per_led[t] = e_p * omega + floor
    return RssTable(height_cm=height_cm, resolution_cm=room.grid_resolution_cm,
                    per_led=per_led, xs=xs, ys=ys, noise_floor=floor)


def write_rss_table_csv(table: RssTable, path) -> None:
    """Plot-ready export: one row per (x, y, led)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_cm", "y_cm", "led_index", "expected_rss"])
        for i, x in enumerate(table.xs):
            for j, y in enumerate(table.ys):
                for t in range(table.per_led.shape[0]):
                    writer.writerow([f"{x:.10g}", f"{y:.10g}", t,
                                     f"{table.per_led[t, i, j]:.12e}"])


def _floor_grid_by_distance(scenario: ScenarioConfig):
    """`build_reference_grid`'s floor points per LED, sorted by horizontal
    distance to the LED's floor projection; equal distances keep C order.

    Returns (dx, dy, radius, tail_radius), each (N_t, n_points): the offsets
    LED - point in cm, the horizontal distance, and the distance of the point
    with the smallest C-order index at or after each sorted position.  On
    whole-centimetre offsets dx^2 + dy^2 is exact, so its square root is
    correctly rounded like `radius_from_rss`'s math.hypot; otherwise the two
    may differ in the last bit.
    """
    room = scenario.room
    xs = _grid_axes(room.dims.x, room.grid_resolution_cm)
    ys = _grid_axes(room.dims.y, room.grid_resolution_cm)
    per_led = []
    for led in scenario.leds:
        dx = np.repeat(led.position.x - xs, ys.size)
        dy = np.tile(led.position.y - ys, xs.size)
        dist2 = dx * dx + dy * dy
        order = np.argsort(dist2, kind="stable")
        radius = np.sqrt(dist2)
        first = np.minimum.accumulate(order[::-1])[::-1]
        per_led.append((dx[order], dy[order], radius[order], radius[first]))
    return tuple(np.stack(arrays) for arrays in zip(*per_led))


def _radii(rss, scenario: ScenarioConfig, pd_indices, heights,
           noise: NoiseModel | None, mode: str) -> np.ndarray:
    """Radius of every LED at every height, for one or more PDs.

    rss: (len(pd_indices), N_t), row p measured by PD pd_indices[p].  Returns
    (len(pd_indices), n_heights, N_t): `radius_from_rss` at that height and
    PD, NaN where it raises.  Analytic mode bisects each LED's curve at all
    heights at once (`_invert_radius_batch`); grid mode looks the radius up
    in the `build_reference_grid` table of that height and PD.

    Fixed-K tables are radially symmetric about each LED's floor projection,
    and their entries never increase with horizontal distance (past the FoV
    edge they all equal the floor).  So no table is built: one binary search
    along the distance-sorted points, vectorised over (LED, height), finds
    the first entry below the measurement, and the nearest entry is that one
    or the one before.  Entries come from the table's own forward model, so
    they equal the table's.  When the floor plateau is nearest, np.argmin
    takes its first point in C order, whose distance is `tail_radius`.
    Geometric-K tables are not radially symmetric; they are built and
    searched per height.
    """
    heights = np.asarray(heights, dtype=float)
    rss = np.asarray(rss, dtype=float)
    floor = noise.sigma2_w if noise is not None else 0.0
    e_p = scenario.modulation.amplitude ** 2
    radii = np.full((len(pd_indices), heights.size, scenario.n_leds), np.nan)
    if mode != "grid":
        for p, pd_index in enumerate(pd_indices):
            for t, led in enumerate(scenario.leds):
                radii[p, :, t] = _invert_radius_batch(
                    np.full(heights.size, rss[p, t]), led, scenario.pds[pd_index],
                    heights, _resolved_k(scenario), e_p, floor, _room_diag(scenario))
        return radii
    _check_heights(scenario, heights)
    if scenario.rician.mode != "fixed":
        for p, pd_index in enumerate(pd_indices):
            pd = scenario.pds[pd_index]
            for hi, height in enumerate(heights):
                table = build_reference_grid(scenario, float(height), noise, pd_index)
                for t, led in enumerate(scenario.leds):
                    try:
                        radii[p, hi, t] = radius_from_rss(
                            float(rss[p, t]), led, pd, float(height),
                            mode="grid", table=table, led_index=t)
                    except OutOfRangeError:
                        pass
        return radii

    dx, dy, radius, tail_radius = _floor_grid_by_distance(scenario)
    n_points = radius.shape[1]
    rows = np.arange(scenario.n_leds)[:, None]
    dz = np.array([led.position.z for led in scenario.leds])[:, None] - heights
    shape = dz.shape  # (N_t, n_heights)
    for p, pd_index in enumerate(pd_indices):
        pd = scenario.pds[pd_index]

        def expected(k):
            """Table entries at sorted positions k, (N_t, n_heights)."""
            mu = np.stack([los_gain_at_offsets(led, pd, dx[t, k[t]], dy[t, k[t]], dz[t])
                           for t, led in enumerate(scenario.leds)])
            return e_p * omega_from_mu(mu, scenario.rician.k_factor) + floor

        target = np.broadcast_to(rss[p][:, None], shape)
        # entries before lo are >= target, the last of them `above`; entries
        # from hi on are < target, the first of them `below`
        above = expected(np.zeros(shape, dtype=np.intp))  # the peak
        valid = (target > floor) & (target <= above)
        lo = np.ones(shape, dtype=np.intp)
        hi = np.full(shape, n_points, dtype=np.intp)
        below = np.full(shape, -np.inf)
        for _ in range((n_points - 1).bit_length()):
            mid = (lo + hi) // 2
            value = expected(np.minimum(mid, n_points - 1))
            is_below = value < target
            down = (lo < hi) & is_below
            up = (lo < hi) & ~is_below
            hi, below = np.where(down, mid, hi), np.where(down, value, below)
            lo, above = np.where(up, mid + 1, lo), np.where(up, value, above)
        last = np.minimum(lo, n_points - 1)
        pick_below = target - below < above - target
        r_below = np.where(below == floor, tail_radius[rows, last], radius[rows, last])
        r = np.where(pick_below, r_below, radius[rows, lo - 1])
        radii[p] = np.where(valid, r, np.nan).T
    return radii


def _axis_rows(circles) -> tuple[np.ndarray, np.ndarray]:
    """One linear radical-axis equation per circle pair: A p = b."""
    rows = []
    rhs = []
    for i, j in combinations(range(len(circles)), 2):
        ci = np.asarray(circles[i].center, dtype=float)
        cj = np.asarray(circles[j].center, dtype=float)
        rows.append(2.0 * (cj - ci))
        rhs.append(cj @ cj - ci @ ci - (circles[j].radius ** 2 - circles[i].radius ** 2))
    return np.asarray(rows), np.asarray(rhs)


def radical_axis_position_2d(circles, mode: str = "ls") -> tuple[float, float]:
    """Common power-distance point of >= 2 iso-RSS circles.

    The default solves all pairwise radical-axis equations jointly in the
    least-squares sense, which reduces to the exact radical center for three
    consistent circles.  mode="centroid" keeps the fidelity variant: the first
    three circles' axes are intersected pairwise and averaged.

    Raises CollinearError when the centers are collinear (two circles are
    always collinear), leaving the along-axis coordinate unresolved.
    """
    if len(circles) < 2:
        raise InsufficientCirclesError("need at least two circles")
    if mode == "centroid":
        if len(circles) < 3:
            raise InsufficientCirclesError("centroid mode needs three circles")
        a, b = _axis_rows(circles[:3])
        points = []
        for i, j in combinations(range(3), 2):
            mat = a[[i, j]]
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            norm = np.linalg.norm(mat[0]) * np.linalg.norm(mat[1])
            if norm == 0.0 or abs(det) < 1e-12 * norm:
                raise CollinearError("two radical axes are parallel")
            points.append(np.linalg.solve(mat, b[[i, j]]))
        x, y = np.mean(points, axis=0)
        return float(x), float(y)

    a, b = _axis_rows(circles)
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.size < 2 or svals[-1] <= max(1e-12 * svals[0], 1e-300):
        raise CollinearError("circle centers are collinear")
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(solution[0]), float(solution[1])


def position_2d(
    measured_rss,
    scenario: ScenarioConfig,
    height_cm: float,
    mode: str = "analytic",
    *,
    noise: NoiseModel | None = None,
    pd_index: int = 0,
    truth: Vec3 | None = None,
) -> PositionEstimate:
    """2-D fix at a known height from per-LED RSS of one PD.

    The one-height, equal-weight case of the 3-D height search: radii from
    `_radii`, then the unweighted least-squares radical center from
    `_positions_over_heights`.  Unusable circles are dropped;
    InsufficientCirclesError when fewer than two remain, CollinearError when
    their centers are collinear (two always are).
    """
    rss = np.asarray(measured_rss, dtype=float).reshape(-1)
    if rss.size != scenario.n_leds:
        raise LengthError(f"expected {scenario.n_leds} RSS values, got {rss.size}")
    radii = _radii(rss[None], scenario, (pd_index,), [height_cm], noise, mode)[0]
    usable = int(np.count_nonzero(~np.isnan(radii)))
    if usable < 2:
        raise InsufficientCirclesError(
            f"only {usable} usable circles at height {height_cm} cm")
    centers = np.array([[led.position.x, led.position.y] for led in scenario.leds])
    (x, y), = _positions_over_heights(radii, centers, np.ones_like(radii))
    if math.isnan(x):
        raise CollinearError("usable circle centers are collinear")
    return PositionEstimate.from_coords(Vec3(float(x), float(y), height_cm), truth)


def candidate_heights(scenario: ScenarioConfig) -> np.ndarray:
    """Height search grid: 0 up to (excluding) the lowest LED, configured step."""
    min_led_z = min(led.position.z for led in scenario.leds)
    step = scenario.room.height_grid_resolution_cm
    return np.arange(0.0, min_led_z, step)


def select_matching_height(per_height_distances, separation_cm: float) -> int:
    """Index whose inter-PD distance best matches the known separation.

    Ties resolve to the lower height (first index).
    """
    distances = np.asarray(per_height_distances, dtype=float)
    return int(np.argmin(np.abs(distances - separation_cm)))


def _radius_sq_variances(radii: np.ndarray, heights: np.ndarray, rss: np.ndarray,
                         scenario: ScenarioConfig, n_slots: np.ndarray,
                         sigma2_w: float) -> np.ndarray:
    """Variance of each circle's r^2 at every candidate height, (n_heights, N_t).

    With P = RSS - sigma2_w the measured signal power of LED t, a mean over
    n_t pilot slots has Var(P) = (4 P sigma2_w + 2 sigma2_w^2) / n_t, and the
    radial curve P ~ d^-2(m_t+3) gives d(r^2)/dP = -d^2 / ((m_t + 3) P) with
    d^2 = r^2 + dz^2.  Without noise (sigma2_w = 0 or unknown) the high-SNR
    form d^4 / ((m_t + 3)^2 P n_t) is used: it drops only the common factor
    4 sigma2_w, so the weights are the same.  NaN where the radius is NaN.
    """
    led_z = np.array([led.position.z for led in scenario.leds])
    m = np.array([led.lambertian_order for led in scenario.leds])
    power = rss - sigma2_w
    d2 = radii ** 2 + (led_z[None, :] - heights[:, None]) ** 2
    slope_sq = (d2 / ((m + 3.0) * power)) ** 2
    if sigma2_w > 0.0:
        return slope_sq * (4.0 * power * sigma2_w + 2.0 * sigma2_w ** 2) / n_slots
    return slope_sq * power / n_slots


def _positions_over_heights(radii: np.ndarray, centers: np.ndarray,
                            variances: np.ndarray) -> np.ndarray:
    """Radical-axis fixes for every candidate height in one pass.

    radii: (n_heights, N_t) with NaN for unusable circles.  variances: the
    variance of each circle's r^2, same shape.
    The fix is the generalised least-squares (GLS) solution of the radical-axis
    equations: with the first usable circle as reference, row j reads
    2 (c_j - c_0) . p = |c_j|^2 - |c_0|^2 - (r_j^2 - r_0^2), its error
    covariance is v_0 11^T + diag(v_j), inverted by Sherman-Morrison.  Every
    pairwise row is a difference of these rows, so this equals GLS over all
    pairs; with equal variances it is the unweighted pairwise LS of
    `radical_axis_position_2d`, and consistent circles give the exact radical
    center whatever the variances.  Each run of consecutive heights with the
    same usable circles shares the design matrix and is solved as one batch;
    usability changes only where an LED enters or leaves the invertible
    range, so the runs are few.
    Returns (n_heights, 2) with NaN rows where no fix exists.
    """
    n_heights = radii.shape[0]
    out = np.full((n_heights, 2), np.nan)
    usable = ~np.isnan(radii)
    breaks = np.flatnonzero(np.any(usable[1:] != usable[:-1], axis=1)) + 1
    for idxs in np.split(np.arange(n_heights), breaks) if n_heights else ():
        active = np.flatnonzero(usable[idxs[0]])
        if active.size < 3:
            continue  # two centers are always collinear
        ref, rest = active[0], active[1:]
        a = 2.0 * (centers[rest] - centers[ref])                      # (k, 2)
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            continue  # collinear centers, no resolvable fix for this pattern
        const = np.sum(centers[rest] ** 2, axis=1) - centers[ref] @ centers[ref]
        r2 = radii[idxs] ** 2
        b = const[None, :] - (r2[:, rest] - r2[:, [ref]])             # (n_sel, k)
        w = 1.0 / variances[idxs][:, rest]                            # diag(v_j)^-1
        aw = w @ a                                                    # A^T W 1
        shrink = 1.0 / (1.0 / variances[idxs, ref] + w.sum(axis=1))
        # A^T S^-1 A and A^T S^-1 b, with S^-1 = W - shrink W 1 1^T W
        normal = np.einsum("hk,ki,kj->hij", w, a, a) \
            - shrink[:, None, None] * aw[:, :, None] * aw[:, None, :]
        rhs = (w * b) @ a - (shrink * np.sum(w * b, axis=1))[:, None] * aw
        out[idxs] = np.linalg.solve(normal, rhs[:, :, None])[:, :, 0]
    return out


def position_3d(
    debiased_pilot_obs,
    schedule,
    scenario: ScenarioConfig,
    separation_cm: float | None = None,
    *,
    noise: NoiseModel | None = None,
    mode: str = "analytic",
    truths: tuple[Vec3, Vec3] | None = None,
) -> tuple[PositionEstimate, PositionEstimate, float]:
    """3-D fix by height search: 2-D fixes for both PDs at every candidate
    height, then pick the height whose inter-PD distance matches the known
    separation (ties to the lower height).

    Each per-height fix is the generalised least-squares radical center, the
    radical-axis equations weighted by the inverse covariance that follows
    from each circle's r^2 variance (`_radius_sq_variances`: pilot-slot count,
    measured power, noise variance and the local slope of the radial RSS
    curve).  Analytic and grid mode use the same weights.  Without `noise`
    the sigma-free high-SNR weights are used; consistent circles still give
    the exact fix.

    Grid mode takes each radius from the nearest-RSS point of the
    `build_reference_grid` table of that height and PD.  With a fixed K one
    sorted-distance search per LED covers all heights and both PDs
    (`_radii`); a geometric K builds the table of every height.

    Args:
        debiased_pilot_obs: (n_P, 2) pilot observations, DC term removed.
        schedule: pilot schedule that produced them.
        separation_cm: known PD separation d; scenario default when None.

    Returns (estimate_pd1, estimate_pd2, height_cm).  Heights where either PD
    has no fix are excluded; InsufficientCirclesError if every height fails.
    """
    if separation_cm is None:
        separation_cm = scenario.pd_separation_cm
    rss = measure_rss(debiased_pilot_obs, schedule)
    heights = candidate_heights(scenario)
    floor = noise.sigma2_w if noise is not None else 0.0
    centers = np.array([[led.position.x, led.position.y] for led in scenario.leds])
    n_slots = np.bincount([s[0] for s in schedule], minlength=scenario.n_leds)
    radii = _radii(rss[:2], scenario, (0, 1), heights, noise, mode)
    fixes = []
    for pd_index in range(2):
        variances = _radius_sq_variances(radii[pd_index], heights, rss[pd_index],
                                         scenario, n_slots, floor)
        fixes.append(_positions_over_heights(radii[pd_index], centers, variances))
    valid = ~(np.isnan(fixes[0]).any(axis=1) | np.isnan(fixes[1]).any(axis=1))
    if not np.any(valid):
        raise InsufficientCirclesError("no candidate height produced a fix for both PDs")
    delta = fixes[0] - fixes[1]
    distances = np.hypot(delta[:, 0], delta[:, 1])  # NaN rows stay excluded
    candidates = np.where(valid)[0]
    best = candidates[select_matching_height(distances[candidates], separation_cm)]
    height = float(heights[best])
    estimates = []
    for pd_index in range(2):
        coords = Vec3(float(fixes[pd_index][best, 0]), float(fixes[pd_index][best, 1]), height)
        truth = truths[pd_index] if truths is not None else None
        estimates.append(PositionEstimate.from_coords(coords, truth))
    return estimates[0], estimates[1], height
