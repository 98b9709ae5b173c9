"""The benchmark's four sweep workloads.

`build(name, seed)` turns a seed into the inputs of one workload: the
receiver positions and the `SweepSpec`s with their scenarios.  The program
sees only those inputs.  A workload is a fixed list of sweep calls, one per
(receiver position, SNR) point, and a run times whole passes over it.  The positions are fixed anchors, mirrored and jittered by the
seed.  Each call's `ScenarioConfig.seed` is drawn from the seed, so the
Monte Carlo draws of different points are independent.  `check_call` checks
the records a call returns.

Importing this module imports `vlcjcp` and NumPy, so a fresh process that
imports it and calls `build` pays exactly the set-up cost the benchmark
reports as `setup_s`.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import vlcjcp
from vlcjcp import harness
from vlcjcp.modem import sm_bits_per_symbol
from vlcjcp.scene import Vec3, load_scenario_file, validate_scenario, with_rician

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_FILE = ROOT / "scenarios" / "default.json"

NAMES = ("pos2d", "pos3d", "ber", "grid3d")
# End-to-end accuracy metric per workload.  grid3d has none: with a few
# Monte Carlo trials per run its pooled error moves by tens of percent from
# seed to seed, so it could not carry a bound (see README.md).
ACCURACY = {"pos2d": "mean_error_cm", "pos3d": "mean_error_cm",
            "ber": "bit_error_rate", "grid3d": None}

# Input sizes.  A pass over a workload's calls takes 12-22 s on one core of
# the 2-vCPU host the benchmark was defined on.
POS2D_SNR_DB = (40.0, 50.0, 60.0, 70.0)
POS2D_ANCHORS = ((0.0, 0.0, 0.0), (149.0, 149.0, 0.0))
POS2D_TRIALS = 200   # desk-scale: trial batching needs hundreds per point

POS3D_SNR_DB = (44.0, 60.0, 80.0)
POS3D_ANCHORS = ((100.0, 100.0, 20.0), (100.0, 100.0, 100.0),
                 (100.0, 100.0, 180.0), (100.0, 100.0, 260.0))
POS3D_TRIALS = 40
GRID3D_TRIALS = 3

BER_SNR_DB = (45.0, 50.0, 55.0, 60.0, 65.0, 70.0)
BER_ORDERS = (2, 4, 8)
BER_ANCHORS = ((25.0, 25.0, 0.0), (140.0, 140.0, 0.0))
BER_FRAME_SYMBOLS = 2000
BER_BITS_PER_POINT = 960_000   # 160, 120 and 96 frames for M = 2, 4 and 8

JITTER_CM = 0.5
HALF_ROOM_CM = 149.0
MAX_HEIGHT_CM = 280.0


@dataclass(frozen=True)
class Call:
    """One sweep call: one SNR (and every PAM order) at one receiver position."""

    kind: str                      # "ber" | "pos2d" | "pos3d"
    spec: harness.SweepSpec
    position: Vec3
    mode: str = "analytic"
    m_orders: tuple[int, ...] = ()

    @property
    def points(self) -> list[tuple]:
        """(snr_db, m_order) per record, in the order the sweep returns them."""
        orders = self.m_orders or (None,)
        return [(snr, m) for snr in self.spec.values for m in orders]

    def frames(self, m_order: int) -> int:
        bits_per_frame = self.spec.frame_payload_symbols * sm_bits_per_symbol(
            self.spec.scenario.n_leds, m_order)
        return max(1, math.ceil(self.spec.bits_per_trial / bits_per_frame))

    @property
    def trials(self) -> int:
        """Fix attempts, or 2000-symbol frames on `ber`."""
        if self.kind == "ber":
            return len(self.spec.values) * sum(self.frames(m) for m in self.m_orders)
        return len(self.spec.values) * self.spec.trials_per_point

    def timed_run(self) -> tuple[list | None, float, str | None]:
        """(records, seconds, None), or (None, seconds, error) when the sweep
        raised a VlcJcpError."""
        start = time.perf_counter()
        try:
            records = self.run()
        except vlcjcp.VlcJcpError as exc:
            return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        return records, time.perf_counter() - start, None

    def run(self) -> list:
        # look the sweep up on the module at call time, so a tracer that
        # rebinds harness attributes sees the call
        if self.kind == "ber":
            return harness.run_ber_sweep(self.spec, self.position,
                                         m_orders=list(self.m_orders))
        sweep = (harness.run_positioning_sweep_2d if self.kind == "pos2d"
                 else harness.run_positioning_sweep_3d)
        return sweep(self.spec, [self.position], mode=self.mode,
                     max_samples=self.spec.trials_per_point)


@dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    accuracy: str | None           # "mean_error_cm" | "bit_error_rate" | None

    @property
    def trials(self) -> int:
        return sum(call.trials for call in self.calls)


def _validated(scenario):
    errors = [d for d in validate_scenario(scenario) if d.severity == "error"]
    if errors:
        raise vlcjcp.VlcJcpError(f"invalid scenario: {errors[0].path}: {errors[0].message}")
    return scenario


def _positions(anchors, rng: np.random.Generator, jitter_cm: float) -> list[Vec3]:
    """Anchors, mirrored in y on a seed-drawn coin, each moved by its own
    jitter.  The mirror maps the LED layout, the dimming zones and the
    x-offset PD pair onto themselves, so it changes the inputs but not their
    difficulty."""
    sy = rng.choice((-1.0, 1.0))
    out = []
    for x, y, z in anchors:
        dx, dy, dz = rng.uniform(-jitter_cm, jitter_cm, size=3)
        out.append(Vec3(
            float(np.clip(x + dx, -HALF_ROOM_CM, HALF_ROOM_CM)),
            float(np.clip(sy * y + dy, -HALF_ROOM_CM, HALF_ROOM_CM)),
            float(np.clip(z + dz, 0.0, MAX_HEIGHT_CM)) if z > 0 else 0.0,
        ))
    return out


def build(name: str, seed: int) -> Workload:
    """Load and validate the scenario and build the calls of workload `name`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    sequence = np.random.SeedSequence(seed, spawn_key=(NAMES.index(name),))
    rng = np.random.default_rng(sequence)
    base = _validated(load_scenario_file(SCENARIO_FILE))
    if name in ("pos3d", "grid3d"):
        # criterion-9 scenario: full-hemisphere FoV, LOS-only channel
        pds = tuple(dataclasses.replace(pd, fov_half_angle_deg=90.0) for pd in base.pds)
        base = _validated(dataclasses.replace(with_rician(base, math.inf), pds=pds))
    jitter = JITTER_CM
    if name == "pos2d":
        kind, anchors, snrs, extra = "pos2d", POS2D_ANCHORS, POS2D_SNR_DB, {}
        sizes = {"trials_per_point": POS2D_TRIALS}
    elif name == "ber":
        # BER peaks sharply on the room diagonals, where two LEDs' channel
        # columns coincide; a 0.5 cm jitter moves it by 10%, so no jitter
        kind, anchors, snrs, extra = "ber", BER_ANCHORS, BER_SNR_DB, {"m_orders": BER_ORDERS}
        sizes = {"bits_per_trial": BER_BITS_PER_POINT,
                 "frame_payload_symbols": BER_FRAME_SYMBOLS}
        jitter = 0.0
    else:
        kind, anchors, snrs = "pos3d", POS3D_ANCHORS, POS3D_SNR_DB
        extra = {"mode": "grid" if name == "grid3d" else "analytic"}
        sizes = {"trials_per_point": GRID3D_TRIALS if name == "grid3d" else POS3D_TRIALS}
    points = [(position, snr) for position in _positions(anchors, rng, jitter)
              for snr in snrs]
    seeds = [int(child.generate_state(1, np.uint64)[0])
             for child in sequence.spawn(len(points))]
    calls = tuple(
        Call(kind, harness.SweepSpec(scenario=dataclasses.replace(base, seed=call_seed),
                                     values=(snr,), **sizes), position, **extra)
        for (position, snr), call_seed in zip(points, seeds))
    return Workload(calls, ACCURACY[name])


def check_call(call: Call, records) -> list[tuple[int, str]]:
    """Output check of one sweep call.

    Returns (trials, reason) per violating point; a wrong record count fails
    the whole call.
    """
    points = call.points
    if len(records) != len(points):
        return [(call.trials, f"{len(records)} records for {len(points)} points")]
    bad = []
    for rec, (snr, m_order) in zip(records, points):
        where = f"snr {snr:g} dB" + (f", M={m_order}" if m_order else "")
        if call.kind == "ber":
            attempted = call.frames(m_order)
            bits = attempted * call.spec.frame_payload_symbols * sm_bits_per_symbol(
                call.spec.scenario.n_leds, m_order)
            ok_count = rec.trials == bits and rec.failures == 0
            ok_value = 0.0 <= rec.value <= 0.5
        else:
            attempted = call.spec.trials_per_point
            successes = 0 if rec.samples is None else rec.samples.size
            ok_count = rec.trials == attempted and successes + rec.failures == attempted
            ok_value = math.isfinite(rec.value) or successes == 0
        reason = None
        if (rec.snr_db, rec.m_order) != (snr, m_order) or \
                rec.position != call.position.as_tuple():
            reason = "record does not match the requested point"
        elif not ok_count:
            reason = "successes plus censored trials differ from trials attempted"
        elif not ok_value:
            reason = f"value {rec.value!r} out of range"
        elif not rec.ci_half_width >= 0.0:
            reason = f"CI half-width {rec.ci_half_width!r} is negative or NaN"
        if reason:
            bad.append((attempted, f"{where}: {reason}"))
    return bad


def record_values(records) -> list[list]:
    """Each record's value, CI half-width, trials and failures; NaN as None."""
    return [[None if isinstance(v, float) and math.isnan(v) else v
             for v in (float(rec.value), float(rec.ci_half_width), rec.trials, rec.failures)]
            for rec in records]


def describe(workload: Workload) -> dict:
    """The generated inputs, for the report."""
    return {
        "trials_per_pass": workload.trials,
        "calls": [{"kind": c.kind, "mode": c.mode, "scenario_seed": c.spec.scenario.seed,
                   "position_cm": c.position.as_tuple(),
                   "snr_db": list(c.spec.values), "m_orders": list(c.m_orders),
                   "trials": c.trials} for c in workload.calls],
    }


def successes(call: Call, records) -> list[int]:
    """Trials that produced a result, per record."""
    if call.kind == "ber":
        return [call.frames(rec.m_order) for rec in records]
    return [0 if rec.samples is None else rec.samples.size for rec in records]
