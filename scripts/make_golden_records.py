#!/usr/bin/env python3
"""Regenerate golden/records.json.

Seed-0, desk-scale sweep records of every sweep kind: 2-D positioning on
the default scenario, 3-D positioning in analytic and grid mode on the
90-degree-FoV LOS scenario, BER at PAM 2 and 4, and the noiseless point at
(100, 100, 250) whose estimator failures are censored.  Each case stores its
inputs next to its records (value, CI half-width, trials, failures and
error samples; NaN written as null), and `tests/test_golden_records.py`
replays the inputs through `run_case` and compares.

The file is a results guard: a change meant only for speed or structure
must leave it unchanged.  Re-record it only in a change meant to alter
results, and say so.
"""
import dataclasses
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vlcjcp import harness
from vlcjcp.scene import Vec3, load_scenario_file, with_rician

ROOT = os.path.join(os.path.dirname(__file__), "..")
OUT_PATH = os.path.join(ROOT, "golden", "records.json")

CASES = [
    {"name": "pos2d-analytic", "kind": "pos2d", "scenario": "default", "mode": "analytic",
     "snr_db": [40.0, 60.0], "positions": [[0.0, 0.0, 0.0], [149.0, 149.0, 0.0]],
     "trials": 8},
    {"name": "pos3d-analytic", "kind": "pos3d", "scenario": "los-fov90", "mode": "analytic",
     "snr_db": [60.0], "positions": [[100.0, 100.0, 100.0]], "trials": 10},
    {"name": "pos3d-grid", "kind": "pos3d", "scenario": "los-fov90", "mode": "grid",
     "snr_db": [60.0], "positions": [[100.0, 100.0, 100.0]], "trials": 10},
    {"name": "ber", "kind": "ber", "scenario": "default", "snr_db": [40.0, 45.0],
     "positions": [[25.0, 25.0, 0.0]], "m_orders": [2, 4], "bits": 24000,
     "frame_symbols": 500},
    # estimator RankError on every trial: censored, not an aborted sweep
    {"name": "pos2d-noiseless-censored", "kind": "pos2d", "scenario": "default",
     "mode": "analytic", "snr_db": [math.inf], "positions": [[100.0, 100.0, 250.0]],
     "trials": 3},
    {"name": "pos3d-noiseless-censored", "kind": "pos3d", "scenario": "default",
     "mode": "analytic", "snr_db": [math.inf], "positions": [[100.0, 100.0, 250.0]],
     "trials": 3},
]


def scenario(name: str):
    base = load_scenario_file(os.path.join(ROOT, "scenarios", "default.json"))
    if name == "default":
        return base
    # the criterion-9 scenario: full-hemisphere FoV, LOS-only channel
    pds = tuple(dataclasses.replace(pd, fov_half_angle_deg=90.0) for pd in base.pds)
    return dataclasses.replace(with_rician(base, math.inf), pds=pds)


def run_case(case: dict) -> list[dict]:
    """The records of one case, as JSON-ready dicts."""
    spec = harness.SweepSpec(scenario=scenario(case["scenario"]),
                             values=tuple(float(v) for v in case["snr_db"]),
                             trials_per_point=case.get("trials", 1),
                             bits_per_trial=case.get("bits", 1),
                             frame_payload_symbols=case.get("frame_symbols", 1))
    positions = [Vec3(*p) for p in case["positions"]]
    if case["kind"] == "ber":
        records = harness.run_ber_sweep(spec, positions[0], m_orders=case["m_orders"])
    else:
        sweep = (harness.run_positioning_sweep_2d if case["kind"] == "pos2d"
                 else harness.run_positioning_sweep_3d)
        records = sweep(spec, positions, mode=case["mode"])
    return [{"value": _json_float(rec.value),
             "ci_half_width": _json_float(rec.ci_half_width),
             "trials": rec.trials,
             "failures": rec.failures,
             "samples": None if rec.samples is None else [float(s) for s in rec.samples]}
            for rec in records]


def _json_float(value: float):
    return None if math.isnan(value) else float(value)


def main() -> None:
    cases = [{**case, "snr_db": [_json_snr(v) for v in case["snr_db"]],
              "records": run_case(case)} for case in CASES]
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "cases": cases}, fh, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {OUT_PATH}")


def _json_snr(value: float):
    return "inf" if math.isinf(value) else value


if __name__ == "__main__":
    main()
