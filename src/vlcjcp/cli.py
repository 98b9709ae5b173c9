"""Command line front end.

Subcommands: `validate`, `rss-table`, `sweep ber|pos2d|pos3d`, `k-factor`.
Exit codes are a stable contract: 0 success, 1 domain or validation failure,
2 usage or I/O failure.  Every sweep writes a manifest listing each emitted
file with its SHA-256, so a run can be replayed and byte-verified from the
recorded seed.  Sweeps run serially in one process; `sweep` takes no
worker-count option, and an unknown option is a usage error (exit 2).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial

from . import harness, positioning
from .channel import k_factor_from_geometry, noise_variance_for_snr, link_stats
from .errors import SchemaError, ValidationError, VlcJcpError
from .scene import ScenarioConfig, Vec3, load_scenario_file, validate_scenario

__all__ = ["main", "RunManifest", "parse_snr_values", "parse_positions"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

DEFAULT_POSITIONS_2D = "0,0;50,50;100,100;149,149"
DEFAULT_POSITIONS_3D = "100,100,50;100,100,150;100,100,250"
DEFAULT_BER_POSITION = "-2.5,1.5,0"


@dataclass
class RunManifest:
    command: str
    scenario_path: str
    seed: int
    out_dir: str
    artifacts: dict[str, str]  # file name -> sha256
    duration_s: float

    def write(self, path: str) -> None:
        _write_atomic(path, self._dump)

    def _dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2)
            fh.write("\n")


def _write_atomic(path: str, write) -> None:
    """Atomic write: `write(tmp)` fills a temp file in the same directory,
    which is then renamed to `path`; a failed write leaves no temp file."""
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_snr_values(text: str) -> tuple[float, ...]:
    """`a..b:step` (inclusive) or a comma-separated list."""
    text = text.strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        if not step_text:
            raise ValueError("range syntax is a..b:step")
        lo_text, _, hi_text = span.partition("..")
        lo, hi, step = float(lo_text), float(hi_text), float(step_text)
        if step <= 0 or hi < lo:
            raise ValueError("need a..b with b >= a and a positive step")
        values = []
        k = 0
        while True:
            v = lo + k * step
            if v > hi + 1e-9:
                break
            values.append(round(v, 12))
            k += 1
        return tuple(values)
    return tuple(float(v) for v in text.split(","))


def parse_positions(text: str) -> list[Vec3]:
    """Semicolon-separated points, each `x,y` (z = 0) or `x,y,z`, in cm."""
    points = []
    for chunk in text.split(";"):
        parts = [float(v) for v in chunk.split(",")]
        if len(parts) == 2:
            parts.append(0.0)
        if len(parts) != 3:
            raise ValueError(f"bad position {chunk!r}")
        points.append(Vec3(*parts))
    return points


def _load(path: str) -> ScenarioConfig:
    try:
        return load_scenario_file(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except SchemaError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except ValidationError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)


def _cmd_validate(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from .scene import load_scenario

    try:
        cfg = load_scenario(text)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    diagnostics = validate_scenario(cfg)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    return EXIT_OK if not any(d.severity == "error" for d in diagnostics) else EXIT_DOMAIN


def _cmd_rss_table(args) -> int:
    scenario = _load(args.scenario)
    noise = None
    if args.snr_db is not None:
        reference = scenario.pd_positions(Vec3(0.0, 0.0, args.height))
        noise = noise_variance_for_snr(link_stats(scenario, reference),
                                       scenario.modulation, args.snr_db)
    try:
        table = positioning.build_reference_grid(scenario, args.height, noise)
        positioning.write_rss_table_csv(table, args.out)
    except VlcJcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_k_factor(args) -> int:
    scenario = _load(args.scenario)
    try:
        led = parse_positions(args.led)[0]
        pd = parse_positions(args.pd)[0]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        k = k_factor_from_geometry(scenario.room, led, pd, args.segment_cm)
    except VlcJcpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"{k:.10g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load(args.scenario)
    seed = args.seed if args.seed is not None else 0
    scenario = replace(scenario, seed=seed)
    try:
        snr_values = parse_snr_values(args.snr) if args.snr else scenario.snr_db_list
        positions_text = args.positions or (
            DEFAULT_BER_POSITION if args.kind == "ber"
            else DEFAULT_POSITIONS_2D if args.kind == "pos2d"
            else DEFAULT_POSITIONS_3D)
        positions = parse_positions(positions_text)
        m_orders = ([int(v) for v in args.m_orders.split(",")]
                    if args.m_orders else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    trials = args.trials if args.trials is not None else (100_000 if args.full else 1000)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def emit(name: str, write) -> None:
        path = os.path.join(out_dir, name)
        _write_atomic(path, write)
        written.append(path)

    started = time.monotonic()
    try:
        spec = harness.SweepSpec(scenario=scenario, values=tuple(snr_values),
                                 trials_per_point=trials, bits_per_trial=args.bits)
        if args.kind == "ber":
            records = harness.run_ber_sweep(spec, positions[0], m_orders)
        elif args.kind == "pos2d":
            records = harness.run_positioning_sweep_2d(spec, positions, mode=args.mode)
        else:
            records = harness.run_positioning_sweep_3d(spec, positions, mode=args.mode)
        emit(f"{args.kind}_metrics.csv", partial(harness.write_metrics_csv, records))
        if args.save_samples:
            for rec in records:
                if rec.samples is None:
                    continue
                x, y, z = rec.position
                emit(f"{args.kind}_snr{rec.snr_db:g}_x{x:g}_y{y:g}_z{z:g}_samples.csv",
                     partial(harness.write_samples_csv, rec))
        emit(f"{args.kind}_report.json", partial(
            harness.write_json_report, records, meta={
                "command": args.kind, "seed": seed,
                "scenario": os.path.abspath(args.scenario)}))
        manifest = RunManifest(
            command=" ".join(["sweep", args.kind]),
            scenario_path=os.path.abspath(args.scenario),
            seed=seed,
            out_dir=os.path.abspath(out_dir),
            artifacts={os.path.basename(p): _sha256(p) for p in written},
            duration_s=round(time.monotonic() - started, 3),
        )
        manifest.write(os.path.join(out_dir, "manifest.json"))
    except BaseException as exc:
        for path in written:  # no partial outputs on any abort
            with contextlib.suppress(OSError):
                os.unlink(path)
        if not isinstance(exc, VlcJcpError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcjcp",
        description="Visible-light joint communication and positioning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    p_rss = sub.add_parser("rss-table", help="write the expected-RSS grid as CSV")
    p_rss.add_argument("scenario")
    p_rss.add_argument("--height", type=float, default=0.0, help="receiver plane, cm")
    p_rss.add_argument("--snr-db", type=float, default=None,
                       help="include the ambient noise floor for this SNR")
    p_rss.add_argument("--out", required=True)
    p_rss.set_defaults(func=_cmd_rss_table)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    p_sweep.add_argument("kind", choices=["ber", "pos2d", "pos3d"])
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--snr", default=None,
                         help="a..b:step (inclusive) or comma list; scenario default otherwise")
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="positioning trials per point (default 1000, or 1e5 with --full)")
    p_sweep.add_argument("--bits", type=int, default=1_000_000,
                         help="bits per BER point")
    p_sweep.add_argument("--full", action="store_true",
                         help="paper-scale averaging instead of desk scale")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="run seed (default 0, never entropy)")
    p_sweep.add_argument("--positions", default=None,
                         help="x,y[,z];... receiver points in cm")
    p_sweep.add_argument("--m-orders", default=None, help="comma list of PAM orders (ber)")
    p_sweep.add_argument("--mode", choices=["analytic", "grid"], default="analytic",
                         help="radius inversion mode for positioning sweeps")
    p_sweep.add_argument("--save-samples", action="store_true",
                         help="write per-point error samples for CDF plots")
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_k = sub.add_parser("k-factor", help="geometric Rician K for one LED/PD pair")
    p_k.add_argument("scenario")
    p_k.add_argument("--led", required=True, help="x,y,z in cm")
    p_k.add_argument("--pd", required=True, help="x,y,z in cm")
    p_k.add_argument("--segment-cm", type=float, default=10.0)
    p_k.set_defaults(func=_cmd_k_factor)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
