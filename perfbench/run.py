"""Sweep benchmark of the vlcjcp simulator.

    python3 perfbench/run.py --workload pos2d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; `vlcjcp` is imported from `src/`.
One process runs one workload in one thread, closed loop: each sweep call
ends before the next starts.  With `--trace 0` the run times whole passes over
the workload's sweep calls (at least one, and more while they fit in
`--seconds`), checks every call's records and prints the end-to-end metrics.
With `--trace 1` it runs each call once plain and once with every listed
public function wrapped, and prints per-function metrics per trial.  See README.md beside this file.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON report with
the environment, the inputs and diagnostics.  The exit code is 1 when an
output check failed and 2 when the source tree is missing.
"""
from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before NumPy is imported, here or
# in the set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0        # the seed `reference_records.json` was recorded with
HELD_OUT_SEED = 7919    # kept out of development runs, for checking claims
REFERENCE_FILE = HERE / "reference_records.json"
NOT_APPLICABLE = 1.0    # reported for an accuracy metric the workload lacks
REFERENCE_S = 0.024     # median reference_seconds() on the defining host

TRACE_TARGETS = {
    "harness": ("run_ber_sweep", "run_positioning_sweep_2d",
                "run_positioning_sweep_3d", "derive_rng"),
    "channel": ("sample_channel_matrix", "link_stats", "noise_variance_for_snr",
                "los_gain_at_offsets", "k_factor_from_geometry"),
    "receiver": ("ls_joint_estimate", "remove_dc_bias", "ml_detect_batch"),
    "modem": ("sm_indices_from_bits", "bits_from_sm_indices"),
    "positioning": ("measure_rss", "position_2d", "position_3d", "radius_from_rss",
                    "radical_axis_position_2d", "build_reference_grid"),
}
TRACE_ROOTS = ("harness.run_ber_sweep", "harness.run_positioning_sweep_2d",
               "harness.run_positioning_sweep_3d")

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "mean_error_cm": "cm",
    "bit_error_rate": "ratio",
}


def _hypotheses(args, kwargs, result):
    """n x N_t x M candidate vectors scored by one ml_detect_batch call."""
    h_hat = args[1] if len(args) > 1 else kwargs["h_hat"]
    constellation = args[2] if len(args) > 2 else kwargs["constellation"]
    return len(result[0]) * h_hat.shape[1] * len(constellation.levels)


TRACE_COUNTERS = {
    "channel.los_gain_at_offsets": lambda args, kwargs, result: int(result.size),
    "receiver.ml_detect_batch": _hypotheses,
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for module, functions in TRACE_TARGETS.items():
        for function in functions:
            units[f"{module}.{function}.calls_per_trial"] = "count"
            units[f"{module}.{function}.self_ms_per_trial"] = "ms"
            units[f"{module}.{function}.errors_per_trial"] = "count"
    units["harness.self_ms_per_trial"] = "ms"
    units["channel.los_gain_at_offsets.evals_per_trial"] = "count"
    units["receiver.ml_detect_batch.hypotheses_per_trial"] = "count"
    units["positioning.radius_from_rss.ok_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# environment

def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement

def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of the workload in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Outcome:
    """Trial accounting and output checks over the calls of one run."""

    def __init__(self, workloads_module):
        self.w = workloads_module
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.errors: list[str] = []

    def add(self, index, call, records, error, expected=None) -> bool:
        """Account one call; True when its records passed every check."""
        self.attempted += call.trials
        if records is None:
            self.failed += call.trials
            self.errors.append(f"call {index}: {error}")
            return False
        bad = self.w.check_call(call, records)
        if not bad and expected is not None and self.w.record_values(records) != expected:
            bad = [(call.trials, "traced records differ from the plain run's")]
        for trials, reason in bad:
            self.violations.append(f"call {index}: {reason}")
        censored = sum(rec.failures for rec in records)
        self.failed += min(call.trials, censored + sum(trials for trials, _ in bad))
        return not bad


def records_max_rel_dev(name: str, seed: int, first_pass) -> float | None:
    """Largest relative difference of any record field from the reference
    recorded for `DEFAULT_SEED`, at most 1; None for other seeds or without
    a reference.  A missing record or a NaN against a number counts 1."""
    if seed != DEFAULT_SEED or not REFERENCE_FILE.exists():
        return None
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if reference.get("seed") != seed or name not in reference["workloads"]:
        return None
    expected = reference["workloads"][name]
    if any(records is None for records in first_pass):
        return 1.0
    got = [values for records in first_pass for values in records]
    if len(got) != len(expected):
        return 1.0
    dev = 0.0
    for row_got, row_exp in zip(got, expected):
        for a, b in zip(row_got, row_exp):
            if a is None or b is None:
                dev = max(dev, 0.0 if a is b else 1.0)
            elif a != b:
                dev = max(dev, abs(a - b) / max(abs(a), abs(b)))
    return dev


def reference_seconds() -> float:
    """Seconds taken by a fixed mix of the simulator's kinds of work: NumPy
    calls on 300-element vectors and on 61 x 61 grids, and interpreter work.

    The host shares its cores with other machines, and its speed for this
    work moves by up to 50% within minutes.  Timed next to each sweep call,
    this fixed work measures the host's current speed (its rate correlated
    0.8-0.9 with the call rates), so call rates can be scaled to one speed.
    """
    vector = np.linspace(0.1, 1.0, 300)
    grid = np.linspace(0.0, 1.0, 61 * 61).reshape(61, 61)
    start = time.perf_counter()
    for _ in range(500):
        d2 = vector * vector + 0.25
        cos = np.where(vector > 0, vector / np.sqrt(d2), 0.0)
        np.where(cos >= 0.5, np.power(cos, 1.6) / d2, 0.0)
    for _ in range(200):
        np.sqrt(grid * grid + 1.0) * np.power(grid, 1.5)
    total = 0.0
    for i in range(100_000):
        total += i * 0.5
    return time.perf_counter() - start


def run_plain(w, name: str, workload, seed: int, seconds: float):
    """Time whole passes over the workload's calls: one, then more while the
    next is expected to end within `seconds`.  Every call's records are
    checked.

    `reference_seconds()` is timed before the first call and after each call.
    A call's seconds are scaled by `REFERENCE_S` over the mean of the
    reference times around it; `trials_per_s` is the trials of the timed
    calls over their scaled seconds.  One set-up probe runs after each call
    of the first pass, so the probes sample the same host periods as the
    calls; `setup_s` is their median scaled by `REFERENCE_S` over the
    median reference time of the run."""
    outcome = Outcome(w)
    reference = [reference_seconds()]
    trials = passes = 0
    wall_s = scaled_s = 0.0
    setup, first_pass = [], []
    errors_cm = fixes = bits_wrong = bits_sent = 0.0
    started = time.perf_counter()
    while passes == 0 or (time.perf_counter() - started) * (passes + 1) / passes <= seconds:
        for index, call in enumerate(workload.calls):
            records, elapsed, error = call.timed_run()
            reference.append(reference_seconds())
            ok = outcome.add(index, call, records, error)
            if records is not None:
                trials += call.trials
                wall_s += elapsed
                scaled_s += elapsed * 2 * REFERENCE_S / (reference[-2] + reference[-1])
            for rec, good in zip(records, w.successes(call, records)) if ok else ():
                if rec.metric == "ber":
                    bits_wrong += rec.value * rec.trials
                    bits_sent += rec.trials
                elif good:
                    errors_cm += rec.value * good
                    fixes += good
            if passes == 0:
                first_pass.append(None if records is None else w.record_values(records))
                setup.append(setup_probe(name, seed))
        passes += 1
    return {
        "outcome": outcome,
        "passes": passes,
        "trials_per_s": trials / scaled_s if scaled_s else 0.0,
        "wall_trials_per_s": trials / wall_s if wall_s else 0.0,
        "reference_s": reference,
        "setup_s": statistics.median(setup) * REFERENCE_S / statistics.median(reference),
        "wall_setup_s": setup,
        "first_pass": first_pass,
        "mean_error_cm": errors_cm / fixes if fixes else math.nan,
        "bit_error_rate": bits_wrong / bits_sent if bits_sent else math.nan,
    }


def run_traced(w, workload):
    """Each call once plain and once traced, alternating which goes first;
    the traced records must equal the plain ones."""
    tracer = Tracer(TRACE_TARGETS, TRACE_COUNTERS)
    outcome = Outcome(w)
    plain_s = traced_s = 0.0
    traced_trials = 0
    for index, call in enumerate(workload.calls):
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            with tracer.installed() if traced else contextlib.nullcontext():
                runs[traced] = call.timed_run()
        (plain, plain_elapsed, plain_error) = runs[False]
        (records, traced_elapsed, traced_error) = runs[True]
        ok = outcome.add(index, call, plain, plain_error)
        outcome.add(index, call, records, traced_error,
                    w.record_values(plain) if ok else None)
        plain_s += plain_elapsed
        traced_s += traced_elapsed
        traced_trials += call.trials
    return tracer, outcome, plain_s, traced_s, traced_trials


def layer_metrics(tracer, trials: int, plain_s: float, traced_s: float) -> dict:
    values = {}
    for name, stat in tracer.stats.items():
        values[f"{name}.calls_per_trial"] = stat.calls / trials
        values[f"{name}.self_ms_per_trial"] = stat.self_s * 1e3 / trials
        values[f"{name}.errors_per_trial"] = stat.errors / trials
    values["harness.self_ms_per_trial"] = sum(
        tracer.stats[name].self_s for name in TRACE_ROOTS) * 1e3 / trials
    values["channel.los_gain_at_offsets.evals_per_trial"] = \
        tracer.stats["channel.los_gain_at_offsets"].count / trials
    values["receiver.ml_detect_batch.hypotheses_per_trial"] = \
        tracer.stats["receiver.ml_detect_batch"].count / trials
    inversions = tracer.stats["positioning.radius_from_rss"]
    # 1.0 when nothing was attempted: no inversion was wasted
    values["positioning.radius_from_rss.ok_ratio"] = (
        (inversions.calls - inversions.errors) / inversions.calls
        if inversions.calls else 1.0)
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vlcjcp" / "__init__.py").is_file():
        print(f"error: no vlcjcp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w

    if Path(w.vlcjcp.__file__).resolve().parent != SRC / "vlcjcp":
        print(f"error: imported vlcjcp from {w.vlcjcp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in w.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {w.NAMES}",
              file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
              "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
              "environment": environment()}
    if args.trace:
        workload = w.build(args.workload, args.seed)
        report["inputs"] = w.describe(workload)
        tracer, outcome, plain_s, traced_s, trials = run_traced(w, workload)
        metrics = layer_metrics(tracer, trials, plain_s, traced_s)
        report["absent_spans"] = tracer.absent
        report["trace_wall_s"] = {"plain": plain_s, "traced": traced_s}
        report["spans_ms_per_trial"] = {
            name: {"calls": s.calls, "total": s.total_s * 1e3 / trials,
                   "self": s.self_s * 1e3 / trials, "errors": s.errors}
            for name, s in tracer.stats.items()}
    else:
        workload = w.build(args.workload, args.seed)
        report["inputs"] = w.describe(workload)
        result = run_plain(w, args.workload, workload, args.seed, args.seconds)
        outcome = result["outcome"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "trials_per_s": result["trials_per_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": peak_rss_mb,
            # Jeffreys estimate (f + 1/2) / (n + 1): never 0, so a relative
            # bound can apply; with no failures it reads 0.5 / (n + 1)
            "failed_frac": (outcome.failed + 0.5) / (outcome.attempted + 1),
            "mean_error_cm": result["mean_error_cm"],
            "bit_error_rate": result["bit_error_rate"],
        }
        not_applicable = [name for name in ("mean_error_cm", "bit_error_rate")
                          if name != workload.accuracy]
        if workload.accuracy and math.isnan(values[workload.accuracy]):
            outcome.violations.append("no trial produced a result")
            not_applicable.append(workload.accuracy)
        for name in not_applicable:
            values[name] = NOT_APPLICABLE
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        report.update({
            "not_applicable": not_applicable,
            "pooled_accuracy": {name: None if math.isnan(result[name]) else result[name]
                                for name in ("mean_error_cm", "bit_error_rate")},
            "passes_timed": result["passes"],
            "wall_trials_per_s": result["wall_trials_per_s"],
            "reference_s": result["reference_s"],
            "wall_setup_s": statistics.median(result["wall_setup_s"]),
            "wall_setup_s_samples": result["wall_setup_s"],
            "records_max_rel_dev": records_max_rel_dev(args.workload, args.seed,
                                                       result["first_pass"]),
        })
    report["violations"] = outcome.violations[:50]
    report["call_errors"] = outcome.errors[:50]
    correct = not outcome.violations
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
