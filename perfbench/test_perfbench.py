"""Tests of the benchmark itself: the tracer's accounting and restore, and a
tiny run that must emit every metric BENCHMARK.json names.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def fake_package(monkeypatch):
    """`fakepkg.mod` with outer() -> inner() x2, each advancing a fake clock,
    and `fakepkg.user` importing both by name."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner(fail=False):
        clock.now += 2.0
        if fail:
            raise ValueError("inner failed")
        return [0] * 3

    def outer(fail=False):
        clock.now += 1.0
        mod.inner()
        try:
            mod.inner(fail)
        except ValueError:
            pass
        clock.now += 3.0
        return "done"

    mod.inner, mod.outer = inner, outer
    user.inner, user.outer = inner, outer
    pkg.mod = mod
    for name, module in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, mod, user


def test_self_time_is_total_minus_children(fake_package):
    clock, mod, user = fake_package
    tracer = Tracer({"mod": ("outer", "inner")},
                    counters={"mod.inner": lambda args, kwargs, result: len(result)},
                    package="fakepkg", clock=clock)
    with tracer.installed():
        assert user.outer(fail=True) == "done"
    outer, inner = tracer.stats["mod.outer"], tracer.stats["mod.inner"]
    assert (outer.calls, outer.total_s, outer.self_s, outer.errors) == (1, 8.0, 4.0, 0)
    assert (inner.calls, inner.total_s, inner.self_s, inner.errors) == (2, 4.0, 4.0, 1)
    assert outer.self_s == outer.total_s - inner.total_s
    assert inner.count == 3  # the failed call counts no work


def test_rebinds_by_name_imports_and_restores_on_error(fake_package):
    clock, mod, user = fake_package
    originals = (mod.inner, mod.outer, user.inner, user.outer)
    tracer = Tracer({"mod": ("outer", "inner", "gone")}, package="fakepkg", clock=clock)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert user.inner is not originals[2] and user.inner.__wrapped__ is originals[0]
            raise RuntimeError("abort the traced block")
    assert (mod.inner, mod.outer, user.inner, user.outer) == originals
    assert all(a is b for a, b in zip((mod.inner, mod.outer, user.inner, user.outer),
                                      originals))
    assert tracer.absent == ["mod.gone"]


def _vlcjcp_bindings():
    targets = {id(fn): fn for fn in (getattr(sys.modules[f"vlcjcp.{m}"], f)
                                     for m, fs in run.TRACE_TARGETS.items() for f in fs)}
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "vlcjcp" or name.startswith("vlcjcp.")
            for attr, value in vars(module).items() if targets.get(id(value)) is value}


def test_traced_run_restores_every_vlcjcp_attribute(monkeypatch):
    import vlcjcp.harness
    import vlcjcp.positioning

    before = _vlcjcp_bindings()
    assert ("vlcjcp.harness", "position_2d") in before  # imported by name
    monkeypatch.setattr(workloads, "POS2D_TRIALS", 2)
    workload = workloads.build("pos2d", 0)
    tracer = Tracer(run.TRACE_TARGETS, run.TRACE_COUNTERS)
    with tracer.installed():
        assert vlcjcp.harness.position_2d is not vlcjcp.positioning.position_2d.__wrapped__
        workload.calls[0].run()
    after = _vlcjcp_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["positioning.position_2d"].calls == workload.calls[0].trials == 2
    assert tracer.stats["channel.los_gain_at_offsets"].count > 0
    assert tracer.absent == []


def _tiny(monkeypatch):
    monkeypatch.setattr(workloads, "POS2D_TRIALS", 2)
    monkeypatch.setattr(workloads, "BER_BITS_PER_POINT", 6000)


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return report, result


@pytest.mark.parametrize("workload", ["pos2d", "ber"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(monkeypatch, capsys, workload, trace):
    _tiny(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    report, result = _result(capsys)
    assert code == 0 and result["correct"] and result["attempted"] >= 1
    named = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert report["environment"]["blas_threads"] == "1"
    if trace:
        assert report["absent_spans"] == []
        layers = result["metrics"]
        positioning = [v["value"] for k, v in layers.items()
                       if k.startswith("positioning.") and k.endswith("calls_per_trial")]
        assert (sum(positioning) == 0) == (workload == "ber")
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        # --seconds 0 times one whole pass, with one set-up probe per call
        assert report["passes_timed"] == 1
        assert len(report["wall_setup_s_samples"]) == len(report["inputs"]["calls"])
        assert result["metrics"]["failed_frac"]["value"] > 0


def test_output_check_failure_exits_nonzero(monkeypatch, capsys):
    _tiny(monkeypatch)
    real = workloads.harness.run_ber_sweep

    def broken(*args, **kwargs):
        records = real(*args, **kwargs)
        records[0].value = 0.75
        return records

    monkeypatch.setattr(workloads.harness, "run_ber_sweep", broken)
    code = run.main(["--workload", "ber", "--seed", "3", "--seconds", "0", "--trace", "0"])
    report, result = _result(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1 and report["violations"]


def test_missing_source_tree_exits_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "pos2d", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
