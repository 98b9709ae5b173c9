import json
import os

import pytest

from vlcjcp.cli import main, parse_positions, parse_snr_values
from tests.conftest import SCENARIO_PATH


def test_parse_snr_range_inclusive():
    assert parse_snr_values("60..80:5") == (60.0, 65.0, 70.0, 75.0, 80.0)
    assert parse_snr_values("40,50,70") == (40.0, 50.0, 70.0)
    with pytest.raises(ValueError):
        parse_snr_values("80..60:5")


def test_parse_positions():
    points = parse_positions("0,0;50,50;100,100,25")
    assert points[0].as_tuple() == (0.0, 0.0, 0.0)
    assert points[2].as_tuple() == (100.0, 100.0, 25.0)


def test_validate_ok():
    assert main(["validate", SCENARIO_PATH]) == 0


def test_validate_bad_scenario(tmp_path, capsys):
    doc = json.load(open(SCENARIO_PATH))
    doc["modulation"]["pam_order"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "modulation.pam_order" in capsys.readouterr().err


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_unknown_sweep_kind():
    assert main(["sweep", "nope", SCENARIO_PATH, "--out-dir", "/tmp/x"]) == 2


def test_rss_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["rss-table", SCENARIO_PATH, "--height", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 61 * 61 * 4  # 5 cm grid over 300 cm, four LEDs
    out2 = tmp_path / "table2.csv"
    assert main(["rss-table", SCENARIO_PATH, "--height", "0", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_rss_table_bad_height(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["rss-table", SCENARIO_PATH, "--height", "305", "--out", str(out)]) == 1


def test_k_factor_command(capsys):
    code = main(["k-factor", SCENARIO_PATH, "--led", "50,50,300", "--pd", "0,0,0",
                 "--segment-cm", "15"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0


def _run_sweep(tmp_path, name, *extra):
    out_dir = tmp_path / name
    code = main(["sweep", "ber", SCENARIO_PATH, "--snr", "55,65", "--bits", "4000",
                 "--seed", "7", "--out-dir", str(out_dir), *extra])
    assert code == 0
    return out_dir


def test_sweep_ber_deterministic_and_manifested(tmp_path):
    d1 = _run_sweep(tmp_path, "run1")
    d2 = _run_sweep(tmp_path, "run2")
    csv1 = (d1 / "ber_metrics.csv").read_bytes()
    csv2 = (d2 / "ber_metrics.csv").read_bytes()
    assert csv1 == csv2

    manifest = json.load(open(d1 / "manifest.json"))
    assert manifest["seed"] == 7
    assert set(manifest["artifacts"]) == {"ber_metrics.csv", "ber_report.json"}
    # checksums must match the files on disk and reproduce across runs
    import hashlib

    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((d1 / name).read_bytes()).hexdigest()
        assert actual == digest
    manifest2 = json.load(open(d2 / "manifest.json"))
    assert manifest2["artifacts"] == manifest["artifacts"]


def test_sweep_pos2d_with_samples(tmp_path):
    out_dir = tmp_path / "pos"
    code = main(["sweep", "pos2d", SCENARIO_PATH, "--snr", "50", "--trials", "5",
                 "--positions", "0,0;50,50", "--seed", "3", "--save-samples",
                 "--out-dir", str(out_dir)])
    assert code == 0
    lines = (out_dir / "pos2d_metrics.csv").read_text().splitlines()
    assert lines[0] == "sweep_var,value,metric,mean,ci_half_width,trials,seed"
    assert len(lines) == 3  # one record per (snr, position)
    samples = [p for p in os.listdir(out_dir) if p.endswith("_samples.csv")]
    assert len(samples) == 2
    report = json.load(open(out_dir / "pos2d_report.json"))
    assert len(report["records"]) == 2


def test_sweep_pos3d_smoke(tmp_path):
    out_dir = tmp_path / "pos3d"
    code = main(["sweep", "pos3d", SCENARIO_PATH, "--snr", "60", "--trials", "2",
                 "--positions", "100,100,150", "--seed", "1",
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "pos3d_metrics.csv").exists()


def test_sweep_pos3d_grid_mode_smoke(tmp_path):
    out_dir = tmp_path / "grid3d"
    code = main(["sweep", "pos3d", SCENARIO_PATH, "--snr", "60", "--trials", "2",
                 "--positions", "100,100,150", "--seed", "1", "--mode", "grid",
                 "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.load(open(out_dir / "manifest.json"))
    assert sorted(manifest["artifacts"]) == ["pos3d_metrics.csv", "pos3d_report.json"]
    report = json.load(open(out_dir / "pos3d_report.json"))
    assert report["records"][0]["trials"] == 2


def test_sweep_noiseless_rank_deficient_point_exits_0(tmp_path):
    out_dir = tmp_path / "inf"
    code = main(["sweep", "pos2d", SCENARIO_PATH, "--snr", "inf", "--trials", "2",
                 "--positions", "100,100,250", "--out-dir", str(out_dir)])
    assert code == 0
    report = json.load(open(out_dir / "pos2d_report.json"))
    assert report["records"][0]["failures"] == 2
    assert report["records"][0]["mean"] is None


def test_sweep_has_no_threads_option(tmp_path):
    assert main(["sweep", "pos2d", SCENARIO_PATH, "--threads", "2",
                 "--out-dir", str(tmp_path / "t")]) == 2


def test_sweep_abort_leaves_no_artifacts(tmp_path, monkeypatch):
    from vlcjcp import harness

    def fail(records, path, meta=None):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")  # a half-written report
        raise RuntimeError("report writer failed")

    monkeypatch.setattr(harness, "write_json_report", fail)
    out_dir = tmp_path / "abort"
    with pytest.raises(RuntimeError):
        main(["sweep", "pos2d", SCENARIO_PATH, "--snr", "50", "--trials", "2",
              "--positions", "0,0", "--save-samples", "--out-dir", str(out_dir)])
    assert os.listdir(out_dir) == []
