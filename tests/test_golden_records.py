"""Results guard: seed-0 sweep records must match golden/records.json.

Every case's inputs are replayed through `scripts/make_golden_records.py`'s
`run_case`; value, CI half-width, trials, failures and samples must agree to
1e-9 relative, with NaN (written as null) equal to NaN.
"""
import importlib.util
import json
import math
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location(
    "make_golden_records", os.path.join(ROOT, "scripts", "make_golden_records.py"))
SCRIPT = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(SCRIPT)

with open(os.path.join(ROOT, "golden", "records.json"), "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)["cases"]


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_records_match_golden(case):
    records = SCRIPT.run_case(case)
    assert len(records) == len(case["records"])
    for got, want in zip(records, case["records"]):
        assert (got["trials"], got["failures"]) == (want["trials"], want["failures"])
        assert _same(got["value"], want["value"]), (got["value"], want["value"])
        assert _same(got["ci_half_width"], want["ci_half_width"])
        if want["samples"] is None:
            assert got["samples"] is None
        else:
            assert len(got["samples"]) == len(want["samples"])
            assert all(_same(g, w) for g, w in zip(got["samples"], want["samples"]))
