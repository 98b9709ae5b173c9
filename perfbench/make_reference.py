"""Record every workload's first-pass records at the default seed.

    python3 perfbench/make_reference.py

Writes `reference_records.json` beside this file.  `run.py` compares the
records of a run with the default seed against it and reports the largest
relative difference as `records_max_rel_dev`, so a change meant only for
speed can show that its results match the commit the reference came from.
Re-record only when a change is meant to alter results, and say so.
"""
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    records = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, run.DEFAULT_SEED)
        records[name] = [row for call in workload.calls
                         for row in workloads.record_values(call.run())]
        print(f"{name}: {len(records[name])} records", file=sys.stderr)
    run.REFERENCE_FILE.write_text(dumps(run.DEFAULT_SEED, records), encoding="utf-8")
    return 0


def dumps(seed: int, records: dict) -> str:
    """The reference document, one record per line."""
    workloads_json = ",\n".join(
        f'  "{name}": [\n' + ",\n".join(f"   {json.dumps(row)}" for row in rows) + "\n  ]"
        for name, rows in records.items())
    return (f'{{\n "seed": {seed},\n'
            f' "fields": ["value", "ci_half_width", "trials", "failures"],\n'
            f' "workloads": {{\n{workloads_json}\n }}\n}}\n')


if __name__ == "__main__":
    sys.exit(main())
