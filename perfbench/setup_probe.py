"""Print the set-up seconds of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing `vlcjcp` (with NumPy), loading and validating the
scenario, and building the workload's sweep specs.  `run.py` starts this
script once after each call of a run's first pass and reports the scaled
median as `setup_s`.
"""
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
