"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing relpose and building and validating the workload's
config as its operations load it. Prints the seconds taken. `run.py`
starts this script a few times and reports the median as `setup_s`.

    python3 relbench/setup_probe.py WORKLOAD SEED WORK_DIR
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import relpose.runner  # noqa: E402,F401
import workloads  # noqa: E402

name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.setup(workloads.WORKLOADS[name], seed, work)
print(repr(time.perf_counter() - T0))
