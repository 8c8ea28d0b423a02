"""One set-up sample in a fresh interpreter: import hpmsim, then build the
workload's RunConfig, as a command-line user pays on every call.

    python3 bench/probe.py <workload> <seed>

Prints {"import_s": ..., "instance_s": ...} as one JSON line.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hpmsim  # noqa: E402,F401

T1 = time.perf_counter()

from workloads import build_config  # noqa: E402

build_config(sys.argv[1], int(sys.argv[2]))
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "instance_s": T2 - T1}))
