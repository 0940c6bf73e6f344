"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is importing multiarm (and numpy), generating the workload's scenario
dicts or reading the fixture files, and loading them into scenarios.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()

import workloads  # noqa: E402

workloads.load(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
