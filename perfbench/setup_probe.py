"""Time the program's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <repo root> <config.json>

Set-up is importing heatinfer (numpy included), parsing the config and
synthesizing the observation. The clock starts before any import; the
BLAS thread settings come from the parent's environment.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

from heatinfer import harness  # noqa: E402

harness.synthesize(harness.load_config(sys.argv[2]))
print(repr(time.perf_counter() - START))
