"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

Imports proxlmc, resolves the workload's config and assembles its experiment
(data generation included), then prints "ready" and exits.  run.py times it
from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import proxlmc  # noqa: E402,F401  (the import a user pays for)
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup()
    print("ready", flush=True)
