"""Set-up as a user pays it: a fresh interpreter imports gaugecut and builds
one workload's Problems.  ``run.py`` times this script from outside.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    WORKLOADS[name](seed, seconds)
