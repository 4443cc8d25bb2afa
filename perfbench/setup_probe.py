"""Print one workload's set-up time, measured in this fresh interpreter,
and the speed scale of the calibration samples around it.

    python3 perfbench/setup_probe.py <workload>
"""

import sys

from workloads import WORKLOADS, scaled_setup

if __name__ == "__main__":
    _, _, seconds, scale = scaled_setup(WORKLOADS[sys.argv[1]])
    print(repr(seconds), repr(scale))
