"""Time one cold set-up in a fresh process: import neqcasimir, then load
and parse a scenario file with its materials and equilibrium table.

Usage: python3 perfbench/setup_probe.py SCENARIO_JSON
Prints the seconds taken.
"""

import sys
import time

import host  # pins threads before NumPy loads

if __name__ == "__main__":
    t0 = time.perf_counter()
    nq = host.import_package()
    nq.scenario.load_scenario(sys.argv[1])
    print(repr(time.perf_counter() - t0))
