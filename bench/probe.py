"""Set-up probe: a fresh interpreter imports popuc and runs a workload's first operation.

    python3 bench/probe.py <workload> <seed>

run.py times this whole process from the outside.  At the end the probe
prints the reference kernel's time in this process (the shortest of five
tries, well under a millisecond in all), so that run.py can put the
probe's time at reference speed: the probe may run on another core than
run.py, in another spell.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import popuc  # noqa: E402,F401  (importing the package is part of the set-up time)
import workloads  # noqa: E402

op = workloads.build(sys.argv[1], int(sys.argv[2]), count=1)[0]
try:
    op.run()
except Exception:  # a failing operation is counted by the timed run, not here
    pass

from reference import time_reference  # noqa: E402

print(min(time_reference() for _ in range(5)))
