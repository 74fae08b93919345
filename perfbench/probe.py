"""Set-up probe: a fresh process imports lpaideals and builds one workload's input objects.

    python3 perfbench/probe.py WORKLOAD INPUTS_JSON

Prints the seconds from before the import to after the build, then the
host-speed kernel's mean time just before and just after them (see
speed.py).  Reading the generated inputs is done before the clock starts;
input generation is not set-up.
"""

import json
import pathlib
import sys
import time

name, path = sys.argv[1:3]
with open(path, encoding="utf-8") as fh:
    inputs = json.load(fh)
here = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]
import speed  # noqa: E402  (the benchmark's own; it imports nothing of lpaideals)

speed.sample()  # warms the kernel's code up, as in the long-lived run
before = speed.sample()
start = time.perf_counter()
import workloads  # noqa: E402  (imports lpaideals, inside the timed span)

workloads.WORKLOADS[name].build(inputs)
elapsed = time.perf_counter() - start
print(elapsed, (before + speed.sample()) / 2)
