"""Set-up time of one fresh interpreter: `import secsm` plus parse_config
of a configuration document. Prints the seconds. Run by run.py:

    python3 perfbench/setup_probe.py CONFIG
"""

import time

_started = time.perf_counter()

import sys  # noqa: E402

import secsm  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    secsm.parse_config(fh.read())
print(repr(time.perf_counter() - _started))
