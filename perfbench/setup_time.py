"""Set-up time of a fresh interpreter: `import haargenus` and its Weingarten tables.

    setup_time.py [--cli] SIZE ...

Started by `run.py` with the library's `src` on `PYTHONPATH`.  Nothing beyond
`sys` and `time` is imported before the clock starts, so every module the
library pulls in counts toward the figure.  `--cli` also imports
`haargenus.cli`; each SIZE builds the Weingarten table of that size.  The
host-speed calibration runs after the clock stops.  Prints one JSON object.
"""

import sys
import time

args = sys.argv[1:]
sizes = [int(a) for a in args if a != "--cli"]

t0 = time.perf_counter()
import haargenus  # noqa: E402,F401
from haargenus.weingarten import weingarten_table  # noqa: E402

if "--cli" in args:
    import haargenus.cli  # noqa: F401
for size in sizes:
    weingarten_table(size)
seconds = time.perf_counter() - t0

import json  # noqa: E402
import statistics  # noqa: E402

from calibrate import REFERENCE_S, reference_seconds  # noqa: E402

ref = statistics.median(reference_seconds() for _ in range(6))
print(json.dumps({"setup_s": seconds, "nominal_s": seconds * REFERENCE_S / ref}))
