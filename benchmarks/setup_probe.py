"""Time the program's set-up for one workload inside a fresh interpreter.

    python3 setup_probe.py <src dir> plan
    python3 setup_probe.py <src dir> simulate <topology document>

Prints the seconds from before ``import sdnlb`` to the end of set-up. Reading
the benchmark's own input document happens before the clock starts.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import workloads

src, workload = sys.argv[1], sys.argv[2]
document = json.loads(Path(sys.argv[3]).read_text()) if workload == "simulate" else None
sys.path.insert(0, src)

start = perf_counter()
import sdnlb  # noqa: E402
import sdnlb.cli  # noqa: E402

if document is not None:
    workloads.build_pools(sdnlb, document)
print(perf_counter() - start)
