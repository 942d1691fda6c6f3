"""Every function and method the benchmark tracer (benchmarks/tracing.py)
wraps still exists under its name: a rename would otherwise read as a
per-layer metric of zero, not as a failure. The one exception is
Topology.fingerprint, retired with the content hash it computed (reports
carry their Topology, and equal topologies compare equal): its metrics read
0 until the benchmark drops them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_target_is_present():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]))
    code = "import json, tracing; t = tracing.Tracer(); t.install(); print(json.dumps(t.absent))"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["sdnlb.topology:Topology.fingerprint"]
