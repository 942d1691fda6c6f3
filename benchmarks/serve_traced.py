"""Run ``sdnlb serve`` with the benchmark's span wrappers installed.

    python3 -u serve_traced.py <trace file> serve --host 127.0.0.1 --port 0

On SIGTERM or SIGINT the service stops and the spans recorded inside it are
written to the trace file.
"""

import signal
import sys
from pathlib import Path

from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


signal.signal(signal.SIGTERM, _interrupt)
signal.signal(signal.SIGINT, _interrupt)
tracer = Tracer()
tracer.install()
import sdnlb.cli  # noqa: E402

try:
    status = sdnlb.cli.main(sys.argv[2:])
finally:
    tracer.dump(Path(sys.argv[1]))
sys.exit(status)
