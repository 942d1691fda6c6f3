"""The service workload's reference: a fixed HTTP service on the stdlib
stack the program's service uses, with none of the program's code.

    python3 -u echo_server.py serve --host 127.0.0.1 --port 0

Prints its address the way ``sdnlb serve`` does and runs until terminated. Every
GET does work of the kinds a service cycle does: it serialises and hashes a
fixed topology-sized document and answers with a fixed JSON document. Never
change it: the scale of the service workload's timing metrics depends on it.
"""

import argparse
import hashlib
import json
import random
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_rng = random.Random(20190927)
TOPOLOGY = {
    "links": [
        {"a": f"s{i}", "b": f"s{j}", "delay_ms": 5.0 + _rng.random(), "capacity_mbps": 1000.0}
        for i in range(1, 11) for j in range(11, 31)
    ]
}
SERVERS = [{"server_id": f"h{i}", "cluster": i % 3} for i in range(2, 102)]


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self):
        digest = hashlib.sha256(json.dumps(TOPOLOGY, sort_keys=True).encode()).hexdigest()
        payload = json.dumps({"digest": digest, "servers": SERVERS}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=["serve"])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    server = ThreadingHTTPServer((args.host, args.port), _Handler)
    print(f"echo service listening on http://{args.host}:{server.server_address[1]}")
    server.serve_forever()


if __name__ == "__main__":
    main()
