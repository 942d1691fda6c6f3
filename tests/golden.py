"""Golden corpus: one sha256 per (case, output) of the `sdnlb cluster`
document and of the REST bodies, beyond the nine-server paper topology.

Cases are the paper topology, `random_connected_topology(seed,
unit_delays=True)` for seeds 0-9 (unit delays give many equal (hops, delay)
paths, where tie-breaks decide the output), and one switch with one server
or with none, which the pipeline refuses. For each method and k = 1..5 the
corpus pins the `sdnlb cluster` output and, on a fresh in-process
`LoadBalancerService`, the bodies of GET /clusters, GET /pools, POST
/requests (`auto`, then cluster index 0) and GET /stats. A call that raises
pins its error instead.

Regenerate tests/golden.json after a deliberate output change:

    python tests/golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SEEDS = range(10)
KS = range(1, 6)
# the spectral partition of the paper topology at k = 5 depends on the
# eigenvector basis the eigensolver returns (ROADMAP item 3)
EXCLUDED = ("paper/spectral/k5",)


ONE_SWITCH = {
    "nodes": [
        {"id": "s1", "kind": "switch"},
        {"id": "u1", "kind": "user_host"},
        {"id": "v1", "kind": "server_host"},
    ],
    "links": [
        {"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
        {"a": "v1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
    ],
    "user_switch": "s1",
}


def case_names() -> list[str]:
    return ["paper", *(f"random-{seed}" for seed in SEEDS), "one-switch", "no-server"]


def _topology(case: str):
    from helpers import random_connected_topology
    from sdnlb.topology import build_paper_topology, load_topology

    if case == "paper":
        return build_paper_topology()
    if case == "one-switch":
        return load_topology(ONE_SWITCH)
    if case == "no-server":
        return load_topology({**ONE_SWITCH, "nodes": ONE_SWITCH["nodes"][:2], "links": ONE_SWITCH["links"][:1]})
    return random_connected_topology(int(case.removeprefix("random-")), unit_delays=True)


def _cli_output(argv: list[str]) -> bytes:
    from sdnlb.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return out.getvalue().encode() if status == 0 else f"exit {status}: {err.getvalue()}".encode()


def _service_bodies(document: dict, k: int, method: str) -> dict[str, bytes]:
    from sdnlb.service import LoadBalancerService, ServiceError

    service = LoadBalancerService()
    service.put_topology(document)
    calls = {
        "clusters": lambda: service.get_clusters(k=k, method=method, seed=0),
        "pools": service.get_pools,
        "requests-auto": lambda: service.post_requests("auto", 10),
        "requests-0": lambda: service.post_requests(0, 7),
        "stats": service.get_stats,
    }
    bodies = {}
    for name, call in calls.items():
        try:
            body = call()
        except ServiceError as exc:
            body = {"status": exc.status, **exc.body()}
        bodies[name] = json.dumps(body).encode()
    return bodies


def outputs(case: str) -> dict[str, bytes]:
    """Every pinned output of one case, by key."""
    from sdnlb.clustering import METHODS

    topology = _topology(case)
    document = topology.document()
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "topology.json"
        path.write_text(json.dumps(document))
        source = [] if case == "paper" else ["--topology", str(path)]
        for method in METHODS:
            for k in KS:
                prefix = f"{case}/{method}/k{k}"
                if prefix in EXCLUDED:
                    continue
                found[f"{prefix}/cluster"] = _cli_output(["cluster", *source, "--k", str(k), "--method", method])
                for name, body in _service_bodies(document, k, method).items():
                    found[f"{prefix}/{name}"] = body
    return found


def digests(case: str) -> dict[str, str]:
    return {key: hashlib.sha256(data).hexdigest() for key, data in outputs(case).items()}


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    pins = {}
    for case in case_names():
        pins.update(digests(case))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    sys.exit(main(sys.argv[1:]))
