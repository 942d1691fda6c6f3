"""Golden corpus: one sha256 per (case, output) of the `sdnlb cluster`
document and of the REST bodies, beyond the nine-server paper topology.

Cases are the paper topology, `random_connected_topology(seed,
unit_delays=True)` for seeds 0-19 (unit delays give many equal (hops, delay)
paths, where tie-breaks decide the output), `layered_topology` at four
shapes (every switch below level 2 has many equal paths, and every simulator
state runs), and one switch with one server or with none, which the pipeline
refuses. For each method and k = 1..5 the corpus pins the `sdnlb cluster`
output and, on a fresh in-process `LoadBalancerService`, the bodies of GET
/clusters, GET /pools, POST /requests (`auto`, then cluster index 0) and GET
/stats. For k-means at k = 1..5 it also pins the simulator: `report_csv` for
a 30-request burst at the first member of pool 0, for `BigClusterRR(30)` and
for `ClusteredRR(10)`, and `compare_reports(...).to_csv()` over the three. A
call that raises pins its error instead.

List every changed, missing and extra key (exit 1 if there is one), and
beside them the environment the pins were written in and the running one:

    python tests/golden.py --check

Regenerate tests/golden.json after a deliberate output change; it also
records numpy's version and its BLAS and LAPACK, which the spectral digests
rest on, under the key ENVIRONMENT:

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
SEEDS = range(20)
LAYERED_SHAPES = ((3, 2, 1), (4, 3, 2), (5, 4, 1), (6, 3, 2))  # (levels, width, servers per switch)
KS = range(1, 6)
# key -> why it is not pinned
EXCLUDED = {
    "paper/spectral/k5": "the partition moves under a rotation inside a tied eigen-group, "
    "so it depends on the eigenvector basis the eigensolver returns",
}
SIMULATOR_OUTPUTS = ("single-server", "big-cluster", "clustered", "compare")
ENVIRONMENT = "environment"  # the one key of golden.json that is not a digest


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
    return [
        "paper",
        *(f"random-{seed}" for seed in SEEDS),
        *("layered-" + "-".join(map(str, shape)) for shape in LAYERED_SHAPES),
        "one-switch",
        "no-server",
    ]


def _topology(case: str):
    from helpers import layered_topology, random_connected_topology
    from sdnlb.topology import build_paper_topology, load_topology

    if case == "paper":
        return build_paper_topology()
    if case == "one-switch":
        return load_topology(ONE_SWITCH)
    if case == "no-server":
        return load_topology({**ONE_SWITCH, "nodes": ONE_SWITCH["nodes"][:2], "links": ONE_SWITCH["links"][:1]})
    if case.startswith("layered-"):
        return layered_topology(*map(int, case.split("-")[1:]))
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


def _simulator_outputs(topology, k: int) -> dict[str, bytes]:
    from sdnlb.allocator import build_plan
    from sdnlb.simulator import (
        BigClusterRR, ClusteredRR, Scenario, SingleServerBurst, compare_reports, report_csv, run_experiment,
    )

    try:
        pools = build_plan(topology, k, "kmeans", 0).pools()
        states = [SingleServerBurst(pools.pools[0].members[0], 30), BigClusterRR(30), ClusteredRR(10)]
        reports = [run_experiment(Scenario(topology, pools, state)) for state in states]
    except ValueError as exc:  # the plan or a run refuses the case: every output pins why
        return dict.fromkeys(SIMULATOR_OUTPUTS, f"error: {exc}".encode())
    found = {report.label: report_csv(report).encode() for report in reports}
    found["compare"] = compare_reports(reports).to_csv().encode()
    return found


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
    for k in KS:
        for name, body in _simulator_outputs(topology, k).items():
            found[f"{case}/kmeans/k{k}/{name}"] = body
    return found


def digests(case: str) -> dict[str, str]:
    return {key: hashlib.sha256(data).hexdigest() for key, data in outputs(case).items()}


def differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """One line per changed, missing or extra key, in key order."""
    lines = [f"changed {key}" for key in sorted(got.keys() & want.keys()) if got[key] != want[key]]
    lines += [f"missing {key}" for key in sorted(want.keys() - got.keys())]
    lines += [f"extra {key}" for key in sorted(got.keys() - want.keys())]
    return lines


def check(got: dict[str, str], recorded: dict) -> list[str]:
    """differences() against the digests of golden.json's contents and, if
    there is one, the environment the pins were written in and this one."""
    want = {key: digest for key, digest in recorded.items() if key != ENVIRONMENT}
    lines = differences(got, want)
    if lines:
        pinned_in = json.dumps(recorded.get(ENVIRONMENT, "not recorded"), sort_keys=True)
        lines += [f"pinned in: {pinned_in}", f"running:   {json.dumps(environment(), sort_keys=True)}"]
    return lines


def environment() -> dict[str, str]:
    """numpy's version and the name and version of its BLAS and LAPACK; the
    version alone on a numpy without show_config(mode="dicts") (before 1.26)."""
    import numpy

    found = {"numpy": numpy.__version__}
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return found
    for library in ("blas", "lapack"):
        found[library] = f"{build[library]['name']} {build[library]['version']}"
    return found


def main(argv: list[str]) -> int:
    if argv not in (["--write"], ["--check"]):
        print("usage: python tests/golden.py --check | --write", file=sys.stderr)
        return 2
    pins = {}
    for case in case_names():
        pins.update(digests(case))
    if argv == ["--check"]:
        lines = check(pins, json.loads(GOLDEN.read_text()))
        print("\n".join(lines) if lines else f"all {len(pins)} digests match {GOLDEN.name}")
        return 1 if lines else 0
    pins[ENVIRONMENT] = environment()
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins) - 1} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    sys.exit(main(sys.argv[1:]))
