"""Command-line front end.

Subcommands:
    cluster      cluster a topology's servers and print / write the model
    table1       capacity and load sweep over k, as CSV
    experiment   run one workload state and write the report CSV
    serve        run the REST service
    paper-repro  regenerate all reference results into an output directory
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import service as service_mod
from .allocator import build_plan, table1, truncate_fraction
from .clustering import METHODS
from .simulator import (
    BigClusterRR,
    ClusteredRR,
    Scenario,
    SingleServerBurst,
    compare_reports,
    report_csv,
    run_experiment,
)
from .topology import (
    Topology,
    all_pairs_shortest_paths,  # noqa: F401 - importable as sdnlb.cli.all_pairs_shortest_paths
    build_paper_topology,
    load_topology,
)


def _load(topology_path: str | None) -> Topology:
    if topology_path is None:
        return build_paper_topology()
    # bytes, as PUT /topology reads them: json detects the encoding, so the
    # locale's encoding plays no part
    raw = Path(topology_path).read_bytes()
    try:
        document = json.loads(raw)
    except RecursionError:
        raise ValueError(f"{topology_path}: the JSON document nests too deeply") from None
    except ValueError as exc:  # bad syntax, or bytes that are not UTF-8
        raise ValueError(f"{topology_path}: {exc}") from None
    return load_topology(document)


def _write(stream, text: str) -> None:
    # UTF-8 whatever the locale, as _load reads, and an id that is a lone
    # surrogate (it has no UTF-8 form) as its escape; a stream with no bytes
    # under it (io.StringIO under a redirect) takes the text
    if hasattr(stream, "buffer"):
        stream.flush()
        stream.buffer.write(text.encode(errors="backslashreplace"))
        stream.buffer.flush()
    else:
        stream.write(text)


def _emit(text: str, out: str | None) -> None:
    if out is not None:  # the bytes _write would print
        Path(out).write_text(text, encoding="utf-8", errors="backslashreplace")
    else:
        _write(sys.stdout, text)


_string, _int = json.encoder.encode_basestring_ascii, int.__repr__


def _cluster_json(document: dict) -> str:
    """`json.dumps(document, indent=2)` byte for byte for `Plan.document`'s one
    shape (at least one server): its leaf encoders, without its Python walk."""
    servers = ",\n".join(
        f'    {{\n      "server_id": {_string(s["server_id"])},\n      "cluster": {_int(s["cluster"])}\n    }}'
        for s in document["servers"]
    )
    centroids = ",\n".join(
        f'    {{\n      "cluster": {_int(c["cluster"])},\n      "mean_hops": {json.dumps(c["mean_hops"])},\n'
        f'      "mean_delay_ms": {json.dumps(c["mean_delay_ms"])},\n      "size": {_int(c["size"])}\n    }}'
        for c in document["centroids"]
    )
    order = ",\n    ".join(map(_int, document["priority_order"]))
    return (
        f'{{\n  "method": {_string(document["method"])},\n  "seed": {_int(document["seed"])},\n'
        f'  "k": {_int(document["k"])},\n  "servers": [\n{servers}\n  ],\n  "centroids": [\n{centroids}\n  ],\n'
        f'  "priority_order": [\n    {order}\n  ],\n  "sse": {json.dumps(document["sse"])}\n}}'
    )


def cmd_cluster(args) -> int:
    plan = build_plan(_load(args.topology), args.k, args.method, args.seed)
    _emit(_cluster_json(plan.document) + "\n", args.out)
    return 0


def _table1_csv(rows) -> str:
    lines = [
        "k," + ",".join(str(r.k) for r in rows),
        "avg_servers_per_cluster," + ",".join(f"{float(r.avg_servers_per_cluster):.4f}" for r in rows),
        "capacity_added_pct," + ",".join(f"{r.capacity_multiplier_pct}%" for r in rows),
        "avg_load_largest_cluster," + ",".join(f"{float(r.avg_load_largest_cluster):.4f}" for r in rows),
    ]
    return "\n".join(lines) + "\n"


def cmd_table1(args) -> int:
    topology = _load(args.topology)
    _emit(_table1_csv(table1(len(topology.features), args.requests)), args.out)
    return 0


def _scenario(topology, args):
    pools = build_plan(topology, args.k, args.method, args.seed).pools()
    if args.state == "single-server":
        if not args.target:
            raise ValueError("--state single-server requires --target <server-id>")
        state = SingleServerBurst(args.target, args.requests)
    elif args.state == "big-cluster":
        state = BigClusterRR(args.requests)
    else:
        state = ClusteredRR(args.requests_per_cluster)
    return Scenario(topology=topology, pools=pools, state=state, duration_s=args.duration)


def cmd_experiment(args) -> int:
    topology = _load(args.topology)
    report = run_experiment(_scenario(topology, args))
    _emit(report_csv(report), args.out)
    return 0


def cmd_serve(args) -> int:
    service_mod.serve(args.host, args.port)
    return 0


def _clusters_csv(plans: dict) -> str:
    lines = ["method,cluster,mean_hops,mean_delay_ms,size,members"]
    for method, plan in plans.items():
        for pool in plan.pools().pools:
            hops, delay = pool.centroid
            members = ";".join(pool.members)
            lines.append(f"{method},{pool.cluster_index},{hops:.4f},{delay:.4f},{len(pool.members)},{members}")
    return "\n".join(lines) + "\n"


def cmd_paper_repro(args) -> int:
    """Rebuild every reference result; exit nonzero if any check fails."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    topology = build_paper_topology()
    failures: list[str] = []
    requests = 30  # the request count of the paper's printed rows

    def check(name: str, ok: bool) -> None:
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    # clustering (both methods, k = 3)
    plans = {method: build_plan(topology, 3, method, 0) for method in METHODS}
    (out_dir / "clusters.csv").write_text(_clusters_csv(plans))

    centroids = plans["kmeans"].model.centroids  # numbered nearest first
    check("kmeans centroid hops are 1,2,3", [c[0] for c in centroids] == [1.0, 2.0, 3.0])
    check(
        "kmeans centroid delays are 12,22,30.33 (±0.01)",
        all(abs(c[1] - want) <= 0.01 for c, want in zip(centroids, (12.0, 22.0, 30.33))),
    )
    pools = plans["kmeans"].pools()
    check(
        "kmeans clusters follow topology levels",
        all(len({topology.node_map[s].level for s in pool.members}) == 1 for pool in pools.pools),
    )

    # k sweep
    rows = table1(topology.n_servers, requests)
    (out_dir / "table1.csv").write_text(_table1_csv(rows))
    printed = ["3.33", "1.875", "1.428", "1.25", "1.2", "1.25", "1.428", "1.875", "3.33"]
    got = [
        truncate_fraction(r.avg_load_largest_cluster, len(p.partition(".")[2])) for r, p in zip(rows, printed)
    ]
    check("load sweep matches the printed reference row", got == printed)

    # workload states
    scenarios = [
        Scenario(topology, pools, SingleServerBurst("h3", requests)),
        Scenario(topology, pools, BigClusterRR(requests)),
        Scenario(topology, pools, ClusteredRR(requests // 3)),
    ]
    reports = [run_experiment(s) for s in scenarios]

    burst, big, clustered = reports
    check(
        "single-server burst lands on the target only",
        burst.per_server_requests["h3"] == requests
        and sum(burst.per_server_requests.values()) == requests,
    )
    big_counts = sorted(big.per_server_requests.values(), reverse=True)
    check("big-cluster round robin is balanced", big_counts == [4, 4, 4, 3, 3, 3, 3, 3, 3])
    per_cluster = {}
    for server, count in clustered.per_server_requests.items():
        per_cluster.setdefault(clustered.server_cluster[server], []).append(count)
    check(
        "clustered round robin balances inside clusters",
        all(max(v) - min(v) <= 1 for v in per_cluster.values()),
    )

    comparison = compare_reports(reports)
    clustered_bytes = comparison.bytes_by_cluster("clustered")
    check(
        "nearest cluster moves at least as many bytes as farther ones",
        clustered_bytes[0] >= clustered_bytes[1] - 1e-9 and clustered_bytes[1] >= clustered_bytes[2] - 1e-9,
    )

    lines = ["state,entity,kind,requests,bytes_mb,bandwidth_mbps,cluster"]
    for report in reports:
        body = report_csv(report).splitlines()[1:]
        lines.extend(f"{report.label},{row}" for row in body)
    (out_dir / "experiments.csv").write_text("\n".join(lines) + "\n")

    print(f"wrote {out_dir / 'table1.csv'}, {out_dir / 'clusters.csv'}, {out_dir / 'experiments.csv'}")
    return 1 if failures else 0


def _integer(text: str) -> int:
    """An integer option, in the grammar GET /clusters reads k and seed by."""
    try:
        return service_mod.parse_integer(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _port(text: str) -> int:
    try:
        port = service_mod.parse_integer(text, "port")
    except ValueError:  # not -?[0-9]+, or past int's digit limit
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be an integer within 0-65535, got {text!r}")
    return port


@functools.cache  # one parser per process: the options never change
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdnlb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", help="topology document (JSON); defaults to the bundled 4-level topology")
        p.add_argument("--k", type=_integer, default=3)
        p.add_argument("--method", choices=METHODS, default="kmeans")
        p.add_argument("--seed", type=_integer, default=0)
        p.add_argument("--out", help="output file (default: stdout)")

    p_cluster = sub.add_parser("cluster", help="cluster servers and emit the model")
    common(p_cluster)
    p_cluster.set_defaults(fn=cmd_cluster)

    p_table = sub.add_parser("table1", help="capacity/load sweep over k")
    p_table.add_argument("--topology")
    p_table.add_argument("--requests", type=_integer, default=30)
    p_table.add_argument("--out")
    p_table.set_defaults(fn=cmd_table1)

    p_exp = sub.add_parser("experiment", help="run one workload state")
    common(p_exp)
    p_exp.add_argument("--state", choices=("single-server", "big-cluster", "clustered"), required=True)
    p_exp.add_argument("--target", help="server id for --state single-server")
    p_exp.add_argument("--requests", type=_integer, default=30)
    p_exp.add_argument("--requests-per-cluster", type=_integer, default=10)
    p_exp.add_argument("--duration", type=float, default=10.0)
    p_exp.set_defaults(fn=cmd_experiment)

    p_serve = sub.add_parser("serve", help="run the REST service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=_port, default=8080)
    p_serve.set_defaults(fn=cmd_serve)

    p_repro = sub.add_parser("paper-repro", help="regenerate all reference results")
    p_repro.add_argument("--out", default="paper-repro")
    p_repro.set_defaults(fn=cmd_paper_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
