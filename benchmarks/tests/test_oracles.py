"""The benchmark's own oracles and checks.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests

They reproduce known values, and each check rejects a corrupted output.
"""

import copy
import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import sdnlb
from inputs import SHAPE_M, SHAPE_PLAN, layered
from oracles import CheckFailed, Network
from tracing import Tracer, aggregate
from workloads import K, REQUESTS_PER_CYCLE, Service, Simulate

ROOT = Path(__file__).resolve().parents[2]


def _cluster_doc(topology, method):
    features = sdnlb.server_features(topology, sdnlb.all_pairs_shortest_paths(topology))
    config = sdnlb.ClusteringConfig(k=K)
    if method == "kmeans":
        model = sdnlb.kmeans_cluster(features, config)
    else:
        model = sdnlb.spectral_cluster(topology, config)
    return sdnlb.cluster_model_document(model, features)


def _swap_two_servers(document):
    bad = copy.deepcopy(document)
    servers = bad["servers"]
    i = next(n for n, s in enumerate(servers) if s["cluster"] == 0)
    j = next(n for n, s in enumerate(servers) if s["cluster"] == 1)
    servers[i]["cluster"], servers[j]["cluster"] = servers[j]["cluster"], servers[i]["cluster"]
    return bad


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("shape, counts", [(SHAPE_M, (51, 250, 661)), (SHAPE_PLAN, (37, 180, 367))])
def test_layered_shapes_and_eigengap(shape, counts):
    topology = sdnlb.load_topology(layered(*shape, random.Random(0)))
    assert (len(topology.switch_ids), topology.n_servers, len(topology.links)) == counts
    adjacency = topology.switch_adjacency()
    inv_sqrt = 1.0 / np.sqrt(adjacency.sum(axis=1))
    laplacian = np.eye(len(adjacency)) - inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
    eig = np.linalg.eigvalsh(laplacian)
    # lambda_1..lambda_3 are simple and lambda_3 sits well below lambda_4 = 1
    assert eig[1] - eig[0] > 0.1 and eig[2] - eig[1] > 0.1 and eig[3] - eig[2] > 0.1
    assert abs(eig[3] - 1.0) < 1e-9


def test_documents_differ_by_seed_and_repeat_for_a_seed():
    assert layered(*SHAPE_PLAN, random.Random(1)) == layered(*SHAPE_PLAN, random.Random(1))
    assert layered(*SHAPE_PLAN, random.Random(1)) != layered(*SHAPE_PLAN, random.Random(2))


def test_oracle_paths_are_the_programs_unique_paths():
    document = layered(*SHAPE_M, random.Random(3))
    net = Network(document)
    topology = sdnlb.load_topology(document)
    paths = sdnlb.all_pairs_shortest_paths(topology)
    for switch in topology.switch_ids:
        assert net.path[switch] == paths.path("s1", switch)
        assert net.hops[switch] == paths.hops_between("s1", switch)
        assert net.delay[switch] == pytest.approx(paths.delay_between("s1", switch), rel=1e-12)


# -- clustering -------------------------------------------------------------


def test_paper_topology_known_values():
    topology = sdnlb.build_paper_topology()
    net = Network(topology.document())
    by_level = {}
    for server in net.servers:
        by_level.setdefault(net.levels[net.server_switch[server]], []).append(net.feature(server))
    means = [tuple(float(x) for x in np.mean(points, axis=0)) for _, points in sorted(by_level.items())]
    assert [m[0] for m in means] == [1.0, 2.0, 3.0]
    assert means[0][1] == pytest.approx(12.0) and means[1][1] == pytest.approx(22.0)
    assert means[2][1] == pytest.approx(30.33)
    document = _cluster_doc(topology, "kmeans")
    oracles.check_kmeans(document, net, K)
    assert [(c["mean_hops"], round(c["mean_delay_ms"], 2)) for c in document["centroids"]] == [
        (1.0, 12.0), (2.0, 22.0), (3.0, 30.33)
    ]


@pytest.mark.parametrize("method, check", [("kmeans", oracles.check_kmeans), ("spectral", oracles.check_spectral)])
def test_cluster_checks_accept_the_program_and_reject_swapped_servers(method, check):
    document = layered(*SHAPE_PLAN, random.Random(5))
    net = Network(document)
    good = _cluster_doc(sdnlb.load_topology(document), method)
    check(good, net, K)
    with pytest.raises(CheckFailed):
        check(_swap_two_servers(good), net, K)
    shifted = copy.deepcopy(good)
    shifted["centroids"][1]["mean_delay_ms"] += 0.01
    with pytest.raises(CheckFailed):
        check(shifted, net, K)
    renumbered = copy.deepcopy(good)
    for s in renumbered["servers"]:
        s["cluster"] = {0: 1, 1: 0}.get(s["cluster"], s["cluster"])
    c = renumbered["centroids"]
    c[0], c[1] = dict(c[1], cluster=0), dict(c[0], cluster=1)
    with pytest.raises(CheckFailed):
        check(renumbered, net, K)


def _doc_from_levels(net, level_cluster):
    """A cluster document grouping whole levels, with member-mean centroids
    numbered in ascending (hops, delay) order."""
    groups = {}
    for server in net.servers:
        groups.setdefault(level_cluster[net.levels[net.server_switch[server]]], []).append(server)
    means = {g: tuple(np.mean([net.feature(s) for s in members], axis=0)) for g, members in groups.items()}
    order = sorted(groups, key=means.get)
    return {
        "k": len(groups),
        "servers": [{"server_id": s, "cluster": order.index(g)} for g, m in groups.items() for s in m],
        "centroids": [
            {"cluster": c, "mean_hops": float(means[g][0]), "mean_delay_ms": float(means[g][1]), "size": len(groups[g])}
            for c, g in enumerate(order)
        ],
        "priority_order": list(range(len(groups))),
    }


def test_spectral_check_rejects_another_whole_level_partition():
    net = Network(layered(*SHAPE_PLAN, random.Random(8)))
    oracles.check_spectral(_doc_from_levels(net, {2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2}), net, K)
    with pytest.raises(CheckFailed, match="not the spectral partition"):
        oracles.check_spectral(_doc_from_levels(net, {2: 0, 5: 0, 3: 1, 6: 1, 4: 2, 7: 2}), net, K)


def test_lloyd_fixed_point_check_rejects_a_non_fixed_point():
    # one level-3 server moved into the level-2 cluster, centroids recomputed:
    # the centroids are member means but the server is nearer another centroid
    document = layered(*SHAPE_PLAN, random.Random(6))
    net = Network(document)
    good = _cluster_doc(sdnlb.load_topology(document), "kmeans")
    bad = copy.deepcopy(good)
    moved = next(s for s in bad["servers"] if s["cluster"] == 1)
    moved["cluster"] = 0
    for c in bad["centroids"]:
        members = [s["server_id"] for s in bad["servers"] if s["cluster"] == c["cluster"]]
        points = np.array([net.feature(m) for m in members])
        c["mean_hops"], c["mean_delay_ms"] = (float(x) for x in points.mean(axis=0))
        c["size"] = len(members)
    with pytest.raises(CheckFailed, match="nearer to another centroid"):
        oracles.check_kmeans(bad, net, K)


# -- fair share -------------------------------------------------------------


def _chain_document():
    def link(a, b, capacity, delay=1.0):
        return {"a": a, "b": b, "delay_ms": delay, "capacity_mbps": capacity}

    return {
        "nodes": [
            {"id": "s1", "kind": "switch"}, {"id": "s2", "kind": "switch"}, {"id": "s3", "kind": "switch"},
            {"id": "h1", "kind": "user_host"}, {"id": "h2", "kind": "server_host"},
            {"id": "h3", "kind": "server_host"},
        ],
        "links": [
            link("h1", "s1", 100.0, 0.0), link("h2", "s2", 100.0, 0.0), link("h3", "s3", 100.0, 0.0),
            link("s1", "s2", 10.0), link("s2", "s3", 4.0),
        ],
        "user_switch": "s1",
    }


def test_hand_worked_two_link_fair_share():
    # h3's two flows share the 4 Mbps link s2-s3 (2 Mbps each); h2's one
    # flow takes what is left of the 10 Mbps link s1-s2: 10 - 2 * 2 = 6.
    net = Network(_chain_document())
    assert oracles.fair_share(net, {"h2": 1, "h3": 2}, 65536.0) == pytest.approx({"h2": 6.0, "h3": 4.0})
    # a small window caps each flow at window * 8 / rtt: 0.262 Mbps for h2 (rtt
    # 2 ms) and 0.131 Mbps for each of h3's flows (rtt 4 ms)
    capped = oracles.fair_share(net, {"h2": 1, "h3": 2}, 65.536)
    assert capped == pytest.approx({"h2": 0.262144, "h3": 2 * 0.131072})


@pytest.fixture
def simulate(tmp_path):
    bench = Simulate(ROOT, 7, tmp_path)
    bench.setup()
    yield bench
    bench.close()


def test_simulate_check_accepts_the_program(simulate):
    simulate.check(None, simulate.op(None))


@pytest.mark.parametrize("corrupt", ["bandwidth", "bytes", "requests"])
def test_simulate_check_rejects_corrupted_reports(simulate, corrupt):
    reports, comparison = simulate.op(None)
    big = reports[1]
    server = simulate.net.servers[0]
    if corrupt == "bandwidth":
        field = dict(big.per_server_bandwidth_mbps, **{server: big.per_server_bandwidth_mbps[server] * 1.01})
        reports[1] = replace(big, per_server_bandwidth_mbps=field)
    elif corrupt == "bytes":
        field = dict(big.per_server_bytes, **{server: big.per_server_bytes[server] * 1.001})
        reports[1] = replace(big, per_server_bytes=field)
    else:
        other = simulate.net.servers[-1]
        field = dict(big.per_server_requests, **{server: big.per_server_requests[server] + 1,
                                                 other: big.per_server_requests[other] - 1})
        reports[1] = replace(big, per_server_requests=field)
    with pytest.raises(CheckFailed):
        simulate.check(None, (reports, comparison))


# -- service ----------------------------------------------------------------


class _InProcessService(Service):
    """The service's handlers called in process, with the bodies the HTTP
    layer would send."""

    def __init__(self, tmp_path):
        super().__init__(ROOT, 9, tmp_path)
        self.handlers = sdnlb.LoadBalancerService()
        self.handlers.put_topology(self.document)
        self._expect(self._body(self.handlers.get_clusters(k=K)))

    @staticmethod
    def _body(obj):
        return json.dumps(obj).encode()

    def op(self, _):
        h = self.handlers
        return (
            self._body(h.get_clusters(k=K)),
            self._body(h.get_pools()),
            self._body(h.post_requests("auto", REQUESTS_PER_CYCLE)),
            self._body(h.get_stats()),
        )


def test_service_check_follows_several_cycles(tmp_path):
    service = _InProcessService(tmp_path)
    for _ in range(3):
        service.check(None, service.op(None))


@pytest.mark.parametrize("corrupt", ["clusters", "pools", "requests", "stats"])
def test_service_check_rejects_corrupted_bodies(tmp_path, corrupt):
    service = _InProcessService(tmp_path)
    outputs = [json.loads(body) for body in service.op(None)]
    clusters, pools, requests, stats = outputs
    if corrupt == "clusters":
        outputs[0] = _swap_two_servers(clusters)
    elif corrupt == "pools":
        a, b = pools["pools"][0]["members"], pools["pools"][1]["members"]
        a[0], b[0] = b[0], a[0]
    elif corrupt == "requests":
        seq = requests["assignments"]
        seq[0], seq[-1] = seq[-1], seq[0]
    else:
        first = next(iter(stats["counters"]))
        stats["counters"][first] += 1
    with pytest.raises(CheckFailed):
        service.check(None, tuple(json.dumps(o).encode() for o in outputs))


# -- tracing and the metric list --------------------------------------------


def test_self_time_subtracts_direct_children():
    records = [
        {"id": 1, "name": "outer", "start": 0.0, "end": 10.0, "parent": None, "n": None},
        {"id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1, "n": 5},
        {"id": 3, "name": "inner", "start": 5.0, "end": 7.0, "parent": 1, "n": 7},
        {"id": 4, "name": "leaf", "start": 5.5, "end": 6.0, "parent": 3, "n": None},
    ]
    agg = aggregate(records, 0.0, 10.0)
    assert agg["outer"] == {"calls": 1, "total": 10.0, "self": 5.0, "n": 0}
    assert agg["inner"] == {"calls": 2, "total": 5.0, "self": 4.5, "n": 12}


def test_tracer_wraps_names_imported_elsewhere_and_reports_absent_targets():
    tracer = Tracer()
    tracer.install((
        ("probe.paths", "sdnlb.topology", "all_pairs_shortest_paths", None),
        ("probe.gone", "sdnlb.topology", "no_such_function", None),
    ))
    try:
        import sdnlb.cli

        topology = sdnlb.build_paper_topology()
        sdnlb.cli.all_pairs_shortest_paths(topology)
        assert [s[1] for s in tracer.spans] == ["probe.paths"]
        assert tracer.absent == ["sdnlb.topology:no_such_function"]
    finally:
        wrapper = sdnlb.topology.all_pairs_shortest_paths
        for module in (sdnlb, sdnlb.topology, sdnlb.cli, sdnlb.clustering, sdnlb.service, sdnlb.simulator):
            if getattr(module, "all_pairs_shortest_paths", None) is wrapper:
                module.all_pairs_shortest_paths = wrapper.__wrapped__


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(_phase(), 1.0, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])
    layers = run.per_layer({}, 1, {}, 0.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]]["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _phase():
    phase = run.Phase(0.004)
    phase.durations = [0.001 * (i + 1) for i in range(100)]
    phase.refs = [0.004] * 100
    return phase
