"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion; any failure is a release blocker.
"""

import random
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import requests

from sdnlb.allocator import (
    EqualPerCluster,
    SingleServer,
    avg_load_largest_cluster,
    build_pools,
    distribute_requests,
    table1,
    truncate_fraction,
)
from sdnlb.clustering import (
    ClusteringConfig,
    kmeans_cluster,
    kmeanspp_seed,
    lloyd,
    normalized_laplacian,
    sym_eigendecomposition,
)
from sdnlb.cli import main
from sdnlb.service import make_server
from sdnlb.simulator import (
    BigClusterRR,
    ClusteredRR,
    Scenario,
    SingleServerBurst,
    compare_reports,
    max_min_fair_rates,
    run_experiment,
)
from sdnlb.topology import (
    FeatureSet,
    all_pairs_shortest_paths,
    build_paper_topology,
    server_features,
)

from helpers import (
    bfs_hop_matrix,
    brute_force_kmeans,
    is_max_min_fair,
    random_connected_topology,
    random_flow_instance,
)


def _ok(criterion: str) -> None:
    print(f"[acceptance] PASS  {criterion}")


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def paper():
    topo = build_paper_topology()
    features = server_features(topo, all_pairs_shortest_paths(topo))
    model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
    return topo, features, model, build_pools(model, features)


def test_table1_exact_reproduction():
    printed = {
        "avg_servers": ["9", "4.5", "3", "2.25", "1.8", "1.5", "1.28", "1.125", "1"],
        "capacity": ["100%", "200%", "300%", "400%", "500%", "600%", "700%", "800%", "900%"],
        "load": ["3.33", "1.875", "1.428", "1.25", "1.2", "1.25", "1.428", "1.875", "3.33"],
    }
    rows = table1(9, 30, range(1, 10))

    def decimals(text: str) -> int:
        return len(text.partition(".")[2])

    got_servers = [
        truncate_fraction(r.avg_servers_per_cluster, decimals(p))
        for r, p in zip(rows, printed["avg_servers"])
    ]
    got_capacity = [f"{r.capacity_multiplier_pct}%" for r in rows]
    got_load = [
        truncate_fraction(r.avg_load_largest_cluster, decimals(p))
        for r, p in zip(rows, printed["load"])
    ]
    assert got_servers == printed["avg_servers"]
    assert got_capacity == printed["capacity"]
    assert got_load == printed["load"]

    elapsed = _best_time(lambda: table1(9, 30, range(1, 10)))
    assert elapsed < 1e-3, f"table sweep took {elapsed * 1e3:.3f} ms"
    _ok("table1(9, 30, 1..9) equals all three printed rows; < 1 ms")


def test_figure4_clustering_every_seed(paper):
    topo, features, _, _ = paper
    for seed in range(100):
        model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=seed))
        ordered = [model.centroids[c] for c in model.priority_order]
        assert [c[0] for c in ordered] == [1.0, 2.0, 3.0], f"seed {seed}"
        levels = {}
        for sid, cluster in zip(features.server_ids, model.assignment):
            levels.setdefault(cluster, set()).add(topo.node_map[sid].level)
        assert all(len(v) == 1 for v in levels.values()), f"seed {seed}"
        assert [c[1] for c in ordered] == pytest.approx([12.0, 22.0, 30.33], abs=0.01)

    elapsed = _best_time(
        lambda: kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
    )
    assert elapsed < 10e-3, f"single clustering call took {elapsed * 1e3:.2f} ms"
    _ok("k-means++ (k=3) groups servers by level for seeds 0..99; delays 12/22/30.33 ± 0.01; < 10 ms")


def test_figure6_workload_analog(paper):
    topo, _, _, pools = paper
    burst = run_experiment(Scenario(topo, pools, SingleServerBurst("h3", 30)))
    assert burst.per_server_requests["h3"] == 30
    assert sum(burst.per_server_requests.values()) == 30

    big = run_experiment(Scenario(topo, pools, BigClusterRR(30)))
    assert sorted(big.per_server_requests.values(), reverse=True) == [4, 4, 4, 3, 3, 3, 3, 3, 3]

    clustered = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
    per_cluster = {}
    for server, count in clustered.per_server_requests.items():
        per_cluster.setdefault(clustered.server_cluster[server], []).append(count)
    assert all(sorted(v, reverse=True) == [4, 3, 3] for v in per_cluster.values())

    for report in (big, clustered):
        groups = {}
        for server, count in report.per_server_requests.items():
            groups.setdefault(report.server_cluster[server], []).append(count)
        assert all(max(v) - min(v) <= 1 for v in groups.values())
    _ok("workload states: burst h3=30, big-cluster 4/4/4/3.., clustered 4/3/3; skew <= 1")


def test_throughput_property_suite(paper):
    topo, _, model, pools = paper

    # (a) conservation on every link, 1e-9 Mbps
    capacity = {l.key: l.capacity_mbps for l in topo.links}
    for state in (SingleServerBurst("h3", 30), BigClusterRR(30), ClusteredRR(10)):
        counts = run_experiment(Scenario(topo, pools, state)).per_server_requests
        paths = all_pairs_shortest_paths(topo)
        from sdnlb.simulator import build_flows

        flows = build_flows(topo, counts, paths)
        rates = max_min_fair_rates(flows, topo)
        loads = {}
        for flow, rate in zip(flows, rates):
            for a, b in zip(flow.path, flow.path[1:]):
                key = tuple(sorted((a, b)))
                loads[key] = loads.get(key, 0.0) + rate
        for key, load in loads.items():
            assert load <= capacity[key] + 1e-9

    # (b) max-min property against the definition oracle, >= 200 instances
    for seed in range(200):
        inst_topo, flows, window = random_flow_instance(seed)
        rates = max_min_fair_rates(flows, inst_topo, rtt_window_bytes=window)
        assert is_max_min_fair(flows, rates, inst_topo, rtt_window_bytes=window), f"seed {seed}"

    # (c) nearest >= middle >= farthest cluster bytes under the default cap
    clustered = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
    table = compare_reports([clustered])
    by_cluster = table.bytes_by_cluster("clustered")
    hops = {p.cluster_index: p.centroid[0] for p in pools.pools}
    nearest, middle, farthest = sorted(hops, key=lambda c: hops[c])
    assert by_cluster[nearest] >= by_cluster[middle] - 1e-9
    assert by_cluster[middle] >= by_cluster[farthest] - 1e-9
    _ok("fair-share: conservation 1e-9; max-min vs oracle on 200 instances; cluster byte ordering")


def test_clustering_oracles():
    rnd = random.Random(2024)
    checked = 0
    while checked < 100:
        n = rnd.randint(2, 8)
        points = tuple((rnd.uniform(0, 10), rnd.uniform(0, 40)) for _ in range(n))
        features = FeatureSet(points=points, server_ids=tuple(f"v{i}" for i in range(n)))
        k = rnd.randint(1, min(3, n))
        optimum = brute_force_kmeans(features, k)
        best = float("inf")
        for seed in range(50):
            model = lloyd(
                features, kmeanspp_seed(features, k, seed), ClusteringConfig(k=k)
            )
            best = min(best, model.sse)
            trace = model.sse_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert best <= optimum * 1.0001 + 1e-9, f"instance {checked}: {best} vs {optimum}"
        checked += 1
    _ok("best-of-50-seeds SSE within 0.01% of brute force on 100 instances; SSE traces monotone")


def test_eigensolver_reconstruction_and_laplacian_bounds():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2.0
        values, vectors = sym_eigendecomposition(m)
        assert np.abs(vectors @ np.diag(values) @ vectors.T - m).max() < 1e-7

    for seed in range(50):
        topo = random_connected_topology(seed, max_switches=12)
        values, _ = sym_eigendecomposition(normalized_laplacian(topo.switch_adjacency()))
        assert values[0] >= -1e-8
        assert values[-1] <= 2.0 + 1e-8
    _ok("eigensolver: reconstruction < 1e-7 on 100 matrices; Laplacian spectrum within [0, 2]")


def test_apsp_oracle():
    for seed in range(100):
        topo = random_connected_topology(seed, max_switches=30, unit_delays=seed % 2 == 0)
        paths = all_pairs_shortest_paths(topo)
        assert np.array_equal(paths.hops, bfs_hop_matrix(topo)), f"seed {seed}"
        assert np.array_equal(paths.hops, paths.hops.T)
        assert np.allclose(paths.delay_ms, paths.delay_ms.T)
        for m in range(len(paths.switch_ids)):
            assert (paths.hops <= paths.hops[:, [m]] + paths.hops[[m], :]).all()
    _ok("all-pairs shortest-path hops equal BFS on 100 graphs (<= 30 switches); symmetric; triangle holds")


def test_load_formula_symmetry():
    for n in range(1, 31):
        for k in range(1, n + 1):
            for r in (0, 1, 30, 1000):
                left = avg_load_largest_cluster(r, k, n)
                right = avg_load_largest_cluster(r, n + 1 - k, n)
                assert left == right
                assert isinstance(left, Fraction)
    _ok("A(R,k,n) == A(R,n+1-k,n) exactly for all 1 <= k <= n <= 30, R in {0,1,30,1000}")


def test_paper_repro_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["paper-repro", "--out", str(out1)]) == 0
    assert main(["paper-repro", "--out", str(out2)]) == 0
    for name in ("table1.csv", "clusters.csv", "experiments.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _ok("paper-repro twice with identical flags: byte-identical output files")


def test_service_conformance():
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        start = time.perf_counter()
        doc = build_paper_topology().document()
        assert requests.put(f"{base}/topology", json=doc).status_code == 200
        clusters = requests.get(f"{base}/clusters", params={"k": 3}).json()
        assert requests.get(f"{base}/pools").status_code == 200
        posted = requests.post(f"{base}/requests", json={"target": "auto", "count": 30})
        assert posted.status_code == 200
        stats = requests.get(f"{base}/stats").json()
        elapsed = time.perf_counter() - start

        assert sum(stats["counters"].values()) == 30
        cluster_of = {s["server_id"]: s["cluster"] for s in clusters["servers"]}
        per_cluster = {}
        for server_id, count in stats["counters"].items():
            per_cluster[cluster_of[server_id]] = per_cluster.get(cluster_of[server_id], 0) + count
        assert per_cluster == {0: 10, 1: 10, 2: 10}
        assert elapsed < 1.0, f"sequence took {elapsed:.3f} s"
    finally:
        server.shutdown()
        server.server_close()
    _ok("PUT/GET/POST endpoint sequence: counters sum 30, 10 per cluster, < 1 s")


def test_distribute_requests_conservation_spot_check(paper):
    # belt-and-braces: the dispatcher used by the service conserves requests
    _, _, _, pools = paper
    counts = distribute_requests(pools.copy(), 30, EqualPerCluster())
    assert sum(counts.values()) == 30
    counts = distribute_requests(pools.copy(), 30, SingleServer("h3"))
    assert counts["h3"] == 30
