import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdnlb.simulator
import sdnlb.topology

from sdnlb.allocator import Pool, PoolSet, build_pools
from sdnlb.clustering import ClusteringConfig, kmeans_cluster, spectral_cluster
from sdnlb.simulator import (
    BigClusterRR,
    ClusteredRR,
    Flow,
    Scenario,
    SimulationError,
    SingleServerBurst,
    compare_reports,
    max_min_fair_rates,
    report_csv,
    run_experiment,
    window_rate_cap_mbps,
)
from sdnlb.topology import (
    Topology,
    all_pairs_shortest_paths,
    build_paper_topology,
    load_topology,
    server_features,
)

from helpers import (
    count_builds,
    count_calls,
    fill_classes_oracle,
    fill_outcome,
    is_max_min_fair,
    per_flow_experiment,
    per_flow_max_min_rates,
    random_connected_topology,
    random_fill_instance,
    random_flow_instance,
    random_pool_set,
    request_counts_oracle,
    star_document,
)

BIG_WINDOW = 1e12  # cap never binds


@pytest.fixture(scope="module")
def paper():
    topo = build_paper_topology()
    features = server_features(topo, all_pairs_shortest_paths(topo))
    model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
    return topo, build_pools(model, features)


def chain_topology(n_switches: int, capacity: float = 100.0):
    nodes = [{"id": f"s{i}", "kind": "switch"} for i in range(1, n_switches + 1)]
    nodes += [{"id": "u1", "kind": "user_host"}, {"id": "v1", "kind": "server_host"}]
    links = [
        {"a": f"s{i}", "b": f"s{i+1}", "delay_ms": 5.0, "capacity_mbps": capacity}
        for i in range(1, n_switches)
    ]
    links += [
        {"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": capacity},
        {"a": "v1", "b": f"s{n_switches}", "delay_ms": 0.0, "capacity_mbps": capacity},
    ]
    return load_topology({"nodes": nodes, "links": links, "user_switch": "s1"})


class TestMaxMinFairRates:
    def test_single_flow_saturates_path(self):
        topo = chain_topology(3)
        paths = all_pairs_shortest_paths(topo)
        flow = Flow("u1", "v1", paths.path("s1", "s3"), rtt_ms=2 * 10.0)
        rates = max_min_fair_rates([flow], topo, rtt_window_bytes=BIG_WINDOW)
        assert rates.tolist() == [100.0]

    def test_ten_flows_share_one_bottleneck(self):
        topo = chain_topology(2)
        paths = all_pairs_shortest_paths(topo)
        flows = [Flow("u1", "v1", paths.path("s1", "s2"), rtt_ms=10.0) for _ in range(10)]
        rates = max_min_fair_rates(flows, topo, rtt_window_bytes=BIG_WINDOW)
        assert rates.tolist() == [10.0] * 10

    def test_window_cap_binds_before_capacity(self):
        topo = chain_topology(2)
        paths = all_pairs_shortest_paths(topo)
        flow = Flow("u1", "v1", paths.path("s1", "s2"), rtt_ms=10.0)
        rates = max_min_fair_rates([flow], topo, rtt_window_bytes=8192.0)
        assert rates[0] == pytest.approx(window_rate_cap_mbps(8192.0, 10.0))
        assert rates[0] < 100.0

    def test_unknown_link_rejected(self):
        topo = chain_topology(3)
        flow = Flow("u1", "v1", ("s1", "s3"), rtt_ms=10.0)  # skips s2
        with pytest.raises(SimulationError, match="^path s1-s3: no link s1-s3$"):
            max_min_fair_rates([flow], topo)

    def test_overloaded_link_is_named(self):
        # the filling never oversubscribes a link; the check still names one that is
        with pytest.raises(SimulationError, match="^link s1-s2 oversubscribed: 150.0 Mbps$"):
            sdnlb.simulator._check_conservation([100.0, 50.0], [(("s1", "s2"),)] * 2, {("s1", "s2"): 100.0})

    def test_unconstrained_flow_rejected(self):
        topo = chain_topology(2)
        flow = Flow("u1", "v1", ("s1",), rtt_ms=0.0)
        with pytest.raises(SimulationError, match="constraint"):
            max_min_fair_rates([flow], topo)

    def test_filling_that_freezes_nothing_stops_with_a_named_error(self, monkeypatch):
        monkeypatch.setattr(sdnlb.simulator, "_LEVEL_TOL", -math.inf)  # no level is ever reached
        topo = chain_topology(3)
        paths = all_pairs_shortest_paths(topo)
        flows = [
            Flow("u1", "v1", paths.path("s1", "s3"), rtt_ms=10.0),
            Flow("u1", "v1", paths.path("s1", "s2"), rtt_ms=5.0),
        ]

        def deadline(signum, frame):
            raise AssertionError("progressive filling did not stop within 5 s")

        previous = signal.signal(signal.SIGALRM, deadline)
        signal.alarm(5)
        try:
            with pytest.raises(SimulationError, match="unfrozen after 3 rounds"):
                max_min_fair_rates(flows, topo, rtt_window_bytes=BIG_WINDOW)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_incremental_filling_equals_the_round_by_round_oracle(self, rnd):
        # random trees, multiplicities and windows, with ties between equal
        # levels and caps: the same rate bits, rounds and error text
        instance = random_fill_instance(rnd)
        assert fill_outcome(sdnlb.simulator._fill_classes, *instance) == fill_outcome(fill_classes_oracle, *instance)

    def test_links_saturating_in_one_round_add_their_loads_in_link_id_order(self):
        # round 1 freezes x at s1-s2; round 2 freezes b at s5-s6 and a at
        # s3-s4, both at 50/3; round 3 gives d what s7-s8 has left. b is
        # listed before a, so only link-id order adds a's load to s7-s8
        # before b's, and the other order shows in d's last bits
        shared = ("s7", "s8")
        capacity = {("s1", "s2"): 0.8, ("s3", "s4"): 50.0, ("s5", "s6"): 250.0, shared: 396.0}
        x = ((("s1", "s2"), shared), 0.0, 1)  # rtt 0: no window cap
        b = ((("s5", "s6"), shared), 0.0, 15)
        a = ((("s3", "s4"), shared), 0.0, 3)
        d = ((shared,), 0.0, 1)
        classes = [x, b, a, d]
        level = 50.0 / 3
        link_id_order = 396.0 - ((0.8 + 3 * level) + 15 * level)
        assert link_id_order != 396.0 - ((0.8 + 15 * level) + 3 * level)
        rates, rounds = sdnlb.simulator._fill_classes(classes, capacity, BIG_WINDOW)
        assert ([rate.hex() for rate in rates], rounds) == ([r.hex() for r in (0.8, level, level, link_id_order)], 3)
        oracle = fill_outcome(fill_classes_oracle, classes, capacity, BIG_WINDOW)
        assert fill_outcome(sdnlb.simulator._fill_classes, classes, capacity, BIG_WINDOW) == oracle

    @pytest.mark.parametrize("seed", range(60))
    def test_fairness_property_on_random_instances(self, seed):
        topo, flows, window = random_flow_instance(seed)
        rates = max_min_fair_rates(flows, topo, rtt_window_bytes=window)
        assert is_max_min_fair(flows, rates, topo, rtt_window_bytes=window)

    @pytest.mark.parametrize("seed", range(30))
    def test_per_flow_cap_respected(self, seed):
        topo, flows, window = random_flow_instance(seed + 500)
        rates = max_min_fair_rates(flows, topo, rtt_window_bytes=window)
        for flow, rate in zip(flows, rates):
            assert rate <= window_rate_cap_mbps(window, flow.rtt_ms) + 1e-9

    @pytest.mark.parametrize("seed", range(30))
    def test_conservation_on_every_link(self, seed):
        topo, flows, window = random_flow_instance(seed + 900)
        rates = max_min_fair_rates(flows, topo, rtt_window_bytes=window)
        loads = {}
        for flow, rate in zip(flows, rates):
            for a, b in zip(flow.path, flow.path[1:]):
                key = tuple(sorted((a, b)))
                loads[key] = loads.get(key, 0.0) + rate
        capacity = {tuple(sorted(l.key)): l.capacity_mbps for l in topo.links}
        for key, load in loads.items():
            assert load <= capacity[key] + 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_fairness_property_with_repeated_flows(self, seed):
        topo, flows, window = random_flow_instance(seed + 1300)
        _, repeated = repeat_and_shuffle(flows, random.Random(seed))
        rates = max_min_fair_rates(repeated, topo, rtt_window_bytes=window)
        assert is_max_min_fair(repeated, rates, topo, rtt_window_bytes=window)
        # a class adds m * rate where single flows add rate m times: the
        # rates may differ in the last bits only
        reference = per_flow_max_min_rates(repeated, topo, rtt_window_bytes=window)
        assert rates == pytest.approx(reference, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "seed, max_switches, max_flows",
        [(seed, 5, 8) for seed in range(1700, 1740)]
        # larger instances on which a solve that sums link loads in flow
        # order gives rates that differ in the last bit after a permutation
        + [(seed, 8, 16) for seed in (586, 1079, 1110, 1904, 1977)],
    )
    def test_copies_get_equal_rates_and_permutation_permutes_rates(self, seed, max_switches, max_flows):
        topo, flows, window = random_flow_instance(seed, max_switches, max_flows)
        rnd = random.Random(seed)
        origin, repeated = repeat_and_shuffle(flows, rnd)
        rates = max_min_fair_rates(repeated, topo, rtt_window_bytes=window).tolist()
        rate_of = {}
        for i, rate in zip(origin, rates):
            assert rate_of.setdefault(i, rate) == rate  # bit-equal, not approximately
        order = list(range(len(repeated)))
        rnd.shuffle(order)
        permuted = max_min_fair_rates([repeated[j] for j in order], topo, rtt_window_bytes=window)
        assert permuted.tolist() == [rates[j] for j in order]

    def test_solve_cost_does_not_grow_with_request_count(self, paper, monkeypatch):
        # the flows to one switch form one class: ten times the requests
        # must not mean ten times the link-key work inside the filling
        topo, pools = paper
        calls = count_calls(monkeypatch, sdnlb.topology, "natural_key")
        fill = sdnlb.simulator._fill_classes
        inside = []

        def counted_fill(*args, **kwargs):
            before = len(calls)
            result = fill(*args, **kwargs)
            inside.append(len(calls) - before)
            return result

        monkeypatch.setattr(sdnlb.simulator, "_fill_classes", counted_fill)
        for requests in (1000, 10000):
            run_experiment(Scenario(topo, pools, BigClusterRR(requests)))
        assert len(inside) == 2
        assert inside[0] == inside[1]


def repeat_and_shuffle(flows, rnd):
    """Each flow repeated 1-5 times, then shuffled; returns (index of the
    original flow per copy, the copies)."""
    copies = [(i, flow) for i, flow in enumerate(flows) for _ in range(rnd.randint(1, 5))]
    rnd.shuffle(copies)
    return [i for i, _ in copies], [flow for _, flow in copies]


class TestRunExperiment:
    def test_single_server_burst(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, SingleServerBurst("h3", 30)))
        assert report.per_server_requests["h3"] == 30
        assert sum(report.per_server_requests.values()) == 30

    def test_big_cluster_round_robin_counts(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, BigClusterRR(30)))
        assert sorted(report.per_server_requests.values(), reverse=True) == [4, 4, 4, 3, 3, 3, 3, 3, 3]

    def test_clustered_round_robin_counts(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        per_cluster = {}
        for server, count in report.per_server_requests.items():
            per_cluster.setdefault(report.server_cluster[server], []).append(count)
        assert all(sorted(v, reverse=True) == [4, 3, 3] for v in per_cluster.values())

    def test_unknown_burst_target_rejected(self, paper):
        topo, pools = paper
        with pytest.raises(SimulationError, match="zz"):
            run_experiment(Scenario(topo, pools, SingleServerBurst("zz", 1)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("field", ["duration_s", "rtt_window_bytes"])
    def test_scenario_rejects_non_finite_or_non_positive(self, paper, field, value):
        topo, pools = paper
        with pytest.raises(SimulationError, match=f"{field} must be finite and > 0"):
            Scenario(topo, pools, BigClusterRR(3), **{field: value})

    def test_big_cluster_without_servers_is_named(self, paper):
        from sdnlb.allocator import PoolSet

        topo, _ = paper
        with pytest.raises(ValueError, match="server"):
            run_experiment(Scenario(topo, PoolSet([]), BigClusterRR(3)))

    @pytest.mark.parametrize(
        "state",
        [
            SingleServerBurst("h10", 3),
            BigClusterRR(30),
            ClusteredRR(10),
            # no request reaches h10: each pool member is checked all the same
            SingleServerBurst("h3", 5),
            SingleServerBurst("h10", 0),
            BigClusterRR(1),
            ClusteredRR(1),
            ClusteredRR(0),
        ],
    )
    def test_pools_of_another_topology_name_the_missing_server(self, paper, state):
        # the paper topology's pools hold h10; this topology has no such host
        _, pools = paper
        document = build_paper_topology().document()
        document["nodes"] = [n for n in document["nodes"] if n["id"] != "h10"]
        document["links"] = [l for l in document["links"] if "h10" not in (l["a"], l["b"])]
        with pytest.raises(sdnlb.topology.TopologyError, match="^unknown node id 'h10'$"):
            run_experiment(Scenario(load_topology(document), pools, state))

    @pytest.mark.parametrize("member,kind", [("s1", "a switch"), ("h1", "the user host")])
    @pytest.mark.parametrize("state", [SingleServerBurst("h2", 5), BigClusterRR(2), ClusteredRR(1)])
    def test_pool_members_must_be_server_hosts(self, paper, member, kind, state):
        topo, _ = paper
        pools = PoolSet([Pool(0, ("h2", member), (0.0, 0.0))])
        with pytest.raises(sdnlb.topology.TopologyError, match=f"^'{member}' is {kind}, not a server host$"):
            run_experiment(Scenario(topo, pools, state))

    @pytest.mark.parametrize(
        "pools,named",
        [
            ((("h2", "s1"), ("h3", "h99")), "^'s1' is a switch, not a server host$"),
            ((("h3", "h99"), ("h2", "s1")), "^unknown node id 'h99'$"),
        ],
        ids=["switch-first", "unknown-first"],
    )
    @pytest.mark.parametrize("state", [SingleServerBurst("h2", 5), BigClusterRR(2), ClusteredRR(1)])
    def test_the_first_bad_member_in_pool_order_is_named(self, paper, pools, named, state):
        topo, _ = paper
        pool_set = PoolSet([Pool(c, members, (0.0, 0.0)) for c, members in enumerate(pools)])
        with pytest.raises(sdnlb.topology.TopologyError, match=named):
            run_experiment(Scenario(topo, pool_set, state))

    @pytest.mark.parametrize(
        "pools,named",
        [
            ((("h2", "h3"), ("h4", "h3")), "^server 'h3' is in two pools: clusters 0 and 1$"),
            ((("h2",), ("h4", "h5"), ("h6", "h2")), "^server 'h2' is in two pools: clusters 0 and 2$"),
        ],
        ids=["two-pools", "first-and-last"],
    )
    @pytest.mark.parametrize(
        "state", [SingleServerBurst("h4", 5), SingleServerBurst("h3", 5), BigClusterRR(7), ClusteredRR(2)]
    )
    def test_a_server_in_two_pools_is_named_with_both_clusters(self, paper, pools, named, state):
        # its requests would all be reported under one cluster's bytes
        topo, _ = paper
        pool_set = PoolSet([Pool(c, members, (0.0, 0.0)) for c, members in enumerate(pools)])
        with pytest.raises(SimulationError, match=named):
            run_experiment(Scenario(topo, pool_set, state))

    def test_scenario_pools_not_mutated(self, paper):
        topo, pools = paper
        cursors = [p.cursor for p in pools.pools]
        run_experiment(Scenario(topo, pools, ClusteredRR(7)))
        assert [p.cursor for p in pools.pools] == cursors

    def test_experiments_share_one_tree(self, monkeypatch):
        # three states on one Topology: validation built the tree from the
        # user switch at load, so no experiment builds it; the routes and
        # the capacity table are built once, on first use, and every later
        # experiment reuses them; no experiment computes all-pairs paths
        import sdnlb.topology

        topo = build_paper_topology()
        features = server_features(topo, all_pairs_shortest_paths(topo))
        pools = build_pools(kmeans_cluster(features, ClusteringConfig(k=3)), features)
        paths_calls = count_calls(monkeypatch, sdnlb.topology, "all_pairs_shortest_paths")
        tree_builds = count_builds(monkeypatch, Topology, "tree")
        route_builds = count_builds(monkeypatch, Topology, "routes")
        capacity_builds = count_builds(monkeypatch, Topology, "capacity")
        reports = [
            run_experiment(Scenario(topo, pools, state))
            for state in (SingleServerBurst("h3", 30), BigClusterRR(30), ClusteredRR(10))
        ]
        compare_reports(reports)
        assert paths_calls == []
        assert tree_builds == []
        assert route_builds == capacity_builds == [topo]

    @pytest.mark.parametrize(
        "state_of, pools_served",
        [(lambda n: SingleServerBurst("h3", n), 1), (BigClusterRR, 1), (ClusteredRR, 3)],
        ids=["single-server", "big-cluster", "clustered"],
    )
    def test_cost_does_not_grow_with_request_count(self, paper, monkeypatch, state_of, pools_served):
        # a million requests cost what a thousand do: no request is taken
        # from a pool one by one, no flow is built, no tree or route is built
        # again, and the filling takes as many rounds
        topo, pools = paper
        run_experiment(Scenario(topo, pools, state_of(1)))  # the first experiment builds the routes
        takes = count_calls(monkeypatch, Pool, "take")
        tree_builds = count_builds(monkeypatch, Topology, "tree")
        route_builds = count_builds(monkeypatch, Topology, "routes")
        flows = count_calls(monkeypatch, sdnlb.simulator, "build_flows")
        fill = sdnlb.simulator._fill_classes
        rounds = []

        def counted_fill(*args, **kwargs):
            rates, n = fill(*args, **kwargs)
            rounds.append(n)
            return rates, n

        monkeypatch.setattr(sdnlb.simulator, "_fill_classes", counted_fill)
        for requests in (10**3, 10**6):
            report = run_experiment(Scenario(topo, pools, state_of(requests)))
            assert sum(report.per_server_requests.values()) == requests * pools_served
        assert takes == tree_builds == route_builds == flows == []
        assert len(rounds) == 2 and rounds[0] == rounds[1] > 0

    def test_routes_and_capacity_wait_for_the_first_experiment(self):
        topo = load_topology(build_paper_topology().document())
        pools = build_pools(kmeans_cluster(topo.features, ClusteringConfig(k=3)), topo.features)
        spectral_cluster(topo, ClusteringConfig(k=3))
        assert not {"routes", "capacity"} & vars(topo).keys()
        run_experiment(Scenario(topo, pools, BigClusterRR(30)))
        assert {"routes", "capacity"} <= vars(topo).keys()

    def test_identical_scenarios_give_identical_reports(self, paper):
        topo, pools = paper
        a = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        b = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        assert a == b

    def test_bandwidth_bytes_unit_consistency(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, BigClusterRR(30)))
        for server, mb in report.per_server_bytes.items():
            assert mb * 8.0 / report.duration_s == pytest.approx(
                report.per_server_bandwidth_mbps[server], abs=1e-9
            )
        assert report.user_total_bytes == pytest.approx(sum(report.per_server_bytes.values()))

    def test_request_conservation(self, paper):
        topo, pools = paper
        for state, total in (
            (SingleServerBurst("h5", 17), 17),
            (BigClusterRR(23), 23),
            (ClusteredRR(4), 12),
        ):
            report = run_experiment(Scenario(topo, pools, state))
            assert sum(report.per_server_requests.values()) == total

    def test_report_csv_format(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        lines = report_csv(report).splitlines()
        assert lines[0] == "entity,kind,requests,bytes_mb,bandwidth_mbps,cluster"
        assert len(lines) == 11  # 9 servers + user
        assert lines[1].startswith("h2,server,")
        assert lines[-1].startswith("h1,user,30,")

    def test_report_names_the_topology_user_host(self):
        topo = chain_topology(3)  # its user host is u1
        pools = build_pools(kmeans_cluster(topo.features, ClusteringConfig(k=1)), topo.features)
        report = run_experiment(Scenario(topo, pools, BigClusterRR(4)))
        assert report.topology.user_host_id == "u1"
        assert report_csv(report).splitlines()[-1].startswith("u1,user,4,")


class TestClassPathEqualsPerFlowPath:
    @pytest.mark.parametrize("unit_delays", [False, True])
    def test_reports_match_the_per_flow_path(self, unit_delays):
        # one class per loaded switch gives the report of one flow per
        # request, including the error when a class has no constraint (a
        # server on the user switch: no switch link and rtt 0)
        outcomes = []
        for seed in range(25):
            topo = random_connected_topology(seed, max_switches=10, max_servers=6, unit_delays=unit_delays)
            window = (8192.0, 65536.0, 262144.0)[seed % 3]
            target = topo.server_ids[seed % topo.n_servers]
            for k in range(1, min(4, topo.n_servers) + 1):
                pools = build_pools(kmeans_cluster(topo.features, ClusteringConfig(k=k)), topo.features)
                for state in (SingleServerBurst(target, 97), BigClusterRR(101), ClusteredRR(34)):
                    scenario = Scenario(topo, pools, state, rtt_window_bytes=window)
                    try:
                        counts, bandwidth = per_flow_experiment(scenario)
                    except SimulationError as exc:
                        with pytest.raises(SimulationError) as raised:
                            run_experiment(scenario)
                        assert str(raised.value) == str(exc)
                        outcomes.append("error")
                        continue
                    report = run_experiment(scenario)
                    assert list(report.per_server_requests.items()) == list(counts.items())
                    assert report.per_server_bandwidth_mbps == pytest.approx(bandwidth, rel=1e-12, abs=0)
                    bytes_mb = {s: bw * scenario.duration_s / 8.0 for s, bw in bandwidth.items()}
                    assert report.per_server_bytes == pytest.approx(bytes_mb, rel=1e-12, abs=0)
                    outcomes.append("report")
        assert {"error", "report"} <= set(outcomes)


class TestCompareReports:
    def test_cluster_byte_ordering_nearest_first(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        table = compare_reports([report])
        by_cluster = table.bytes_by_cluster("clustered")
        hops = {p.cluster_index: p.centroid[0] for p in pools.pools}
        nearest = min(hops, key=lambda c: hops[c])
        middle = sorted(hops, key=lambda c: hops[c])[1]
        farthest = max(hops, key=lambda c: hops[c])
        assert by_cluster[nearest] >= by_cluster[middle] - 1e-9
        assert by_cluster[middle] >= by_cluster[farthest] - 1e-9

    def test_identical_reports_zero_deltas(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        table = compare_reports([report, report])
        assert all(r.delta_bytes_mb == 0.0 and r.delta_bandwidth_mbps == 0.0 for r in table.rows)

    def test_clustered_moves_at_least_big_cluster_bytes(self, paper):
        topo, pools = paper
        clustered = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        big = run_experiment(Scenario(topo, pools, BigClusterRR(30)))
        assert clustered.user_total_bytes >= big.user_total_bytes - 1e-9

    def test_mismatched_topologies_rejected(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        other_topo = chain_topology(2)
        other = run_experiment(
            Scenario(
                other_topo,
                _single_pool(other_topo),
                SingleServerBurst("v1", 1),
            )
        )
        with pytest.raises(SimulationError, match="topolog"):
            compare_reports([report, other])

    def test_no_reports_rejected(self):
        with pytest.raises(SimulationError, match="^need at least one report$"):
            compare_reports([])

    @staticmethod
    def _report_on(document: dict):
        topo = load_topology(document)
        pools = build_pools(kmeans_cluster(topo.features, ClusteringConfig(k=3)), topo.features)
        return run_experiment(Scenario(topo, pools, ClusteredRR(10)))

    def test_equal_topologies_built_apart_are_accepted(self):
        reports = [self._report_on(build_paper_topology().document()) for _ in range(2)]
        assert reports[0].topology is not reports[1].topology
        table = compare_reports(reports)
        assert all(r.delta_bytes_mb == 0.0 and r.delta_bandwidth_mbps == 0.0 for r in table.rows)

    def test_topologies_differing_in_one_zero_sign_are_accepted(self):
        # equal values compare equal: a delay of -0.0 is the delay 0.0
        document = build_paper_topology().document()
        document["links"][0]["delay_ms"] = 0.0
        signed = build_paper_topology().document()
        signed["links"][0]["delay_ms"] = -0.0
        compare_reports([self._report_on(document), self._report_on(signed)])

    def test_one_changed_link_delay_is_rejected(self):
        document = build_paper_topology().document()
        changed = build_paper_topology().document()
        changed["links"][-1]["delay_ms"] += 1.0
        reports = [self._report_on(document), self._report_on(changed)]
        with pytest.raises(SimulationError, match="^reports come from different topologies$"):
            compare_reports(reports)

    def test_csv_shape(self, paper):
        topo, pools = paper
        report = run_experiment(Scenario(topo, pools, ClusteredRR(10)))
        lines = compare_reports([report]).to_csv().splitlines()
        assert lines[0].startswith("state,cluster,requests,")
        assert len(lines) == 4


class TestRequestCounts:
    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 200), st.data())
    def test_each_state_matches_its_definition(self, seed, n, data):
        # the pools hold servers of the topology, as run_experiment checks
        # before it counts; the topology has servers in no pool too
        topo = POOL_TOPOLOGY
        pools = random_pool_set(seed)
        target = data.draw(st.sampled_from(sorted(pools.all_servers())))
        cursors = [p.cursor for p in pools.pools]
        servers = tuple(s for s in topo.server_ids if s in pools.all_servers())
        for state in (SingleServerBurst(target, n), BigClusterRR(n), ClusteredRR(n)):
            counts = sdnlb.simulator._request_counts(Scenario(topo, pools, state), servers)
            assert list(counts.items()) == list(request_counts_oracle(pools, state).items())
            assert [p.cursor for p in pools.pools] == cursors

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 200))
    def test_report_keys_follow_the_topology(self, seed, n):
        # random_pool_set lists pools and members out of natural order
        pools = random_pool_set(seed)
        members = set(pools.all_servers())
        servers = [s for s in POOL_TOPOLOGY.server_ids if s in members]
        for state in (SingleServerBurst(pools.pools[0].members[0], n), BigClusterRR(n), ClusteredRR(n)):
            report = run_experiment(Scenario(POOL_TOPOLOGY, pools, state))
            assert list(report.per_server_requests) == servers
            assert list(report.per_server_bytes) == servers
            assert list(report.per_server_bandwidth_mbps) == servers

    def test_counting_copies_no_pools_sorts_no_ids_and_moves_no_cursor(self, monkeypatch):
        pools = random_pool_set(9)  # no cursor at zero
        cursors = [p.cursor for p in pools.pools]
        copies = count_calls(monkeypatch, PoolSet, "copy")
        keys = count_calls(monkeypatch, sdnlb.topology, "natural_key")
        for state in (SingleServerBurst("v5", 30), BigClusterRR(30), ClusteredRR(10)):
            run_experiment(Scenario(POOL_TOPOLOGY, pools, state))
        assert (len(copies), len(keys)) == (0, 0)
        assert [p.cursor for p in pools.pools] == cursors

    def test_unknown_state_is_named(self, paper):
        topo, pools = paper
        with pytest.raises(SimulationError, match="^unknown state 'burst'$"):
            run_experiment(Scenario(topo, pools, "burst"))

    @pytest.mark.parametrize("state", [SingleServerBurst("h3", -1), BigClusterRR(-1), ClusteredRR(-1)])
    def test_negative_requests_are_named(self, paper, state):
        topo, pools = paper
        with pytest.raises(SimulationError, match=f"{state.label}: total_requests must be >= 0"):
            run_experiment(Scenario(topo, pools, state))

    def test_clustered_without_pools_is_named(self, paper):
        topo, _ = paper
        with pytest.raises(SimulationError, match="clustered: an equal split needs at least one pool"):
            run_experiment(Scenario(topo, PoolSet([]), ClusteredRR(3)))


def _behind_one_switch_link(document: dict) -> dict:
    """The star document with its user host moved to a new switch s0 one
    link above s1, so requests to its servers cross a switch link."""
    document["nodes"].append({"id": "s0", "kind": "switch"})
    document["links"][0]["b"] = "s0"
    document["links"].append({"a": "s0", "b": "s1", "delay_ms": 1.0, "capacity_mbps": 100.0})
    return {**document, "user_switch": "s0"}


# v1..v24: every server random_pool_set can draw
POOL_TOPOLOGY = load_topology(_behind_one_switch_link(star_document(24)))


def _single_pool(topo):
    from sdnlb.allocator import Pool, PoolSet

    return PoolSet([Pool(cluster_index=0, members=topo.server_ids, centroid=(0.0, 0.0))])


def test_window_rate_cap_zero_rtt_is_unbounded():
    assert math.isinf(window_rate_cap_mbps(65536.0, 0.0))
