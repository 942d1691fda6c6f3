from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdnlb.allocator
from sdnlb.allocator import (
    AllocationError,
    EqualPerCluster,
    Pool,
    PoolSet,
    SingleCluster,
    SingleServer,
    avg_load_largest_cluster,
    build_plan,
    build_pools,
    dispatch_sequence,
    distribute_requests,
    pool_export,
    table1,
    truncate_fraction,
)
from sdnlb.clustering import ClusteringConfig, ClusteringError, cluster, cluster_model_document, kmeans_cluster
from sdnlb.topology import all_pairs_shortest_paths, build_paper_topology, server_features

from helpers import count_calls, random_connected_topology, random_pool_set


@pytest.fixture(scope="module")
def paper_pools():
    topo = build_paper_topology()
    features = server_features(topo, all_pairs_shortest_paths(topo))
    model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
    return topo, features, model, build_pools(model, features)


def simple_pools(*member_groups) -> PoolSet:
    return PoolSet(
        [
            Pool(cluster_index=i, members=tuple(members), centroid=(float(i), 0.0))
            for i, members in enumerate(member_groups)
        ]
    )


class TestBuildPools:
    def test_paper_k3_first_pool_is_level2(self, paper_pools):
        topo, _, _, pools = paper_pools
        assert len(pools.pools) == 3
        assert all(len(p.members) == 3 for p in pools.pools)
        assert pools.pools[0].members == ("h2", "h3", "h4")
        levels = {topo.node_map[s].level for s in pools.pools[0].members}
        assert levels == {2}

    def test_pools_sorted_by_centroid(self, paper_pools):
        _, _, _, pools = paper_pools
        centroids = [p.centroid for p in pools.pools]
        assert centroids == sorted(centroids)

    def test_k1_single_pool(self, paper_pools):
        _, features, _, _ = paper_pools
        model = kmeans_cluster(features, ClusteringConfig(k=1, rng_seed=0))
        pools = build_pools(model, features)
        assert len(pools.pools) == 1
        assert len(pools.pools[0].members) == 9

    def test_k_equal_n_singleton_pools(self, paper_pools):
        _, features, _, _ = paper_pools
        model = kmeans_cluster(features, ClusteringConfig(k=9, rng_seed=0))
        pools = build_pools(model, features)
        assert len(pools.pools) == 9
        assert all(len(p.members) == 1 for p in pools.pools)

    @pytest.mark.parametrize(
        "members,cursor,message",
        [
            ((), 0, "pool 2 has no servers"),
            (("a", "b", "a"), 0, "pool 2 has duplicate members"),
            (("a", "b"), 2, "pool 2: cursor out of range"),
            (("a", "b"), -1, "pool 2: cursor out of range"),
        ],
    )
    def test_bad_pool_is_named(self, members, cursor, message):
        with pytest.raises(AllocationError, match=f"^{message}$"):
            Pool(2, members, (0.0, 0.0), cursor)

    def test_mismatched_server_count_rejected(self, paper_pools):
        _, features, model, _ = paper_pools
        from dataclasses import replace

        truncated = replace(model, assignment=model.assignment[:-1])
        with pytest.raises(AllocationError, match="servers"):
            build_pools(truncated, features)


class TestBuildPlan:
    @pytest.mark.parametrize("method", ["kmeans", "spectral"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_plan_is_the_hand_built_chain(self, method, k):
        for topo in (build_paper_topology(), random_connected_topology(k, unit_delays=True)):
            plan = build_plan(topo, k, method, 2)
            model = cluster(topo, ClusteringConfig(k=k, rng_seed=2), method)
            assert (plan.topology, plan.key, plan.model) == (topo, (k, method, 2), model)
            assert plan.document == {"method": method, "seed": 2, **cluster_model_document(model, topo.features)}
            pools = build_pools(model, topo.features)
            assert plan.pools() == pools
            assert plan.export == pool_export(pools, {n.id: n.display for n in topo.nodes})

    def test_document_and_export_are_built_once_on_first_use(self, monkeypatch):
        documents = count_calls(monkeypatch, sdnlb.allocator, "cluster_model_document")
        exports = count_calls(monkeypatch, sdnlb.allocator, "pool_export")
        plan = build_plan(build_paper_topology(), 3, "kmeans", 0)
        assert (len(documents), len(exports)) == (0, 0)
        assert plan.document is plan.document
        assert plan.export is plan.export
        assert (len(documents), len(exports)) == (1, 1)

    def test_pools_start_with_every_cursor_at_zero(self):
        plan = build_plan(build_paper_topology(), 3, "kmeans", 0)
        pools = plan.pools()
        dispatch_sequence(pools, 5, EqualPerCluster())
        assert [p.cursor for p in pools.pools] == [2, 2, 1]
        assert [p.cursor for p in plan.pools().pools] == [0, 0, 0]

    def test_unknown_method_is_refused(self):
        with pytest.raises(ClusteringError, match="method must be one of"):
            build_plan(build_paper_topology(), 3, "louvain", 0)


class TestAssignRequest:
    """One request at a time through a cluster's pool: pools.pool(i).take()."""

    def test_rotation(self):
        pools = simple_pools(["a", "b", "c"])
        taken = [pools.pool(0).take() for _ in range(4)]
        assert taken == ["a", "b", "c", "a"]

    def test_thirty_calls_on_nine_members(self):
        members = [f"v{i}" for i in range(9)]
        pools = simple_pools(members)
        counts = {m: 0 for m in members}
        for _ in range(30):
            counts[pools.pool(0).take()] += 1
        assert [counts[m] for m in members] == [4, 4, 4, 3, 3, 3, 3, 3, 3]

    def test_ten_calls_on_three_members(self):
        pools = simple_pools(["a", "b", "c"])
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(10):
            counts[pools.pool(0).take()] += 1
        assert [counts[m] for m in "abc"] == [4, 3, 3]

    def test_unknown_cluster_rejected(self):
        with pytest.raises(AllocationError, match="7"):
            simple_pools(["a"]).pool(7).take()

    @settings(max_examples=60)
    @given(st.integers(1, 9), st.integers(0, 200))
    def test_round_robin_balance_bound(self, size, m):
        members = [f"v{i}" for i in range(size)]
        pools = simple_pools(members)
        counts = {x: 0 for x in members}
        for _ in range(m):
            counts[pools.pool(0).take()] += 1
        assert max(counts.values()) - min(counts.values()) <= 1


class TestDistributeRequests:
    def test_equal_split_30_over_3_clusters(self, paper_pools):
        _, _, _, pools = paper_pools
        counts = distribute_requests(pools, 30, EqualPerCluster())
        per_pool = [[counts[s] for s in p.members] for p in pools.pools]
        assert all(sum(v) == 10 for v in per_pool)
        assert all(sorted(v, reverse=True) == [4, 3, 3] for v in per_pool)

    def test_single_server_burst(self, paper_pools):
        _, _, _, pools = paper_pools
        counts = distribute_requests(pools, 30, SingleServer("h3"))
        assert counts["h3"] == 30
        assert sum(counts.values()) == 30

    def test_zero_requests(self, paper_pools):
        _, _, _, pools = paper_pools
        counts = distribute_requests(pools, 0, EqualPerCluster())
        assert set(counts.values()) == {0}

    def test_remainder_goes_to_highest_priority(self):
        pools = simple_pools(["a"], ["b"], ["c"])
        counts = distribute_requests(pools, 31, EqualPerCluster())
        assert counts == {"a": 11, "b": 10, "c": 10}

    def test_unknown_targets_rejected(self):
        pools = simple_pools(["a"])
        with pytest.raises(AllocationError, match="x9"):
            distribute_requests(pools, 1, SingleServer("x9"))
        with pytest.raises(AllocationError):
            distribute_requests(pools, 1, SingleCluster(3))

    def test_cursor_persists_across_calls(self):
        pools = simple_pools(["a", "b", "c"])
        first = dispatch_sequence(pools, 2, SingleCluster(0))
        second = dispatch_sequence(pools, 2, SingleCluster(0))
        assert first + second == ["a", "b", "c", "a"]

    @settings(max_examples=60)
    @given(st.integers(0, 500), st.integers(1, 5), st.integers(1, 6))
    def test_conservation(self, requests, n_pools, pool_size):
        groups = [
            [f"p{p}s{i}" for i in range(pool_size)] for p in range(n_pools)
        ]
        counts = distribute_requests(simple_pools(*groups), requests, EqualPerCluster())
        assert sum(counts.values()) == requests

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 500), st.data())
    def test_counts_are_the_counted_sequence(self, seed, n, data):
        # the contract a closed-form distribute_requests has to keep
        pools = random_pool_set(seed)
        splits = [
            EqualPerCluster(),
            *(SingleCluster(p.cluster_index) for p in pools.pools),
            *(SingleServer(s) for s in pools.all_servers()),
        ]
        assert_counts_are_the_counted_sequence(pools, n, data.draw(st.sampled_from(splits)))

    @pytest.mark.parametrize(
        "split", [EqualPerCluster(), SingleCluster(0), SingleServer("v5")], ids=lambda split: type(split).__name__
    )
    def test_counts_are_the_counted_sequence_at_a_million(self, split):
        pools = random_pool_set(9)  # 4 pools of 2-5 servers, no cursor at zero
        assert [len(p.members) for p in pools.pools] == [2, 3, 5, 3]
        assert all(p.cursor for p in pools.pools)
        assert_counts_are_the_counted_sequence(pools, 10**6 + 3, split)

    @pytest.mark.parametrize("dispatch", [dispatch_sequence, distribute_requests])
    def test_unknown_split_is_named(self, dispatch):
        with pytest.raises(AllocationError, match="^unknown split 'auto'$"):
            dispatch(simple_pools(["a"]), 1, "auto")

    @pytest.mark.parametrize("dispatch", [dispatch_sequence, distribute_requests])
    def test_equal_split_over_no_pools_is_named(self, dispatch):
        with pytest.raises(AllocationError, match="at least one pool"):
            dispatch(PoolSet([]), 3, EqualPerCluster())

    @pytest.mark.parametrize("split", [EqualPerCluster(), SingleCluster(0), SingleServer("a")])
    def test_negative_count_is_named(self, split):
        with pytest.raises(AllocationError, match="total_requests must be >= 0"):
            distribute_requests(simple_pools(["a", "b"]), -1, split)


def assert_counts_are_the_counted_sequence(pools: PoolSet, n: int, split) -> None:
    """Counting gives the dispatched sequence's counts, keyed in pool order,
    and moves no cursor; dispatching moves each cursor past its pool's share
    (a burst takes from a pool of its own)."""
    cursors = [p.cursor for p in pools.pools]
    sequenced = pools.copy()
    counts = distribute_requests(pools, n, split)
    want = dict.fromkeys(pools.all_servers(), 0)
    want.update(Counter(dispatch_sequence(sequenced, n, split)))
    assert list(counts.items()) == list(want.items())
    assert [p.cursor for p in pools.pools] == cursors
    if isinstance(split, EqualPerCluster):
        base, extra = divmod(n, len(pools.pools))
        shares = [base + (position < extra) for position in range(len(pools.pools))]
    elif isinstance(split, SingleCluster):
        shares = [n if p.cluster_index == split.cluster_index else 0 for p in pools.pools]
    else:
        shares = [0] * len(pools.pools)
    advanced = [(cursor + share) % len(p.members) for cursor, share, p in zip(cursors, shares, pools.pools)]
    assert [p.cursor for p in sequenced.pools] == advanced


PRINTED_ROW_AVG_SERVERS = ["9", "4.5", "3", "2.25", "1.8", "1.5", "1.28", "1.125", "1"]
PRINTED_ROW_CAPACITY = [100, 200, 300, 400, 500, 600, 700, 800, 900]
PRINTED_ROW_LOAD = ["3.33", "1.875", "1.428", "1.25", "1.2", "1.25", "1.428", "1.875", "3.33"]


def printed_decimals(text: str) -> int:
    return len(text.partition(".")[2])


class TestLoadAnalytics:
    @pytest.mark.parametrize(
        "requests,k,n,expected",
        [
            (30, 3, 9, Fraction(30, 21)),
            (30, 1, 9, Fraction(30, 9)),
            (30, 5, 9, Fraction(6, 5)),
            (0, 4, 9, Fraction(0)),
        ],
    )
    def test_examples(self, requests, k, n, expected):
        assert avg_load_largest_cluster(requests, k, n) == expected

    def test_rejects_out_of_range_k(self):
        with pytest.raises(AllocationError):
            avg_load_largest_cluster(30, 0, 9)
        with pytest.raises(AllocationError):
            avg_load_largest_cluster(30, 10, 9)

    def test_table_matches_printed_rows(self):
        rows = table1(9, 30)
        got_servers = [
            truncate_fraction(r.avg_servers_per_cluster, printed_decimals(p))
            for r, p in zip(rows, PRINTED_ROW_AVG_SERVERS)
        ]
        assert got_servers == PRINTED_ROW_AVG_SERVERS
        assert [r.capacity_multiplier_pct for r in rows] == PRINTED_ROW_CAPACITY
        got_load = [
            truncate_fraction(r.avg_load_largest_cluster, printed_decimals(p))
            for r, p in zip(rows, PRINTED_ROW_LOAD)
        ]
        assert got_load == PRINTED_ROW_LOAD

    def test_table_rejects_out_of_range(self):
        with pytest.raises(AllocationError):
            table1(9, 30, [0, 1])

    def test_load_symmetry_in_k(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                for r in (0, 1, 30, 1000):
                    assert avg_load_largest_cluster(r, k, n) == avg_load_largest_cluster(
                        r, n + 1 - k, n
                    )

    def test_load_minimized_at_middle_k(self):
        for n in range(1, 31):
            loads = {k: avg_load_largest_cluster(30, k, n) for k in range(1, n + 1)}
            best = min(loads.values())
            argmin = {k for k, v in loads.items() if v == best}
            assert argmin & {(n + 1) // 2, (n + 2) // 2}

    def test_distinct_dataset_capacity_counts_pools(self, paper_pools):
        # one dataset per cluster, replicated across its members => k datasets
        _, _, _, pools = paper_pools
        assert len(pools.pools) == 3
        assert len({p.cluster_index for p in pools.pools}) == 3


class TestTruncateFraction:
    @pytest.mark.parametrize(
        "value,decimals,expected",
        [
            (Fraction(30, 9), 2, "3.33"),
            (Fraction(30, 21), 3, "1.428"),
            (Fraction(9, 7), 2, "1.28"),
            (Fraction(9, 2), 1, "4.5"),
            (Fraction(9), 0, "9"),
            (Fraction(-30, 9), 2, "-3.33"),
            (Fraction(6, 5), 1, "1.2"),
        ],
    )
    def test_examples(self, value, decimals, expected):
        assert truncate_fraction(value, decimals) == expected


class TestPoolExport:
    def test_shape_and_order(self, paper_pools):
        topo, _, _, pools = paper_pools
        labels = {n.id: n.display for n in topo.nodes}
        export = pool_export(pools, labels)
        assert [p["pool_id"] for p in export["pools"]] == ["pool-0", "pool-1", "pool-2"]
        first = export["pools"][0]
        assert list(first.keys()) == ["pool_id", "vip_label", "members", "policy"]
        assert first["policy"] == "round-robin"
        assert first["members"][0] == {"server_id": "h2", "address_label": "10.0.0.2"}

    def test_every_server_in_exactly_one_pool(self, paper_pools):
        topo, features, _, pools = paper_pools
        labels = {n.id: n.display for n in topo.nodes}
        exported = [
            m["server_id"] for p in pool_export(pools, labels)["pools"] for m in p["members"]
        ]
        assert sorted(exported) == sorted(features.server_ids)
