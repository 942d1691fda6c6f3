import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnlb.topology import (
    Node,
    NodeKind,
    Topology,
    TopologyError,
    all_pairs_shortest_paths,
    build_paper_topology,
    load_topology,
    natural_key,
    server_features,
)

from helpers import (
    BAD_TOPOLOGY_DOCUMENTS,
    NON_DECIMAL_DIGIT_IDS,
    bfs_hop_matrix,
    paper_document_renamed,
    random_connected_topology,
)


@pytest.fixture(scope="module")
def paper():
    topo = build_paper_topology()
    return topo, all_pairs_shortest_paths(topo)


class TestBuildPaperTopology:
    def test_nine_server_hosts_three_per_level(self, paper):
        topo, _ = paper
        assert topo.n_servers == 9
        per_level = {}
        for sid in topo.server_ids:
            per_level.setdefault(topo.node_map[sid].level, []).append(sid)
        assert {lvl: len(v) for lvl, v in per_level.items()} == {2: 3, 3: 3, 4: 3}

    def test_level2_server_switches_one_hop_from_user(self, paper):
        topo, paths = paper
        for sid in topo.server_ids:
            if topo.node_map[sid].level == 2:
                switch = topo.attached_switch(sid)
                assert paths.hops_between(topo.user_switch, switch) == 1

    def test_no_intra_level_switch_links(self, paper):
        topo, _ = paper
        for link in topo.links:
            a, b = topo.node_map[link.a], topo.node_map[link.b]
            if a.kind is NodeKind.SWITCH and b.kind is NodeKind.SWITCH:
                assert abs(a.level - b.level) == 1


MINIMAL_DOC = {
    "nodes": [
        {"id": "s1", "kind": "switch"},
        {"id": "s2", "kind": "switch"},
        {"id": "u1", "kind": "user_host"},
        {"id": "v1", "kind": "server_host"},
    ],
    "links": [
        {"a": "s1", "b": "s2", "delay_ms": 1.0, "capacity_mbps": 100.0},
        {"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
        {"a": "v1", "b": "s2", "delay_ms": 0.0, "capacity_mbps": 100.0},
    ],
    "user_switch": "s1",
}


class TestLoadTopology:
    def test_minimal_document(self):
        topo = load_topology(MINIMAL_DOC)
        assert topo.n_servers == 1
        assert topo.user_switch == "s1"

    def test_unknown_link_endpoint_is_named(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["links"][0]["b"] = "s9"
        with pytest.raises(TopologyError, match="s9"):
            load_topology(doc)

    def test_duplicate_node_id_is_named(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["nodes"].append({"id": "s1", "kind": "switch"})
        with pytest.raises(TopologyError, match="duplicate node id 's1'"):
            load_topology(doc)

    def test_disconnected_graph_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["nodes"].append({"id": "s3", "kind": "switch"})
        with pytest.raises(TopologyError, match="s3"):
            load_topology(doc)

    def test_missing_user_switch_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["user_switch"] = "nope"
        with pytest.raises(TopologyError, match="nope"):
            load_topology(doc)

    def test_host_with_two_links_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["links"].append({"a": "v1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0})
        with pytest.raises(TopologyError, match="v1"):
            load_topology(doc)

    def test_duplicate_link_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["links"].append({"a": "s2", "b": "s1", "delay_ms": 2.0, "capacity_mbps": 10.0})
        with pytest.raises(TopologyError, match="duplicate link"):
            load_topology(doc)

    def test_paper_topology_round_trip(self):
        topo = build_paper_topology()
        assert load_topology(topo.document()) == topo

    def test_round_trip_survives_json(self):
        topo = build_paper_topology()
        assert load_topology(json.loads(json.dumps(topo.document()))) == topo

    @pytest.mark.parametrize("case", BAD_TOPOLOGY_DOCUMENTS)
    def test_bad_value_is_a_named_error(self, case):
        document, names = BAD_TOPOLOGY_DOCUMENTS[case]
        with pytest.raises(TopologyError, match=re.escape(names)):
            load_topology(document)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_on_random_topologies(self, seed):
        topo = random_connected_topology(seed)
        assert load_topology(json.loads(json.dumps(topo.document()))) == topo


class TestAllPairsShortestPaths:
    def test_user_to_level4_is_three_hops(self, paper):
        topo, paths = paper
        for sid in topo.server_ids:
            if topo.node_map[sid].level == 4:
                switch = topo.attached_switch(sid)
                assert paths.hops_between(topo.user_switch, switch) == 3

    def test_diagonal_is_zero(self, paper):
        _, paths = paper
        assert np.all(np.diag(paths.hops) == 0)
        assert np.all(np.diag(paths.delay_ms) == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_hops_match_bfs_on_unit_delay_graphs(self, seed):
        topo = random_connected_topology(seed, unit_delays=True)
        paths = all_pairs_shortest_paths(topo)
        assert np.array_equal(paths.hops, bfs_hop_matrix(topo))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetry_and_triangle_inequality(self, seed):
        topo = random_connected_topology(seed)
        paths = all_pairs_shortest_paths(topo)
        assert np.array_equal(paths.hops, paths.hops.T)
        assert np.allclose(paths.delay_ms, paths.delay_ms.T)
        for m in range(len(paths.switch_ids)):
            via = paths.hops[:, [m]] + paths.hops[[m], :]
            assert (paths.hops <= via).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_next_hop_walk_matches_hops_and_delay(self, seed):
        topo = random_connected_topology(seed)
        paths = all_pairs_shortest_paths(topo)
        delay = {link.key: link.delay_ms for link in topo.links}
        ids = paths.switch_ids
        for a in ids:
            for b in ids:
                walk = paths.path(a, b)
                assert len(walk) - 1 == paths.hops_between(a, b)
                total = sum(
                    delay[tuple(sorted((x, y), key=natural_key))] for x, y in zip(walk, walk[1:])
                )
                assert total == pytest.approx(paths.delay_between(a, b), abs=1e-9)

    def test_arrays_are_read_only(self):
        paths = all_pairs_shortest_paths(random_connected_topology(5))
        for array in (paths.hops, paths.delay_ms, paths.next_hop):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_deterministic_tie_break_prefers_early_switch(self, paper):
        topo, paths = paper
        # both level-2 switches reach s4 at equal cost; the earlier id wins
        assert paths.path("s1", "s4") == ("s1", "s2", "s4")
        assert paths.path("s1", "s7") == ("s1", "s2", "s4", "s7")


class TestServerFeatures:
    def test_level2_server_point(self, paper):
        topo, paths = paper
        features = server_features(topo, paths)
        by_server = dict(zip(features.server_ids, features.points))
        assert by_server["h2"] == (1.0, 12.0)

    def test_per_level_mean_delays(self, paper):
        topo, paths = paper
        features = server_features(topo, paths)
        delays = {2: [], 3: [], 4: []}
        for sid, point in zip(features.server_ids, features.points):
            delays[topo.node_map[sid].level].append(point[1])
        means = {lvl: sum(v) / len(v) for lvl, v in delays.items()}
        assert means[2] == pytest.approx(12.0, abs=1e-9)
        assert means[3] == pytest.approx(22.0, abs=1e-9)
        assert means[4] == pytest.approx(30.33, abs=1e-9)

    def test_server_on_user_switch_gets_origin_point(self):
        doc = {
            "nodes": [
                {"id": "s1", "kind": "switch"},
                {"id": "s2", "kind": "switch"},
                {"id": "u1", "kind": "user_host"},
                {"id": "v1", "kind": "server_host"},
            ],
            "links": [
                {"a": "s1", "b": "s2", "delay_ms": 5.0, "capacity_mbps": 100.0},
                {"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
                {"a": "v1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
            ],
            "user_switch": "s1",
        }
        topo = load_topology(doc)
        features = server_features(topo, all_pairs_shortest_paths(topo))
        assert features.points == ((0.0, 0.0),)

    def test_feature_order_is_natural(self, paper):
        topo, paths = paper
        features = server_features(topo, paths)
        assert list(features.server_ids) == sorted(features.server_ids, key=natural_key)
        assert features.server_ids[-1] == "h10"


def test_natural_key_orders_numeric_suffixes():
    assert sorted(["h10", "h2", "h1", "s3"], key=natural_key) == ["h1", "h2", "h10", "s3"]


def test_natural_key_sorts_non_decimal_digits_as_text():
    assert natural_key("h1²") == ((1, "h"), (0, 1), (1, "²"))
    assert natural_key("①") == ((1, "①"),)
    assert sorted(["²", "h10", "h1²", "h1"], key=natural_key) == ["h1", "h1²", "h10", "²"]


def test_ids_with_non_decimal_digits_load_and_sort_deterministically():
    document = paper_document_renamed(NON_DECIMAL_DIGIT_IDS)
    topo = load_topology(document)
    reversed_document = {**document, "nodes": document["nodes"][::-1], "links": document["links"][::-1]}
    assert load_topology(reversed_document) == topo
    ids = [n.id for n in topo.nodes]
    assert set(NON_DECIMAL_DIGIT_IDS.values()) <= set(ids)
    assert ids == sorted(ids, key=natural_key)
    assert topo.attached_switch("h1²") == "²"


def test_natural_key_is_computed_once_per_id():
    natural_key.cache_clear()
    topo = build_paper_topology()
    assert natural_key.cache_info().misses == len(topo.nodes)
    assert natural_key.cache_info().hits > 0


def test_natural_key_memo_is_bounded():
    maxsize = natural_key.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize >= 4 * 900  # scale L ids, several times
    natural_key.cache_clear()
    ids = [f"x{i}y" for i in range(maxsize + 500)]
    keys = [natural_key(i) for i in ids]
    assert natural_key.cache_info().currsize == maxsize
    assert keys[0] == natural_key(ids[0]) == ((1, "x"), (0, 0), (1, "y"))  # recomputed after eviction
    assert natural_key.cache_info().currsize <= maxsize
    natural_key.cache_clear()


def test_node_rejects_bad_level():
    with pytest.raises(TopologyError):
        Node("s1", NodeKind.SWITCH, level=0)


def test_topology_requires_one_user_host():
    nodes = (
        Node("s1", NodeKind.SWITCH),
        Node("v1", NodeKind.SERVER_HOST),
    )
    from sdnlb.topology import Link

    links = (Link("v1", "s1", 0.0, 100.0),)
    with pytest.raises(TopologyError, match="user_host"):
        Topology(nodes=nodes, links=links, user_switch="s1")


def test_paths_features_and_fingerprint_are_computed_once():
    topo = build_paper_topology()
    assert topo.paths is topo.paths
    assert topo.features is topo.features
    assert topo.features == server_features(topo, all_pairs_shortest_paths(topo))
    assert np.array_equal(topo.paths.hops, all_pairs_shortest_paths(topo).hops)
    with pytest.raises(ValueError, match="read-only"):
        topo.paths.hops[0, 0] = 5
    assert topo.fingerprint() == build_paper_topology().fingerprint()


def test_attached_switch_names_an_id_that_is_no_node():
    topo = build_paper_topology()
    assert topo.attached_switch("h10") == "s7"
    with pytest.raises(TopologyError, match="^unknown node id 'h99'$"):
        topo.attached_switch("h99")
    with pytest.raises(TopologyError, match="^'s1' is a switch, not a host$"):
        topo.attached_switch("s1")


def test_adjacency_and_switch_index_are_built_once_and_read_only():
    topo = random_connected_topology(3)
    assert topo.adjacency is topo.adjacency
    assert topo.switch_index is topo.switch_index
    with pytest.raises(TypeError):
        topo.switch_index["s1"] = 5
    with pytest.raises(TypeError):
        topo.adjacency["s1"] = ()
    assert dict(topo.switch_index) == {s: i for i, s in enumerate(topo.switch_ids)}
    assert topo.paths.index is topo.switch_index
    for node in topo.nodes:
        expected = sorted(
            [l.b for l in topo.links if l.a == node.id] + [l.a for l in topo.links if l.b == node.id],
            key=natural_key,
        )
        assert sorted(topo.adjacency[node.id], key=natural_key) == expected
    for server in topo.server_ids:
        assert topo.attached_switch(server) == topo.adjacency[server][0]
