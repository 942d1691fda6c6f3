import dataclasses
import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnlb.clustering import ClusteringConfig, kmeans_cluster, spectral_cluster
from sdnlb.topology import (
    FeatureSet,
    Link,
    Node,
    NodeKind,
    PathMatrix,
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
    CHAIN_BOUND_S,
    NON_DECIMAL_DIGIT_IDS,
    bfs_hop_matrix,
    chain_document,
    count_builds,
    layered_topology,
    paper_document_renamed,
    random_connected_topology,
)

LAYERED_SHAPES = [(3, 2, 1), (4, 3, 2), (5, 4, 1), (6, 3, 2)]


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
    def test_path_walk_matches_hops_and_delay(self, seed):
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
        for array in (paths.hops, paths.delay_ms, paths.parent):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_deterministic_tie_break_prefers_early_switch(self, paper):
        topo, paths = paper
        # both level-2 switches reach s4 at equal cost; the earlier id wins
        assert paths.path("s1", "s4") == ("s1", "s2", "s4")
        assert paths.path("s1", "s7") == ("s1", "s2", "s4", "s7")

    def test_a_1000_switch_chain_in_bounded_time(self):
        topo = load_topology(chain_document(1000))
        start = time.perf_counter()
        paths = all_pairs_shortest_paths(topo)
        assert time.perf_counter() - start < CHAIN_BOUND_S
        assert paths.hops_between("s1", "s1000") == paths.hops_between("s1000", "s1") == 999
        assert paths.path("s1000", "s998") == ("s1000", "s999", "s998")


@st.composite
def tied_graphs(draw) -> Topology:
    """Random connected switch graphs on s1..sn, the user switch anywhere,
    with unit delays (or, half the time, delays of 0, 0.5, 1 or 2 ms) so
    that many routes tie in (hops, delay); every sum is exact."""
    n = draw(st.integers(1, 14))
    switches = [f"s{i}" for i in range(1, n + 1)]
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    if n > 1:
        pairs |= draw(st.sets(st.sampled_from([(i, j) for j in range(n) for i in range(j)]), max_size=20))
    unit = draw(st.booleans())
    user = draw(st.sampled_from(switches))
    nodes = [Node(s, NodeKind.SWITCH) for s in switches] + [Node("u1", NodeKind.USER_HOST)]
    links = [Link("u1", user, 0.0, 100.0)]
    for i, j in sorted(pairs):
        delay = 1.0 if unit else draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        links.append(Link(switches[i], switches[j], delay, 100.0))
    return Topology(nodes=tuple(nodes), links=tuple(links), user_switch=user)


def assert_user_row_is_the_tree(topo: Topology) -> None:
    """The user switch's row of all_pairs_shortest_paths is Topology.tree,
    exactly, and the routes and features read off the tree agree with it."""
    paths = all_pairs_shortest_paths(topo)
    user, ids, row = topo.user_switch, topo.switch_ids, topo.switch_index[topo.user_switch]
    assert list(topo.tree) == list(topo.routes) and set(topo.tree) == set(ids)
    for switch, (hops, delay, parent) in topo.tree.items():
        j = topo.switch_index[switch]
        assert hops == paths.hops_between(user, switch)
        assert delay == topo.routes[switch].delay_ms == paths.delay_between(user, switch)
        assert parent == (None if j == row else ids[paths.parent[row, j]])
        path = paths.path(user, switch)
        assert topo.routes[switch].path == path
        assert topo.routes[switch].links == tuple(tuple(sorted(ab, key=natural_key)) for ab in zip(path, path[1:]))
    if topo.server_ids:
        assert topo.features == server_features(topo, paths)


def assert_tie_rule(topo: Topology, paths: PathMatrix, source: str) -> None:
    """From source: hops are BFS hops; each delay is the least offer of a
    predecessor one hop nearer, and the parent is the least such predecessor
    (switch_ids order) that offers it; paths are prefix-closed and their
    delay is the left-to-right sum of their link delays."""
    ids, index, row = topo.switch_ids, topo.switch_index, topo.switch_index[source]
    delay = {link.key: link.delay_ms for link in topo.links}
    bfs = bfs_hop_matrix(topo)[row]
    assert np.array_equal(paths.hops[row], bfs)
    for switch in ids:
        j = index[switch]
        hops, total, parent = paths.hops[row, j], paths.delay_ms[row, j], paths.parent[row, j]
        path = paths.path(source, switch)
        assert path[0] == source and path[-1] == switch and len(path) == hops + 1
        walked = 0.0
        for i, (a, b) in enumerate(zip(path, path[1:])):
            assert paths.path(source, path[i]) == path[: i + 1]  # prefix-closed
            walked += delay[tuple(sorted((a, b), key=natural_key))]
        assert walked == total  # the left-to-right sum
        if switch == source:
            assert parent == -1 and total == 0.0
            continue
        offers = {
            p: paths.delay_ms[row, index[p]] + delay[tuple(sorted((p, switch), key=natural_key))]
            for p in topo.adjacency[switch]
            if p in index and paths.hops[row, index[p]] + 1 == hops
        }
        assert total == min(offers.values())
        assert ids[parent] == min((p for p, d in offers.items() if d == total), key=index.__getitem__)


def assert_tie_rule_on_every_row(topo: Topology) -> None:
    paths = all_pairs_shortest_paths(topo)
    for source in topo.switch_ids:
        assert_tie_rule(topo, paths, source)


class TestRouteTree:
    """Topology.tree, the routes and features read off it, against the user
    row of all_pairs_shortest_paths; and every row against the tie rule."""

    def test_paper_topology_user_row_is_the_tree(self):
        topo = build_paper_topology()
        assert_user_row_is_the_tree(topo)
        assert topo.routes["s7"].path == ("s1", "s2", "s4", "s7")
        assert topo.routes["s7"].links == (("s1", "s2"), ("s2", "s4"), ("s4", "s7"))

    @pytest.mark.parametrize("seed", range(20))
    def test_unit_delay_user_row_is_the_tree(self, seed):
        assert_user_row_is_the_tree(random_connected_topology(seed, unit_delays=True))

    @pytest.mark.parametrize("shape", LAYERED_SHAPES, ids=str)
    def test_layered_user_row_is_the_tree(self, shape):
        assert_user_row_is_the_tree(layered_topology(*shape))

    def test_float_delay_user_row_is_the_tree(self):
        for seed in range(100):
            assert_user_row_is_the_tree(random_connected_topology(seed))

    def test_tied_route_follows_the_least_parent(self):
        # spec: s7 has two tied predecessors, s6 and s8; every route from s1
        # takes the least, s6
        topo = random_connected_topology(851, unit_delays=True)
        assert topo.routes["s7"].path == ("s1", "s10", "s6", "s7")
        assert all_pairs_shortest_paths(topo).path("s1", "s7") == ("s1", "s10", "s6", "s7")

    @pytest.mark.parametrize("seed", [851, 1189, 1585])
    def test_every_path_from_the_user_is_its_route(self, seed):
        topo = random_connected_topology(seed, unit_delays=True)
        paths = all_pairs_shortest_paths(topo)
        for switch in topo.switch_ids:
            assert paths.path(topo.user_switch, switch) == topo.routes[switch].path

    @settings(max_examples=150, deadline=None)
    @given(tied_graphs())
    def test_tie_rule(self, topo):
        assert_user_row_is_the_tree(topo)
        assert_tie_rule_on_every_row(topo)

    def test_tie_rule_on_unit_delay_graphs(self):
        for seed in range(200):
            assert_tie_rule_on_every_row(random_connected_topology(seed, unit_delays=True))

    def test_tree_routes_and_features_are_built_once_and_read_only(self):
        topo = random_connected_topology(3)
        assert topo.tree is topo.tree and topo.routes is topo.routes and topo.features is topo.features
        with pytest.raises(TypeError):
            topo.tree["s1"] = None
        with pytest.raises(TypeError):
            topo.routes["s1"] = None


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

    def test_array_is_built_once_and_read_only(self):
        topo = layered_topology(4, 3, 2)
        features = topo.features
        array = features.array
        assert features.array is array and array.shape == (len(features), 2)
        assert array.tolist() == [list(p) for p in features.points]
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 9.0
        # each re-plan of one topology reads the same array and answers as
        # a fresh one
        config = ClusteringConfig(k=3)
        first = kmeans_cluster(features, config)
        spectral_cluster(topo, config)
        assert kmeans_cluster(features, config) == first == kmeans_cluster(layered_topology(4, 3, 2).features, config)
        assert features.array is array and array.tolist() == [list(p) for p in features.points]

    def test_points_and_ids_of_differing_length_are_refused(self):
        with pytest.raises(TopologyError, match="^points and server_ids must be parallel$"):
            FeatureSet(((1.0, 12.0),), ("h2", "h3"))

    def test_feature_order_is_natural(self, paper):
        topo, paths = paper
        features = server_features(topo, paths)
        assert list(features.server_ids) == sorted(features.server_ids, key=natural_key)
        assert features.server_ids[-1] == "h10"


def test_natural_key_orders_numeric_suffixes():
    assert sorted(["h10", "h2", "h1", "s3", "h01"], key=natural_key) == ["h01", "h1", "h2", "h10", "s3"]


def test_natural_key_sorts_non_decimal_digits_as_text():
    assert natural_key("h1²") == ((1, "h"), (0, 1), (1, "²"), (-1, "h1²"))
    assert natural_key("①") == ((1, "①"), (-1, "①"))
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
    assert keys[0] == natural_key(ids[0]) == ((1, "x"), (0, 0), (1, "y"), (-1, "x0y"))  # recomputed after eviction
    assert natural_key.cache_info().currsize <= maxsize
    natural_key.cache_clear()


def test_node_rejects_bad_level():
    with pytest.raises(TopologyError):
        Node("s1", NodeKind.SWITCH, level=0)


class TestValueTypes:
    """Node and Link are slotted, with hand-written constructors; they keep
    the dataclass semantics that a generated constructor gave them."""

    def test_link_ends_are_ordered_and_equal_either_way(self):
        swapped, ordered = Link("s2", "s1", 1.0, 100.0), Link("s1", "s2", 1.0, 100.0)
        assert swapped == ordered and hash(swapped) == hash(ordered)
        assert (swapped.a, swapped.b) == ("s1", "s2") and swapped.key == ("s1", "s2")
        assert Link("h10", "h2", 0.0, 1.0).key == ("h2", "h10")
        assert Link("s1", "s2", 1.0, 100.0) != Link("s1", "s2", 2.0, 100.0)

    def test_repr_and_fields_are_the_dataclass_ones(self):
        assert repr(Link("s2", "s1", 1.0, 100.0)) == "Link(a='s1', b='s2', delay_ms=1.0, capacity_mbps=100.0)"
        assert repr(Node("s1", NodeKind.SWITCH, 2, "x")) == (
            "Node(id='s1', kind=<NodeKind.SWITCH: 'switch'>, level=2, label='x')"
        )
        assert [f.name for f in dataclasses.fields(Link)] == ["a", "b", "delay_ms", "capacity_mbps"]
        assert [f.name for f in dataclasses.fields(Node)] == ["id", "kind", "level", "label"]
        # no per-instance dict: a loaded topology holds hundreds of each
        assert not hasattr(Link("s1", "s2", 1.0, 100.0), "__dict__")
        assert not hasattr(Node("s1", NodeKind.SWITCH), "__dict__")

    def test_fields_cannot_be_assigned(self):
        link, node = Link("s1", "s2", 1.0, 100.0), Node("s1", NodeKind.SWITCH)
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.delay_ms = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.level = 3
        assert link.delay_ms == 1.0 and node.level is None

    def test_replace_and_construction_check_as_before(self):
        link = Link("s2", "s1", 1.0, 100.0)
        assert dataclasses.replace(link, delay_ms=2.0) == Link("s1", "s2", 2.0, 100.0)
        with pytest.raises(TopologyError, match=r"^link s1-s2: delay_ms must be within \[0, 1e\+09\]$"):
            dataclasses.replace(link, delay_ms=-1.0)
        with pytest.raises(TopologyError, match="^link s2-s1: capacity_mbps must be finite and > 0$"):
            Link("s2", "s1", 1.0, float("inf"))
        with pytest.raises(TopologyError, match="^link endpoints must differ \\(got 's1' twice\\)$"):
            Link("s1", "s1", 1.0, 100.0)
        with pytest.raises(TopologyError, match="^node 's1': level must be >= 1$"):
            Node("s1", NodeKind.SWITCH, level=0)
        with pytest.raises(TopologyError, match="^node id must be a non-empty string$"):
            Node("", NodeKind.SWITCH)

    def test_positional_and_keyword_construction_agree(self):
        assert Link("s2", "s1", 1.0, 100.0) == Link(b="s1", a="s2", capacity_mbps=100.0, delay_ms=1.0)
        node = Node(id="h1", kind=NodeKind.USER_HOST, label="10.0.0.1")
        assert node == Node("h1", NodeKind.USER_HOST, None, "10.0.0.1") and node.display == "10.0.0.1"
        assert Node("s1", NodeKind.SWITCH) == Node("s1", NodeKind.SWITCH, level=None, label=None)


def test_topology_requires_one_user_host():
    nodes = (
        Node("s1", NodeKind.SWITCH),
        Node("v1", NodeKind.SERVER_HOST),
    )
    from sdnlb.topology import Link

    links = (Link("v1", "s1", 0.0, 100.0),)
    with pytest.raises(TopologyError, match="user_host"):
        Topology(nodes=nodes, links=links, user_switch="s1")


def test_tree_and_features_are_computed_once(monkeypatch):
    tree_builds = count_builds(monkeypatch, Topology, "tree")
    topo = build_paper_topology()
    assert tree_builds == [topo]  # validation builds the tree
    assert topo.tree is topo.tree and topo.features is topo.features
    assert topo.features == server_features(topo, all_pairs_shortest_paths(topo))
    assert tree_builds == [topo]


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
    assert all_pairs_shortest_paths(topo).index is topo.switch_index
    assert topo.switch_links is topo.switch_links and isinstance(topo.switch_links, tuple)
    by_switch = {s: [] for s in topo.switch_ids}
    for l in topo.links:
        if l.a in by_switch and l.b in by_switch:
            by_switch[l.a].append((l.b, l.delay_ms))
            by_switch[l.b].append((l.a, l.delay_ms))
    assert [[(topo.switch_ids[j], d) for j, d in pairs] for pairs in topo.switch_links] == list(by_switch.values())
    assert all(isinstance(pairs, tuple) for pairs in topo.switch_links)
    for node in topo.nodes:
        expected = sorted(
            [l.b for l in topo.links if l.a == node.id] + [l.a for l in topo.links if l.b == node.id],
            key=natural_key,
        )
        assert sorted(topo.adjacency[node.id], key=natural_key) == expected
    for server in topo.server_ids:
        assert topo.attached_switch(server) == topo.adjacency[server][0]
