import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdnlb.clustering import (
    ClusteringConfig,
    ClusteringError,
    cluster,
    cluster_model_document,
    effective_k,
    kmeans_cluster,
    kmeanspp_seed,
    lloyd,
    normalized_laplacian,
    spectral_cluster,
    spectral_embedding,
    sym_eigendecomposition,
)
from sdnlb.topology import (
    FeatureSet,
    all_pairs_shortest_paths,
    build_paper_topology,
    server_features,
)

from helpers import brute_force_kmeans, random_connected_topology


@pytest.fixture(scope="module")
def paper_features():
    topo = build_paper_topology()
    return topo, server_features(topo, all_pairs_shortest_paths(topo))


def feature_set(points) -> FeatureSet:
    return FeatureSet(
        points=tuple((float(x), float(y)) for x, y in points),
        server_ids=tuple(f"v{i}" for i in range(len(points))),
    )


def random_feature_set(rnd: random.Random, max_points: int = 8) -> FeatureSet:
    n = rnd.randint(2, max_points)
    return feature_set([(rnd.uniform(0, 10), rnd.uniform(0, 40)) for _ in range(n)])


class TestEffectiveK:
    @pytest.mark.parametrize("requested,n,expected", [(3, 9, 3), (5, 2, 2), (1, 1, 1)])
    def test_examples(self, requested, n, expected):
        assert effective_k(requested, n) == expected

    @given(st.integers(1, 100), st.integers(1, 100))
    def test_is_min(self, k, n):
        assert effective_k(k, n) == min(k, n)

    def test_rejects_non_positive(self):
        with pytest.raises(ClusteringError):
            effective_k(0, 5)


class TestSeeding:
    def test_single_point(self):
        features = feature_set([(4.0, 2.0)])
        assert kmeanspp_seed(features, 1, rng_seed=7).tolist() == [[4.0, 2.0]]

    def test_k_equal_to_point_count_selects_every_point(self):
        points = [(0.0, 0.0), (1.0, 5.0), (9.0, 2.0), (3.0, 3.0)]
        features = feature_set(points)
        for seed in range(25):
            centers = kmeanspp_seed(features, 4, rng_seed=seed)
            assert sorted(map(tuple, centers.tolist())) == sorted(points)

    def test_rejects_k_above_point_count(self):
        with pytest.raises(ClusteringError):
            kmeanspp_seed(feature_set([(0, 0), (1, 1)]), 3, rng_seed=0)

    def test_separated_pairs_get_one_center_each(self):
        # D-squared mass on the far pair dwarfs the near neighbour
        points = [(0.0, 0.0), (0.0, 1.0), (100.0, 100.0), (100.0, 101.0)]
        features = feature_set(points)
        hits = 0
        for seed in range(1000):
            centers = kmeanspp_seed(features, 2, rng_seed=seed)
            sides = {int(c[0] > 50.0) for c in centers.tolist()}
            hits += sides == {0, 1}
        assert hits / 1000 >= 0.99

    def test_duplicate_points_fall_back_to_uniform(self):
        features = feature_set([(1.0, 1.0)] * 3)
        centers = kmeanspp_seed(features, 3, rng_seed=11)
        assert centers.tolist() == [[1.0, 1.0]] * 3

    def test_frequencies_match_exact_d2_probabilities(self):
        # 10^5 seeded draws on a 4-point instance, checked within 3 sigma
        points = [(0.0, 0.0), (0.0, 2.0), (10.0, 0.0), (10.0, 2.0)]
        features = feature_set(points)
        arr = np.asarray(points)
        trials = 100_000

        exact_second = np.zeros(4)
        for first in range(4):
            d2 = ((arr - arr[first]) ** 2).sum(axis=1)
            exact_second += 0.25 * d2 / d2.sum()

        first_counts = np.zeros(4)
        second_counts = np.zeros(4)
        lookup = {tuple(p): i for i, p in enumerate(points)}
        for seed in range(trials):
            centers = kmeanspp_seed(features, 2, rng_seed=seed)
            first_counts[lookup[tuple(centers[0])]] += 1
            second_counts[lookup[tuple(centers[1])]] += 1

        for j in range(4):
            sigma = math.sqrt(trials * 0.25 * 0.75)
            assert abs(first_counts[j] - trials * 0.25) <= 3 * sigma
            p = exact_second[j]
            sigma = math.sqrt(trials * p * (1 - p))
            assert abs(second_counts[j] - trials * p) <= 3 * sigma


class TestLloyd:
    def test_paper_features_group_by_level(self, paper_features):
        topo, features = paper_features
        config = ClusteringConfig(k=3, rng_seed=5)
        model = lloyd(features, kmeanspp_seed(features, 3, rng_seed=5), config)
        assert sorted(c[0] for c in model.centroids) == [1.0, 2.0, 3.0]
        by_cluster = {}
        for sid, cluster in zip(features.server_ids, model.assignment):
            by_cluster.setdefault(cluster, set()).add(topo.node_map[sid].level)
        assert all(len(levels) == 1 for levels in by_cluster.values())

    def test_k1_centroid_is_mean(self):
        features = feature_set([(0.0, 0.0), (2.0, 4.0), (4.0, 2.0)])
        model = lloyd(features, np.array([[9.0, 9.0]]), ClusteringConfig(k=1))
        assert model.centroids == ((2.0, 2.0),)
        assert model.priority_order == (0,)

    def test_tie_breaks_toward_lowest_cluster_index(self):
        features = feature_set([(2.0, 0.0), (4.0, 0.0)])
        model = lloyd(features, np.array([[1.0, 0.0], [3.0, 0.0]]), ClusteringConfig(k=2))
        assert model.assignment == (0, 1)

    def test_empty_cluster_reseeded_with_farthest_point(self):
        features = feature_set([(0.0, 0.0), (1.0, 0.0)])
        model = lloyd(features, np.array([[0.0, 0.0], [100.0, 0.0]]), ClusteringConfig(k=2))
        assert sorted(model.assignment) == [0, 1]
        assert model.sse == 0.0

    def test_rejects_more_centroids_than_points(self):
        features = feature_set([(0.0, 0.0)])
        with pytest.raises(ClusteringError):
            lloyd(features, np.zeros((2, 2)), ClusteringConfig(k=2))

    def test_sse_trace_is_monotone_non_increasing(self):
        rnd = random.Random(4)
        for _ in range(30):
            features = random_feature_set(rnd)
            k = rnd.randint(1, min(3, len(features)))
            seed = rnd.randrange(2**32)
            model = lloyd(features, kmeanspp_seed(features, k, seed), ClusteringConfig(k=k))
            trace = model.sse_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_sse_increase_is_a_named_error(self, monkeypatch):
        # duplicate points leave cluster 1 empty on every round; the second
        # reseed is replaced by a worse assignment, so SSE rises from 0 to 50
        import sdnlb.clustering

        reseed = sdnlb.clustering._reseed_empty
        calls = []

        def worse_on_second_call(dist2, assignment, k):
            calls.append(k)
            return reseed(dist2, assignment, k) if len(calls) == 1 else np.array([2, 0, 1, 0])

        monkeypatch.setattr(sdnlb.clustering, "_reseed_empty", worse_on_second_call)
        features = feature_set([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (10.0, 0.0)])
        initial = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ClusteringError, match="SSE increased from 0.0 to 50.0"):
            lloyd(features, initial, ClusteringConfig(k=3))
        assert len(calls) == 2

    def test_best_of_50_seeds_reaches_brute_force_optimum(self):
        rnd = random.Random(99)
        for _ in range(10):
            features = random_feature_set(rnd)
            k = rnd.randint(1, min(3, len(features)))
            optimum = brute_force_kmeans(features, k)
            best = min(
                lloyd(features, kmeanspp_seed(features, k, seed), ClusteringConfig(k=k)).sse
                for seed in range(50)
            )
            assert best <= optimum * 1.0001 + 1e-9


class TestKMeansCluster:
    def test_priority_order_walks_levels_outward(self, paper_features):
        _, features = paper_features
        model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
        ordered = [model.centroids[c] for c in model.priority_order]
        assert [c[0] for c in ordered] == [1.0, 2.0, 3.0]

    def test_centroid_delays_match_derived_profile(self, paper_features):
        _, features = paper_features
        model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
        ordered = [model.centroids[c][1] for c in model.priority_order]
        assert ordered == pytest.approx([12.0, 22.0, 30.33], abs=0.01)

    def test_k9_gives_singletons_with_zero_sse(self, paper_features):
        _, features = paper_features
        model = kmeans_cluster(features, ClusteringConfig(k=9, rng_seed=3))
        assert model.sse == 0.0
        assert sorted(model.assignment) == list(range(9))

    def test_k_above_point_count_is_capped(self, paper_features):
        _, features = paper_features
        model = kmeans_cluster(features, ClusteringConfig(k=50, rng_seed=3))
        assert model.n_clusters == 9

    def test_fixed_seed_is_bit_identical(self, paper_features):
        _, features = paper_features
        config = ClusteringConfig(k=3, rng_seed=42)
        assert kmeans_cluster(features, config) == kmeans_cluster(features, config)

    def test_every_cluster_non_empty_on_random_instances(self):
        rnd = random.Random(7)
        for _ in range(25):
            features = random_feature_set(rnd)
            k = rnd.randint(1, len(features))
            model = kmeans_cluster(features, ClusteringConfig(k=k, rng_seed=rnd.randrange(2**32)))
            assert set(model.assignment) == set(range(model.n_clusters))
            for point, cluster in zip(features.array, model.assignment):
                dists = ((np.asarray(model.centroids) - point) ** 2).sum(axis=1)
                assert dists[cluster] <= dists.min() + 1e-9


class TestBruteForce:
    def test_identical_points_k1(self):
        assert brute_force_kmeans(feature_set([(1, 1), (1, 1)]), 1) == 0.0

    def test_hand_enumerable_instance(self):
        features = feature_set([(0.0, 0.0), (0.0, 2.0), (10.0, 0.0), (10.0, 2.0)])
        assert brute_force_kmeans(features, 2) == pytest.approx(4.0)

    def test_k_equal_n_is_zero(self):
        features = feature_set([(0, 0), (3, 1), (8, 5)])
        assert brute_force_kmeans(features, 3) == 0.0

    def test_rejects_large_instances(self):
        with pytest.raises(ClusteringError):
            brute_force_kmeans(feature_set([(i, 0) for i in range(11)]), 2)


class TestSimilarityMatrix:
    """Spectral clustering's similarity matrix is Topology.switch_adjacency()."""

    def test_two_linked_switches(self):
        topo = random_connected_topology(0, max_switches=2)
        assert topo.switch_adjacency().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_paper_topology_adjacency(self):
        topo = build_paper_topology()
        sim = topo.switch_adjacency()
        idx = {s: i for i, s in enumerate(topo.switch_ids)}
        assert sim[idx["s1"], idx["s2"]] == 1.0
        assert sim[idx["s1"], idx["s3"]] == 1.0
        assert sim[idx["s1"], idx["s4"]] == 0.0  # level 3 not adjacent to level 1
        assert sim[idx["s2"], idx["s3"]] == 0.0  # no intra-level links

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_link_enumeration_and_symmetry(self, seed):
        topo = random_connected_topology(seed)
        sim = topo.switch_adjacency()
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == 0.0)
        idx = {s: i for i, s in enumerate(topo.switch_ids)}
        expected = np.zeros_like(sim)
        for link in topo.links:
            if link.a in idx and link.b in idx:
                expected[idx[link.a], idx[link.b]] = 1.0
                expected[idx[link.b], idx[link.a]] = 1.0
        assert np.array_equal(sim, expected)


def char_poly_roots_3x3(matrix: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial oracle for 3x3 symmetric matrices."""
    a = matrix
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    m2 = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    det = float(np.linalg.det(a))
    return np.sort(np.roots([1.0, -tr, m2, -det]).real)


class TestEigendecomposition:
    def test_identity(self):
        values, vectors = sym_eigendecomposition(np.eye(3))
        assert values.tolist() == [1.0, 1.0, 1.0]
        assert np.allclose(vectors @ vectors.T, np.eye(3), atol=1e-12)

    def test_analytic_2x2(self):
        values, _ = sym_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert values == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ClusteringError, match="symmetric"):
            sym_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_and_orthonormality_6x6(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(6, 6))
        m = (m + m.T) / 2
        values, vectors = sym_eigendecomposition(m)
        assert np.abs(vectors @ np.diag(values) @ vectors.T - m).max() < 1e-7
        assert np.abs(vectors.T @ vectors - np.eye(6)).max() < 1e-8
        assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_3x3_matches_characteristic_polynomial_roots(self, seed):
        rng = np.random.default_rng(seed + 100)
        m = rng.normal(size=(3, 3))
        m = (m + m.T) / 2
        values, _ = sym_eigendecomposition(m)
        assert values == pytest.approx(char_poly_roots_3x3(m), abs=1e-6)


def two_cliques_adjacency(sizes=(3, 3)) -> np.ndarray:
    n = sum(sizes)
    adj = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        adj[block, block] = 1.0
        start += size
    np.fill_diagonal(adj, 0.0)
    return adj


class TestSpectral:
    def test_two_disconnected_cliques_split_cleanly(self):
        adj = two_cliques_adjacency((3, 3))
        embedding = spectral_embedding(adj, 2)
        from sdnlb.clustering import _best_of_restarts

        assignment, _, _, _ = _best_of_restarts(embedding, 2, ClusteringConfig(k=2, rng_seed=0))
        groups = {tuple(assignment[:3]), tuple(assignment[3:])}
        assert groups == {(0, 0, 0), (1, 1, 1)}

    def test_embedding_rows_unit_norm(self):
        topo = build_paper_topology()
        embedding = spectral_embedding(topo.switch_adjacency(), 3)
        assert np.linalg.norm(embedding, axis=1) == pytest.approx([1.0] * 7, abs=1e-8)

    @staticmethod
    def partition(topo, model):
        by_cluster = {}
        for sid, c in zip(topo.features.server_ids, model.assignment):
            by_cluster.setdefault(c, set()).add(sid)
        return set(map(frozenset, by_cluster.values()))

    PAPER_LEVELS = {
        frozenset({"h2", "h3", "h4"}),
        frozenset({"h5", "h6", "h7"}),
        frozenset({"h8", "h9", "h10"}),
    }

    def test_paper_topology_golden_partition(self):
        # the Laplacian spectrum is [0, .592, 1, 1, 1, 1.408, 2]: the
        # eigenvalue 1 crosses the k = 3 boundary, so the embedding keeps the
        # two eigenvectors below it and the partition is the level partition
        topo = build_paper_topology()
        model = spectral_cluster(topo, ClusteringConfig(k=3, rng_seed=0))
        assert model.assignment == (0, 0, 0, 1, 1, 1, 2, 2, 2)
        assert self.partition(topo, model) == self.PAPER_LEVELS
        assert model.centroids == ((1.0, 12.0), (2.0, 22.0), (3.0, 30.33))

    def test_paper_partition_ignores_basis_of_tied_eigenspace(self, monkeypatch):
        import sdnlb.clustering

        topo = build_paper_topology()
        solve = sdnlb.clustering.sym_eigendecomposition
        rng = np.random.default_rng(2007)
        rotated = []

        def rotating_solve(matrix):
            values, vectors = solve(matrix)
            tied = np.flatnonzero(np.abs(values - 1.0) < 1e-9)
            assert tied.tolist() == [2, 3, 4]
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            vectors = vectors.copy()
            vectors[:, tied] = vectors[:, tied] @ q
            assert np.abs(vectors @ np.diag(values) @ vectors.T - matrix).max() < 1e-9
            rotated.append(vectors)
            return values, vectors

        monkeypatch.setattr(sdnlb.clustering, "sym_eigendecomposition", rotating_solve)
        for _ in range(20):
            model = spectral_cluster(topo, ClusteringConfig(k=3, rng_seed=0))
            assert self.partition(topo, model) == self.PAPER_LEVELS
        assert len(rotated) == 20
        assert not np.allclose(rotated[0], rotated[1])

    def test_paper_partition_ignores_seed(self):
        topo = build_paper_topology()
        for seed in range(10):
            model = spectral_cluster(topo, ClusteringConfig(k=3, rng_seed=seed))
            assert self.partition(topo, model) == self.PAPER_LEVELS

    def test_embedding_stops_below_a_tie_across_k(self):
        adjacency = build_paper_topology().switch_adjacency()
        assert spectral_embedding(adjacency, 2).shape == (7, 2)  # 0.592 < 1
        assert spectral_embedding(adjacency, 3).shape == (7, 2)  # 1 = 1 = 1
        assert spectral_embedding(adjacency, 4).shape == (7, 2)
        assert spectral_embedding(adjacency, 5).shape == (7, 5)  # 1 < 1.408
        assert spectral_embedding(adjacency, 7).shape == (7, 7)

    def test_spectral_is_deterministic(self):
        topo = build_paper_topology()
        config = ClusteringConfig(k=3, rng_seed=0)
        assert spectral_cluster(topo, config) == spectral_cluster(topo, config)

    @pytest.mark.parametrize("seed", range(20))
    def test_laplacian_eigenvalues_within_bounds(self, seed):
        topo = random_connected_topology(seed, max_switches=10)
        laplacian = normalized_laplacian(topo.switch_adjacency())
        values, _ = sym_eigendecomposition(laplacian)
        assert values[0] >= -1e-8
        assert values[-1] <= 2.0 + 1e-8

    def test_isolated_switch_is_named(self):
        # a single-switch topology has no switch links at all
        doc = {
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
        from sdnlb.topology import load_topology

        with pytest.raises(ClusteringError, match="s1"):
            spectral_cluster(load_topology(doc), ClusteringConfig(k=1))

    def test_every_spectral_cluster_owns_a_server(self):
        for seed in range(10):
            topo = random_connected_topology(seed, max_switches=8, max_servers=4)
            k = min(2, len({topo.attached_switch(s) for s in topo.server_ids}))
            model = spectral_cluster(topo, ClusteringConfig(k=k, rng_seed=seed))
            assert set(model.assignment) == set(range(model.n_clusters))


class TestClusterEntryPoint:
    def test_dispatches_by_method_name(self):
        topo = build_paper_topology()
        config = ClusteringConfig(k=3, rng_seed=0)
        assert cluster(topo, config) == kmeans_cluster(topo.features, config)
        assert cluster(topo, config, "spectral") == spectral_cluster(topo, config)

    def test_unknown_method_is_named(self):
        with pytest.raises(ClusteringError, match="'ward'"):
            cluster(build_paper_topology(), ClusteringConfig(k=3), "ward")


def test_cluster_model_document_shape(paper_features):
    _, features = paper_features
    model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
    doc = cluster_model_document(model, features)
    assert doc["k"] == 3
    assert len(doc["servers"]) == 9
    assert {c["size"] for c in doc["centroids"]} == {3}
    assert sorted(doc["priority_order"]) == [0, 1, 2]
    assert doc["sse"] == 0.0
