import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnlb.clustering import (
    METHODS,
    RESTARTS,
    ClusterModel,
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
from sdnlb.rng import SplitMix64
from sdnlb.topology import (
    FeatureSet,
    TopologyError,
    all_pairs_shortest_paths,
    build_paper_topology,
    load_topology,
    server_features,
)

import golden
from helpers import brute_force_kmeans, random_connected_topology, restarts_oracle, squared_distances_oracle
from test_input_contract import GENERATED_DOCUMENTS


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


@pytest.mark.parametrize("n", [0, -3])
def test_below_an_empty_range_is_refused(n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        SplitMix64(0).below(n)


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

    @pytest.mark.parametrize("k", [3, 0, -1])
    def test_rejects_k_above_point_count(self, k):
        with pytest.raises(ClusteringError, match=f"cannot seed {k} centers from 2 points"):
            kmeanspp_seed(feature_set([(0, 0), (1, 1)]), k, rng_seed=0)

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

    def test_rejects_zero_centroids(self):
        with pytest.raises(ClusteringError, match="need at least one initial centroid"):
            lloyd(feature_set([(0.0, 0.0)]), np.zeros((0, 2)), ClusteringConfig(k=1))

    def test_stops_only_at_a_fixed_point(self):
        # near-duplicate points (1e-10 apart) move SSE by less than 1e-9 per
        # round; each of the runs refined together still runs until no point
        # changes cluster, whenever the other runs stop
        from sdnlb.clustering import _d2_seed, _lloyd

        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(6, 21)), int(rng.integers(2, 5))
            base = rng.random((n // 3, 2))
            points = base[rng.integers(0, len(base), n)] + rng.integers(-1, 2, size=(n, 2)) * 1e-10
            for assignment, _, trace in _lloyd(points, _d2_seed(points, k, [seed, seed + 300, seed + 600])):
                centroids = np.stack([points[assignment == c].mean(axis=0) for c in range(k)])
                nearest = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
                assert np.array_equal(nearest, assignment), seed
                assert trace[-1] == trace[-2], seed  # the last round changed nothing

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

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(["random", "grid", "duplicates"]),
        n=st.integers(1, 40),
        d=st.integers(1, 16),
        k=st.integers(1, 10),
        rng_seed=st.integers(0, 2**64 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_restarts_match_the_per_restart_loop(self, shape, n, d, k, rng_seed, data_seed):
        # the restarts run as one array pass; every run must do the same
        # float operations in the same order as a lone run, bit for bit
        from sdnlb.clustering import _best_of_restarts, _d2_seed, _lloyd

        rng = np.random.default_rng(data_seed)
        if shape == "random":
            points = rng.random((n, d)) * 10.0 ** int(rng.integers(0, 7))
        elif shape == "grid":
            points = rng.integers(0, 4, (n, d)).astype(float)
        else:  # k can exceed the distinct points: Lloyd reseeds empty clusters
            base = rng.random((int(rng.integers(1, 4)), d))
            points = base[rng.integers(0, len(base), n)]
        k = min(k, n)
        config = ClusteringConfig(k=k, rng_seed=rng_seed)
        winner, expected = restarts_oracle(points, k, config)
        stream = SplitMix64(rng_seed)
        runs = _lloyd(points, _d2_seed(points, k, [stream.next_u64() for _ in range(RESTARTS)]))
        assert len(runs) == len(expected)
        for (assignment, sse, trace), (want_assignment, want_sse, want_trace) in zip(runs, expected):
            assert np.array_equal(assignment, want_assignment)
            assert sse == want_sse and trace == want_trace
        assignment, sse, trace = _best_of_restarts(points, k, config)
        assert np.array_equal(assignment, expected[winner][0])
        assert (sse, trace) == expected[winner][1:]

    @pytest.mark.parametrize("d", range(1, 17))
    def test_squared_distances_sum_coordinates_left_to_right(self, d):
        # the one distance rule of seeding and Lloyd; for d <= 7 it is also
        # numpy's last-axis sum, which is why the pinned outputs hold
        from sdnlb.clustering import _squared_distances

        rng = np.random.default_rng(d)
        points = rng.random((50, d)) * 10.0 ** rng.integers(-3, 7, d)
        for centers in (points[rng.integers(0, 50, (4, 3))], points[rng.integers(0, 50, 4)]):
            got = _squared_distances(np.ascontiguousarray(points.T), centers)
            assert got.shape == centers.shape[:-1] + (50,)
            expected = squared_distances_oracle(points, centers[..., None, :])
            assert np.array_equal(got, expected)
            if d <= 7:
                assert np.array_equal(got, ((points - centers[..., None, :]) ** 2).sum(axis=-1))

    def test_lloyd_holds_no_array_with_a_feature_axis(self):
        # a round's (R, k, n) distances and the (R, k, n) term added to them
        # are its largest arrays: nothing of size R * n * k * d
        import tracemalloc

        from sdnlb.clustering import _d2_seed, _lloyd

        n, k, d, runs = 400, 200, 2, 10
        points = np.random.default_rng(5).random((n, d))
        initial = _d2_seed(points, k, list(range(runs)))
        tracemalloc.start()
        try:
            _lloyd(points, initial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * runs * k * n * 8

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

    @pytest.mark.parametrize("seed", range(10))
    def test_centroids_are_the_cluster_means_bit_for_bit(self, seed):
        # the model builder sums each cluster in point order; on 2-column
        # features that is numpy's mean over the cluster's rows
        from sdnlb.clustering import _model_from

        rng = np.random.default_rng(seed)
        points = np.column_stack([rng.integers(0, 9, 300).astype(float), rng.random(300) * 10.0 ** rng.integers(0, 4)])
        k = int(rng.integers(1, 12))
        assignment = np.concatenate([np.arange(k), rng.integers(0, k, 300 - k)])
        model = _model_from(points, assignment, 0.0, (0.0,))
        means = sorted(tuple(map(float, points[assignment == c].mean(axis=0))) for c in range(k))
        assert list(model.centroids) == means


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

    def test_rejects_non_square(self):
        with pytest.raises(ClusteringError, match="matrix must be square"):
            sym_eigendecomposition(np.zeros((2, 3)))

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

        assignment, _, _ = _best_of_restarts(embedding, 2, ClusteringConfig(k=2, rng_seed=0))
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

    def test_laplacian_of_a_switch_graph_is_exactly_symmetric(self):
        # normalized_laplacian does not symmetrize: entries (i, j) and (j, i)
        # of a 0/1 adjacency are the same product of the two inverse roots
        topologies = {f"golden {case}": golden._topology(case) for case in golden.case_names()}
        topologies.update({f"generated {name}": load_topology(doc) for name, doc in GENERATED_DOCUMENTS.items()})
        single = [name for name, topo in topologies.items() if len(topo.switch_ids) < 2]
        assert single == ["golden one-switch", "golden no-server"]  # no switch links: refused
        for name, topo in topologies.items():
            if name not in single:
                laplacian = normalized_laplacian(topo.switch_adjacency())
                assert np.array_equal(laplacian, laplacian.T), name

    def test_laplacian_names_an_isolated_vertex(self):
        adjacency = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ClusteringError, match="vertex 2 has degree 0"):
            normalized_laplacian(adjacency)

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

    @pytest.mark.parametrize(
        "topology_seed, assignment",
        [(1, (1, 1, 0, 1)), (5, (1, 0))],
    )
    def test_identical_rows_split_in_switch_order_for_every_seed(self, topology_seed, assignment):
        # seed 1: one embedding column and one row for its three bearing
        # switches; seed 5: two columns, but its two bearing switches share a row
        topo = random_connected_topology(topology_seed, max_switches=8, max_servers=4)
        for rng_seed in range(20):
            model = spectral_cluster(topo, ClusteringConfig(k=2, rng_seed=rng_seed))
            assert model.assignment == assignment, rng_seed


class TestClusterEntryPoint:
    def test_dispatches_by_method_name(self):
        topo = build_paper_topology()
        config = ClusteringConfig(k=3, rng_seed=0)
        assert cluster(topo, config, "kmeans") == kmeans_cluster(topo.features, config)
        assert cluster(topo, config, "spectral") == spectral_cluster(topo, config)

    def test_unknown_method_is_named(self):
        with pytest.raises(ClusteringError, match="'ward'"):
            cluster(build_paper_topology(), ClusteringConfig(k=3), "ward")

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_refuses_a_topology_without_servers_alike(self, method):
        # one switch and no switch links: spectral would refuse its degree instead
        topo = load_topology({
            "nodes": [{"id": "s1", "kind": "switch"}, {"id": "u1", "kind": "user_host"}],
            "links": [{"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0}],
            "user_switch": "s1",
        })
        with pytest.raises(TopologyError, match="^feature set must contain at least one server$"):
            cluster(topo, ClusteringConfig(k=1), method)


@pytest.mark.parametrize(
    "case", [f"random-{seed}" for seed in range(10)] + ["layered-" + "-".join(map(str, s)) for s in golden.LAYERED_SHAPES]
)
def test_centroids_are_the_mean_features_of_nonempty_clusters(case):
    # both methods fit a partition; a model's centroid is its cluster's mean
    # raw (hops, delay), whatever space the partition was found in
    topo = golden._topology(case)
    by_server = dict(zip(topo.features.server_ids, topo.features.points))
    for method in METHODS:
        for k in range(1, 6):
            model = cluster(topo, ClusteringConfig(k=k), method)
            members = {c: [] for c in range(model.n_clusters)}
            for sid, c in zip(topo.features.server_ids, model.assignment):
                members[c].append(by_server[sid])
            assert all(members.values()), (method, k)
            for c, points in members.items():
                assert model.centroids[c] == tuple(np.mean(points, axis=0).tolist()), (method, k, c)


def test_priority_order_is_derived_from_the_labels(paper_features):
    topo, features = paper_features
    assert "priority_order" not in {field.name for field in dataclasses.fields(ClusterModel)}
    for k in range(1, 6):
        for method in METHODS:
            model = cluster(topo, ClusteringConfig(k=k), method)
            assert model.priority_order == tuple(range(model.n_clusters))


def test_cluster_model_document_shape(paper_features):
    _, features = paper_features
    model = kmeans_cluster(features, ClusteringConfig(k=3, rng_seed=0))
    doc = cluster_model_document(model, features)
    assert doc["k"] == 3
    assert len(doc["servers"]) == 9
    assert {c["size"] for c in doc["centroids"]} == {3}
    assert sorted(doc["priority_order"]) == [0, 1, 2]
    assert doc["sse"] == 0.0
