"""Server clustering: k-means++ on (hops, delay) features and spectral
clustering on the switch adjacency graph.

Both paths share the same seeded D²-sampling initializer, Lloyd refiner and
model builder, so a fixed seed yields a bit-identical model on every run.
cluster() is the one entry point that picks a method by name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64
from .topology import FeatureSet, Topology

METHODS = ("kmeans", "spectral")
MAX_ITERATIONS = 100
RESTARTS = 10
EIGENGAP_TOL = 1e-9


class ClusteringError(ValueError):
    """Invalid clustering input or configuration."""


@dataclass(frozen=True)
class ClusteringConfig:
    k: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ClusteringError("k must be >= 1")


@dataclass(frozen=True)
class ClusterModel:
    """Point-to-cluster assignment with per-cluster centroid statistics.

    assignment is parallel to the FeatureSet it was fitted on; centroids are
    (mean_hops, mean_delay_ms) in original feature units; sse is measured in
    the space the clustering actually ran in (the spectral embedding for
    spectral clustering). Labels are canonical: clusters are numbered by
    priority rank, ascending by (mean_hops, mean_delay_ms). sse_trace
    records per-iteration SSE of the winning run.
    """

    assignment: tuple[int, ...]
    centroids: tuple[tuple[float, float], ...]
    sse: float
    sse_trace: tuple[float, ...]

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)

    @property
    def priority_order(self) -> tuple[int, ...]:
        """Cluster indices, nearest first: the labels are priority ranks."""
        return tuple(range(self.n_clusters))


def effective_k(requested_k: int, n_points: int) -> int:
    """Cluster count actually used: the requested k, capped at the number
    of points available."""
    if requested_k < 1 or n_points < 1:
        raise ClusteringError("requested_k and n_points must be >= 1")
    return min(requested_k, n_points)


# -- k-means++ core ---------------------------------------------------------


def _squared_distances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each center to each point. columns is the
    points' (d, n) transpose and centers is (..., d); the result is
    (..., n). Coordinates are summed left to right, (p_0 - c_0)² +
    (p_1 - c_1)² + …, into one array with the points innermost, so no array
    carries a d axis. For d < 8 this is numpy's last-axis sum bit for bit;
    from d = 8 numpy sums pairwise and the last bit can differ."""
    dist2 = np.subtract(columns[0], centers[..., 0, None])
    np.square(dist2, out=dist2)
    term = np.empty_like(dist2)
    for j in range(1, len(columns)):
        np.subtract(columns[j], centers[..., j, None], out=term)
        dist2 += np.square(term, out=term)
    return dist2


def _d2_seed(points: np.ndarray, k: int, seeds: list[int]) -> np.ndarray:
    """D²-sampling, one run per seed, all runs at once: first center
    uniform, later centers proportional to the squared distance to the
    nearest chosen center. If all remaining mass is zero (duplicate points),
    the next center is uniform among points. Each run draws from its own
    SplitMix64(seed) and sums its own (n,) row of squared distances, so it
    picks what a lone run would. Returns an (R, k, d) array, R = len(seeds)."""
    n = len(points)
    if not 1 <= k <= n:
        raise ClusteringError(f"cannot seed {k} centers from {n} points")
    columns = np.ascontiguousarray(points.T)
    rngs = [SplitMix64(seed) for seed in seeds]
    chosen = np.empty((len(rngs), k), dtype=np.int64)
    chosen[:, 0] = [rng.below(n) for rng in rngs]
    d2 = _squared_distances(columns, points[chosen[:, 0]])
    for j in range(1, k):
        totals = d2.sum(axis=1).tolist()
        cumulative = np.cumsum(d2, axis=1)
        u = np.zeros(len(rngs))
        uniform = {}  # runs with no mass left: a uniform pick
        for r, (rng, total) in enumerate(zip(rngs, totals)):
            if total > 0.0:
                u[r] = rng.random() * total
            else:
                uniform[r] = rng.below(n)
        # searchsorted(side="right") on every nondecreasing row at once
        chosen[:, j] = np.minimum(np.count_nonzero(cumulative <= u[:, None], axis=1), n - 1)
        for r, pick in uniform.items():
            chosen[r, j] = pick
        np.minimum(d2, _squared_distances(columns, points[chosen[:, j]]), out=d2)
    return points[chosen]


def kmeanspp_seed(features: FeatureSet, k: int, rng_seed: int) -> np.ndarray:
    """Pick k initial centroids from the feature points (deterministic for a
    given rng_seed). Returns a (k, 2) array."""
    return _d2_seed(features.array, k, [rng_seed])[0]


def _reseed_empty(
    dist2: np.ndarray, assignment: np.ndarray, k: int
) -> np.ndarray:
    """Move the point farthest from its assigned centroid into each empty
    cluster, taking it from a cluster of two or more (one exists: k <= n)."""
    assignment = assignment.copy()
    for cluster in range(k):
        if (assignment == cluster).any():
            continue
        counts = np.bincount(assignment, minlength=k)
        movable = counts[assignment] >= 2
        cost = np.where(movable, dist2[np.arange(len(assignment)), assignment], -1.0)
        assignment[int(cost.argmax())] = cluster
    return assignment


def _lloyd(
    points: np.ndarray, initial_centroids: np.ndarray
) -> list[tuple[np.ndarray, float, tuple[float, ...]]]:
    """Lloyd refinement of R runs at once from (R, k, d) initial centroids.
    Each run stops at its own fixed point (an assignment that the round did
    not change) or after MAX_ITERATIONS rounds. A run at its fixed point is
    recomputed unchanged until every run stops, but records no more rounds.
    A round's squared distances are one (R, k, n) array, summed coordinate
    by coordinate (see _squared_distances); each cluster's coordinate sums
    run in point order, one bincount per coordinate. Each run does the float
    operations of a lone run in the same order, so its result is
    bit-identical to the per-run loop. Returns each run's (assignment, sse,
    sse_trace)."""
    runs, k, d = initial_centroids.shape
    n = len(points)
    if k < 1:
        raise ClusteringError("need at least one initial centroid")
    if k > n:
        raise ClusteringError("more initial centroids than points")

    centroids = initial_centroids
    columns = np.ascontiguousarray(points.T)
    weights = np.tile(columns, runs)  # each coordinate column, once per run
    offsets = np.arange(runs)[:, None] * k  # run r's clusters are r*k .. r*k+k-1
    assignment = np.full((runs, n), -1, dtype=np.int64)
    traces: list[list[float]] = [[] for _ in range(runs)]
    active = np.ones(runs, dtype=bool)
    errors: dict[int, str] = {}
    for _ in range(MAX_ITERATIONS):
        dist2 = _squared_distances(columns, centroids)
        new_assignment = dist2.argmin(axis=1)  # ties go to the lowest index
        counts = np.bincount((new_assignment + offsets).ravel(), minlength=runs * k).reshape(runs, k)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            new_assignment[r] = _reseed_empty(dist2[r].T, new_assignment[r], k)
            counts[r] = np.bincount(new_assignment[r], minlength=k)
        del dist2  # the one (runs, k, n) array: gone before the next round makes its own
        labels = (new_assignment + offsets).ravel()
        sums = np.stack([np.bincount(labels, weights=w, minlength=runs * k) for w in weights], axis=1)
        centroids = (sums / counts.reshape(runs * k, 1)).reshape(runs, k, d)
        residual = points - np.take(centroids.reshape(runs * k, d), labels, axis=0).reshape(runs, n, d)
        sse = np.square(residual, out=residual).reshape(runs, n * d).sum(axis=1).tolist()
        for r in np.flatnonzero(active):
            trace = traces[r]
            if trace and sse[r] > trace[-1] + 1e-9:
                errors[r] = f"Lloyd SSE increased from {trace[-1]} to {sse[r]}"
                active[r] = False
            else:
                trace.append(sse[r])
        active &= ~(new_assignment == assignment).all(axis=1)
        assignment = new_assignment
        if not active.any():
            break
    if errors:  # the earliest run's, as if the runs went one after another
        raise ClusteringError(errors[min(errors)])
    return [(assignment[r], sse[r], tuple(traces[r])) for r in range(runs)]


def lloyd(
    features: FeatureSet, initial_centroids: np.ndarray, config: ClusteringConfig
) -> ClusterModel:
    """Run Lloyd refinement from the given centroids over raw features
    (config is accepted for symmetry with kmeans_cluster; nothing in it
    changes the refinement)."""
    initial = np.asarray(initial_centroids, dtype=float)[None]
    return _model_from(features.array, *_lloyd(features.array, initial)[0])


def _model_from(
    points: np.ndarray, assignment: np.ndarray, sse: float, trace: tuple[float, ...]
) -> ClusterModel:
    """The one model builder: each centroid is its cluster's mean raw (hops,
    delay); clusters are renumbered by priority rank (0 = nearest), so equal
    partitions serialize identically whatever the seed."""
    counts = np.bincount(assignment)
    # each cluster's coordinate sums in point order, then one division: for
    # the 2-column features, what points[assignment == c].mean(axis=0) gives
    means = [np.bincount(assignment, weights=column) / counts for column in points.T]
    centroids = list(zip(*(m.tolist() for m in means)))
    order = sorted(range(len(centroids)), key=centroids.__getitem__)  # stable: ties keep label order
    relabel = {old: new for new, old in enumerate(order)}
    return ClusterModel(
        assignment=tuple(map(relabel.__getitem__, assignment.tolist())),
        centroids=tuple(centroids[old] for old in order),
        sse=sse,
        sse_trace=trace,
    )


def _best_of_restarts(
    points: np.ndarray, k: int, config: ClusteringConfig
) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """RESTARTS seeded runs, seeded and refined together; keeps the
    lowest-SSE run (ties: earliest restart). Returns its (assignment, sse,
    sse_trace)."""
    seed_stream = SplitMix64(config.rng_seed)
    seeds = [seed_stream.next_u64() for _ in range(RESTARTS)]
    runs = _lloyd(points, _d2_seed(points, k, seeds))
    return min(runs, key=lambda run: run[1])  # min keeps the first of equals


def kmeans_cluster(features: FeatureSet, config: ClusteringConfig) -> ClusterModel:
    """k-means++ with Lloyd refinement over (hops, delay) server features.

    Runs RESTARTS seeded restarts and keeps the lowest-SSE model.
    """
    k = effective_k(config.k, len(features))
    points = features.array
    return _model_from(points, *_best_of_restarts(points, k, config))


# -- spectral clustering ----------------------------------------------------


def sym_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (numpy.linalg.eigh).

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ClusteringError("matrix must be square")
    if A.size and float(np.abs(A - A.T).max()) > 1e-9:
        raise ClusteringError("matrix must be symmetric within 1e-9")
    return np.linalg.eigh((A + A.T) / 2.0)


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2)."""
    A = np.asarray(adjacency, dtype=float)
    degrees = A.sum(axis=1)
    zero = np.flatnonzero(degrees == 0.0)
    if zero.size:
        raise ClusteringError(f"vertex {int(zero[0])} has degree 0")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # a 0/1 A makes entries (i, j) and (j, i) one product: exactly symmetric
    return np.eye(len(A)) - inv_sqrt[:, None] * A * inv_sqrt[None, :]


def spectral_embedding(adjacency: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k smallest Laplacian eigenvectors, normalized to unit
    length (zero rows are left as zeros).

    If lambda_k and lambda_k+1 tie (within EIGENGAP_TOL), any basis of the
    tied eigenspace is as valid as any other, so the embedding keeps only
    the eigenvectors strictly below the tied group and the result does not
    depend on the basis the solver picked.
    """
    L = normalized_laplacian(adjacency)
    values, vectors = sym_eigendecomposition(L)
    if k < len(values) and values[k] - values[k - 1] <= EIGENGAP_TOL:
        tied_from = k - 1
        while tied_from > 0 and values[tied_from] - values[tied_from - 1] <= EIGENGAP_TOL:
            tied_from -= 1
        k = tied_from
    embedding = vectors[:, :k].copy()
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0.0
    embedding[nonzero] /= norms[nonzero, None]
    return embedding


def spectral_cluster(topology: Topology, config: ClusteringConfig) -> ClusterModel:
    """Cluster the switch graph spectrally and map servers to their
    switch's cluster.

    The Laplacian covers all switches; the embedded k-means runs on the
    rows of server-bearing switches only, so every cluster owns at least
    one server. Centroids are reported in (hops, delay) units for
    comparability with the feature-space path.

    The bearing switches can have fewer distinct embedding rows than k. Lloyd
    then splits identical rows by switch_ids order, whatever the seed: each
    row goes to its nearest centroid (the lowest-numbered one on ties), and
    a cluster left empty takes the row farthest from its centroid among
    clusters of two or more (the earliest in switch_ids order on ties). If
    all bearing rows are equal, the first k - 1 bearing switches each get a
    cluster of their own and the rest share one. Clusters are then numbered
    by their servers' mean (hops, delay), as for k-means.
    """
    for sid, neighbours in zip(topology.switch_ids, topology.switch_links):
        if not neighbours:
            raise ClusteringError(
                f"switch '{sid}' has no switch links; spectral clustering needs degree >= 1"
            )

    adjacency = topology.switch_adjacency()
    features = topology.features
    # each server's switch as a switch_ids row; bearing lists those rows once,
    # in switch_ids order, and row_of_server maps each server to its place there
    switch_rows = [topology.switch_index[topology.adjacency[s][0]] for s in features.server_ids]
    bearing, row_of_server = np.unique(switch_rows, return_inverse=True)
    k = effective_k(config.k, len(bearing))

    rows = spectral_embedding(adjacency, k)[bearing]
    switch_assignment, sse, trace = _best_of_restarts(rows, k, config)
    return _model_from(features.array, switch_assignment[row_of_server], sse, trace)


def cluster(topology: Topology, config: ClusteringConfig, method: str) -> ClusterModel:
    """Cluster the topology's servers with the named method (one of METHODS)."""
    features = topology.features  # first: every method refuses a server-less topology alike
    if method == "kmeans":
        return kmeans_cluster(features, config)
    if method == "spectral":
        return spectral_cluster(topology, config)
    raise ClusteringError(f"method must be one of {METHODS}, got {method!r}")


# -- serialization ----------------------------------------------------------


def cluster_model_document(model: ClusterModel, features: FeatureSet) -> dict:
    """Wire format shared by the REST service and the CLI."""
    sizes = Counter(model.assignment)
    return {
        "k": model.n_clusters,
        "servers": [
            {"server_id": sid, "cluster": int(c)}
            for sid, c in zip(features.server_ids, model.assignment)
        ],
        "centroids": [
            {
                "cluster": c,
                "mean_hops": model.centroids[c][0],
                "mean_delay_ms": model.centroids[c][1],
                "size": sizes[c],
            }
            for c in range(model.n_clusters)
        ],
        "priority_order": list(model.priority_order),
        "sse": model.sse,
    }
