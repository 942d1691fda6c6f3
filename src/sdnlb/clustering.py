"""Server clustering: k-means++ on (hops, delay) features and spectral
clustering on the switch adjacency graph.

Both paths share the same seeded D²-sampling initializer and Lloyd refiner,
so a fixed seed yields a bit-identical model on every run. cluster() is the
one entry point that picks a method by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64
from .topology import FeatureSet, Topology

METHODS = ("kmeans", "spectral")
MAX_ITERATIONS = 100
TOLERANCE = 1e-9
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
    spectral clustering); priority_order lists cluster indices ascending by
    (mean_hops, mean_delay_ms). Labels are canonical: clusters are numbered
    by priority rank, so priority_order is the identity permutation.
    sse_trace records per-iteration SSE of the winning run.
    """

    assignment: tuple[int, ...]
    centroids: tuple[tuple[float, float], ...]
    sse: float
    priority_order: tuple[int, ...]
    sse_trace: tuple[float, ...]

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)


def effective_k(requested_k: int, n_points: int) -> int:
    """Cluster count actually used: the requested k, capped at the number
    of points available."""
    if requested_k < 1 or n_points < 1:
        raise ClusteringError("requested_k and n_points must be >= 1")
    return min(requested_k, n_points)


# -- k-means++ core ---------------------------------------------------------


def _d2_seed(points: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """D²-sampling: first center uniform, later centers proportional to the
    squared distance to the nearest chosen center. If all remaining mass is
    zero (duplicate points), the next center is uniform among points."""
    n = len(points)
    if k > n:
        raise ClusteringError(f"cannot seed {k} centers from {n} points")
    chosen = [rng.below(n)]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = float(d2.sum())
        if total > 0.0:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = rng.below(n)
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].astype(float).copy()


def kmeanspp_seed(features: FeatureSet, k: int, rng_seed: int) -> np.ndarray:
    """Pick k initial centroids from the feature points (deterministic for a
    given rng_seed). Returns a (k, 2) array."""
    return _d2_seed(features.array, k, SplitMix64(rng_seed))


def _reseed_empty(
    dist2: np.ndarray, assignment: np.ndarray, k: int
) -> np.ndarray:
    """Move the point farthest from its assigned centroid into each empty
    cluster (candidates only from clusters that keep >= 1 member)."""
    assignment = assignment.copy()
    for cluster in range(k):
        if (assignment == cluster).any():
            continue
        counts = np.bincount(assignment, minlength=k)
        movable = counts[assignment] >= 2
        if not movable.any():
            raise ClusteringError("more clusters than points; cannot fill empty cluster")
        cost = np.where(movable, dist2[np.arange(len(assignment)), assignment], -1.0)
        assignment[int(cost.argmax())] = cluster
    return assignment


def _lloyd(
    points: np.ndarray, initial_centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, tuple[float, ...]]:
    """Lloyd refinement, at most MAX_ITERATIONS rounds, stopping once the
    assignment is stable or SSE improves by less than TOLERANCE. Returns
    (assignment, centroids, sse, sse_trace)."""
    k = len(initial_centroids)
    if k < 1:
        raise ClusteringError("need at least one initial centroid")
    if k > len(points):
        raise ClusteringError("more initial centroids than points")

    centroids = np.asarray(initial_centroids, dtype=float)
    assignment = np.full(len(points), -1, dtype=np.int64)
    trace: list[float] = []
    prev_sse = math.inf
    sse = math.inf
    for _ in range(MAX_ITERATIONS):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = dist2.argmin(axis=1)  # ties go to the lowest index
        if (np.bincount(new_assignment, minlength=k) == 0).any():
            new_assignment = _reseed_empty(dist2, new_assignment, k)
        centroids = np.stack([points[new_assignment == c].mean(axis=0) for c in range(k)])
        sse = float(((points - centroids[new_assignment]) ** 2).sum())
        if trace and sse > trace[-1] + 1e-9:
            raise ClusteringError(f"Lloyd SSE increased from {trace[-1]} to {sse}")
        trace.append(sse)
        stable = bool(np.array_equal(new_assignment, assignment))
        assignment = new_assignment
        if stable or prev_sse - sse < TOLERANCE:
            break
        prev_sse = sse
    return assignment, centroids, sse, tuple(trace)


def lloyd(
    features: FeatureSet, initial_centroids: np.ndarray, config: ClusteringConfig
) -> ClusterModel:
    """Run Lloyd refinement from the given centroids over raw features
    (config is accepted for symmetry with kmeans_cluster; nothing in it
    changes the refinement)."""
    assignment, centroids, sse, trace = _lloyd(features.array, initial_centroids)
    return _model_from(assignment, centroids, sse, trace)


def _priority_order(centroids: np.ndarray) -> tuple[int, ...]:
    return tuple(
        sorted(range(len(centroids)), key=lambda c: (centroids[c][0], centroids[c][1], c))
    )


def _model_from(
    assignment: np.ndarray, centroids: np.ndarray, sse: float, trace: tuple[float, ...]
) -> ClusterModel:
    # canonical labels: clusters renumbered by priority rank (0 = nearest),
    # so identical partitions serialize identically regardless of seed
    order = _priority_order(centroids)
    relabel = {old: new for new, old in enumerate(order)}
    return ClusterModel(
        assignment=tuple(relabel[int(a)] for a in assignment),
        centroids=tuple((float(centroids[old][0]), float(centroids[old][1])) for old in order),
        sse=sse,
        priority_order=tuple(range(len(order))),
        sse_trace=trace,
    )


def _best_of_restarts(
    points: np.ndarray, k: int, config: ClusteringConfig
) -> tuple[np.ndarray, np.ndarray, float, tuple[float, ...]]:
    """Seeded restarts; keeps the lowest-SSE run (ties: earliest restart)."""
    seed_stream = SplitMix64(config.rng_seed)
    best = None
    for _ in range(RESTARTS):
        rng = SplitMix64(seed_stream.next_u64())
        initial = _d2_seed(points, k, rng)
        result = _lloyd(points, initial)
        if best is None or result[2] < best[2]:
            best = result
    return best


def kmeans_cluster(features: FeatureSet, config: ClusteringConfig) -> ClusterModel:
    """k-means++ with Lloyd refinement over (hops, delay) server features.

    Runs RESTARTS seeded restarts and keeps the lowest-SSE model.
    """
    k = effective_k(config.k, len(features))
    points = features.array
    assignment, centroids, sse, trace = _best_of_restarts(points, k, config)
    return _model_from(assignment, centroids, sse, trace)


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
    L = np.eye(len(A)) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
    return (L + L.T) / 2.0


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
    adjacency = topology.switch_adjacency()
    degrees = adjacency.sum(axis=1)
    for sid, degree in zip(topology.switch_ids, degrees):
        if degree == 0.0:
            raise ClusteringError(
                f"switch '{sid}' has no switch links; spectral clustering needs degree >= 1"
            )

    features = topology.features
    switch_index = topology.switch_index
    bearing = sorted(
        {topology.attached_switch(server) for server in features.server_ids},
        key=lambda s: switch_index[s],
    )
    k = effective_k(config.k, len(bearing))

    embedding = spectral_embedding(adjacency, k)
    rows = embedding[[switch_index[s] for s in bearing]]
    switch_assignment, _, sse, trace = _best_of_restarts(rows, k, config)
    by_switch = {s: int(c) for s, c in zip(bearing, switch_assignment)}

    assignment = np.asarray(
        [by_switch[topology.attached_switch(server)] for server in features.server_ids],
        dtype=np.int64,
    )
    raw = features.array
    centroids = np.stack([raw[assignment == c].mean(axis=0) for c in range(k)])
    return _model_from(assignment, centroids, sse, trace)


def cluster(topology: Topology, config: ClusteringConfig, method: str = "kmeans") -> ClusterModel:
    """Cluster the topology's servers with the named method (one of METHODS)."""
    if method == "kmeans":
        return kmeans_cluster(topology.features, config)
    if method == "spectral":
        return spectral_cluster(topology, config)
    raise ClusteringError(f"method must be one of {METHODS}, got {method!r}")


# -- serialization ----------------------------------------------------------


def cluster_model_document(model: ClusterModel, features: FeatureSet) -> dict:
    """Wire format shared by the REST service and the CLI."""
    sizes = [0] * model.n_clusters
    for c in model.assignment:
        sizes[c] += 1
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
