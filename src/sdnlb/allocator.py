"""Priority-ordered round-robin server pools and capacity/load analytics.

A Plan clusters a topology's servers once and builds the rest from that
model: one pool per cluster, ordered by (mean_hops, mean_delay_ms) so the
nearest cluster is served first, its wire document and its export. Request
dispatch rotates a cursor per pool, which bounds the per-server load skew
to one request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .clustering import ClusteringConfig, ClusterModel, cluster, cluster_model_document
from .topology import FeatureSet, Topology


class AllocationError(ValueError):
    """Invalid pool construction or dispatch target."""


@dataclass
class Pool:
    cluster_index: int
    members: tuple[str, ...]
    centroid: tuple[float, float]
    cursor: int = 0

    def __post_init__(self):
        if not self.members:
            raise AllocationError(f"pool {self.cluster_index} has no servers")
        if len(set(self.members)) != len(self.members):
            raise AllocationError(f"pool {self.cluster_index} has duplicate members")
        if not 0 <= self.cursor < len(self.members):
            raise AllocationError(f"pool {self.cluster_index}: cursor out of range")

    def take(self) -> str:
        """Return the next member and advance the cursor."""
        server = self.members[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.members)
        return server


@dataclass
class PoolSet:
    pools: list[Pool]

    def pool(self, cluster_index: int) -> Pool:
        for pool in self.pools:
            if pool.cluster_index == cluster_index:
                return pool
        raise AllocationError(f"no pool for cluster index {cluster_index}")

    def all_servers(self) -> tuple[str, ...]:
        return tuple(s for pool in self.pools for s in pool.members)

    def copy(self) -> "PoolSet":
        return PoolSet([replace(pool) for pool in self.pools])


# -- dispatch targets -------------------------------------------------------


@dataclass(frozen=True)
class EqualPerCluster:
    """Split requests evenly over pools; remainder goes to the
    highest-priority pools, one each."""


@dataclass(frozen=True)
class SingleCluster:
    cluster_index: int


@dataclass(frozen=True)
class SingleServer:
    server_id: str


Split = EqualPerCluster | SingleCluster | SingleServer


def build_pools(model: ClusterModel, features: FeatureSet) -> PoolSet:
    """One pool per cluster, members in feature (natural server-id) order,
    pools in cluster order (cluster 0 is the nearest), cursors at zero."""
    if len(model.assignment) != len(features.server_ids):
        raise AllocationError(
            f"model covers {len(model.assignment)} servers, features have {len(features.server_ids)}"
        )
    members: dict[int, list[str]] = {c: [] for c in range(model.n_clusters)}
    for server, cluster in zip(features.server_ids, model.assignment):
        members[cluster].append(server)
    return PoolSet(
        pools=[
            Pool(cluster, tuple(servers), model.centroids[cluster])
            for cluster, servers in members.items()
        ]
    )


@dataclass(frozen=True)
class Plan:
    """One clustering of a topology, keyed by the requested (k, method, seed);
    the document and the export are built on first use."""

    topology: Topology
    key: tuple[int, str, int]
    model: ClusterModel

    @cached_property
    def document(self) -> dict:
        """The `sdnlb cluster` document: method and seed, then the model."""
        _, method, seed = self.key
        return {"method": method, "seed": seed, **cluster_model_document(self.model, self.topology.features)}

    @cached_property
    def export(self) -> dict:
        """The pool export, members labelled with their node's display name."""
        return pool_export(self.pools(), {n.id: n.display for n in self.topology.nodes})

    def pools(self) -> PoolSet:
        """A fresh pool set, every cursor at zero."""
        return build_pools(self.model, self.topology.features)


def build_plan(topology: Topology, k: int, method: str, seed: int) -> Plan:
    """Cluster the topology's servers: every plan in the package starts here."""
    return Plan(topology, (k, method, seed), cluster(topology, ClusteringConfig(k=k, rng_seed=seed), method))


def _shares(pools: PoolSet, total_requests: int, split: Split) -> list[tuple[Pool, int]]:
    """The pools a split draws from, in order, with the requests each takes
    (a burst takes from a one-member pool of its own, so no cursor moves)."""
    if total_requests < 0:
        raise AllocationError("total_requests must be >= 0")
    if isinstance(split, SingleServer):
        for pool in pools.pools:
            if split.server_id in pool.members:
                return [(Pool(pool.cluster_index, (split.server_id,), pool.centroid), total_requests)]
        raise AllocationError(f"unknown server '{split.server_id}'")
    if isinstance(split, SingleCluster):
        return [(pools.pool(split.cluster_index), total_requests)]
    if isinstance(split, EqualPerCluster):
        if not pools.pools:
            raise AllocationError("an equal split needs at least one pool")
        base, remainder = divmod(total_requests, len(pools.pools))
        return [(pool, base + (1 if position < remainder else 0)) for position, pool in enumerate(pools.pools)]
    raise AllocationError(f"unknown split {split!r}")


def dispatch_sequence(pools: PoolSet, total_requests: int, split: Split) -> list[str]:
    """Ordered server assignments for total_requests under the given split.

    Advances pool cursors; the caller owns serialization of concurrent use.
    """
    return [pool.take() for pool, share in _shares(pools, total_requests, split) for _ in range(share)]


def distribute_requests(pools: PoolSet, total_requests: int, split: Split) -> dict[str, int]:
    """Per-server request counts for the split, zero-filled in pool order;
    it reads each cursor and moves none. An equal split over no pools, an
    unknown target or a negative count raises AllocationError. Counts are
    dispatch_sequence's in closed form: a share s over m members gives the
    one at offset i from the cursor s // m, plus one if i < s % m."""
    counts = dict.fromkeys(pools.all_servers(), 0)
    for pool, share in _shares(pools, total_requests, split):
        base, extra = divmod(share, len(pool.members))
        rotated = pool.members[pool.cursor:] + pool.members[: pool.cursor]
        for offset, server in enumerate(rotated):
            counts[server] += base + (offset < extra)
    return counts


# -- capacity / load analytics ----------------------------------------------


@dataclass(frozen=True)
class LoadSummary:
    """One column of the k-sweep comparison table, in exact rationals."""

    n_servers: int
    k: int
    requests: int
    avg_servers_per_cluster: Fraction
    capacity_multiplier_pct: int
    avg_load_largest_cluster: Fraction


def avg_load_largest_cluster(requests: int, k: int, n_servers: int) -> Fraction:
    """Average per-server load of the largest possible cluster.

    With k clusters over n servers, the extreme partition leaves one server
    in each of the other clusters, so the largest possible cluster holds
    n - k + 1 servers and a 1/k share of the requests lands on it:
    load = R / (k * (n - k + 1)).
    """
    if k < 1 or k > n_servers:
        raise AllocationError(f"k must be within [1, {n_servers}], got {k}")
    if requests < 0:
        raise AllocationError("requests must be >= 0")
    return Fraction(requests, k * (n_servers - k + 1))


def table1(n_servers: int, requests: int, k_range=None) -> list[LoadSummary]:
    """Capacity/load sweep over cluster counts (defaults to k = 1..n); a k
    outside [1, n] or a negative request count raises AllocationError."""
    if k_range is None:
        k_range = range(1, n_servers + 1)
    rows = []
    for k in k_range:
        load = avg_load_largest_cluster(requests, k, n_servers)  # checks k before Fraction(n, k)
        rows.append(
            LoadSummary(
                n_servers=n_servers,
                k=k,
                requests=requests,
                avg_servers_per_cluster=Fraction(n_servers, k),
                capacity_multiplier_pct=100 * k,
                avg_load_largest_cluster=load,
            )
        )
    return rows


def truncate_fraction(value: Fraction, decimals: int) -> str:
    """Truncate an exact rational toward zero at the given decimal count,
    dropping trailing zeros (matches human-typed table rendering)."""
    scale = 10**decimals
    scaled = abs(value) * scale
    whole, frac = divmod(scaled.numerator // scaled.denominator, scale)
    sign = "-" if value < 0 else ""
    digits = str(frac).rjust(decimals, "0").rstrip("0") if decimals else ""
    return f"{sign}{whole}.{digits}" if digits else f"{sign}{whole}"


# -- pool export (controller LB payload shape) -------------------------------


def pool_export(pools: PoolSet, labels: dict[str, str]) -> dict:
    """Controller-style load-balancer payload: one entry per pool with a
    vip label, member list, and the rotation policy. Field order is stable."""
    return {
        "pools": [
            {
                "pool_id": f"pool-{pool.cluster_index}",
                "vip_label": f"vip-{pool.cluster_index}",
                "members": [
                    {"server_id": s, "address_label": labels[s]} for s in pool.members
                ],
                "policy": "round-robin",
            }
            for pool in pools.pools
        ]
    }
