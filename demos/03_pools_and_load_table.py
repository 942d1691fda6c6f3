"""Round-robin pools, request dispatch, and the capacity/load sweep over k.

Pools are priority-ordered (nearest cluster first). Dispatching requests
round-robin inside a pool keeps per-server counts within one of each other.
The sweep shows the capacity/balance trade-off: storage capacity scales
with k while the worst-case per-server load follows R / (k * (n - k + 1)),
minimized mid-range.
"""

from sdnlb import (
    ClusteringConfig,
    EqualPerCluster,
    build_paper_topology,
    build_pools,
    distribute_requests,
    kmeans_cluster,
    pool_export,
    table1,
)

topo = build_paper_topology()
model = kmeans_cluster(topo.features, ClusteringConfig(k=3, rng_seed=0))
pools = build_pools(model, topo.features)

print("pools (priority order):")
for pool in pools.pools:
    print(f"  pool {pool.cluster_index}: {', '.join(pool.members)}  centroid {pool.centroid}")

print("\nten sequential requests to the nearest pool:")
print(" ", [pools.pool(0).take() for _ in range(10)])

print("\n30 requests split equally over the three pools:")
counts = distribute_requests(pools.copy(), 30, EqualPerCluster())
for server, count in counts.items():
    print(f"  {server:<4} {count}")

print("\ncontroller-style pool export:")
export = pool_export(pools, {n.id: n.display for n in topo.nodes})
for entry in export["pools"]:
    members = ", ".join(m["address_label"] for m in entry["members"])
    print(f"  {entry['pool_id']} ({entry['policy']}): {members}")

print("\ncapacity/load sweep for 30 requests over 9 servers:")
print(f"  {'k':>2} {'avg servers':>12} {'capacity':>9} {'worst-case load':>16}")
for row in table1(9, 30):
    print(
        f"  {row.k:>2} {float(row.avg_servers_per_cluster):>12.3f} "
        f"{row.capacity_multiplier_pct:>8}% {float(row.avg_load_largest_cluster):>16.3f}"
    )
