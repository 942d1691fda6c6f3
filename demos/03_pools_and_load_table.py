"""Round-robin pools, request dispatch, and the capacity/load sweep over k.

Pools are priority-ordered (nearest cluster first). Dispatching requests
round-robin inside a pool keeps per-server counts within one of each other.
The sweep shows the capacity/balance trade-off: storage capacity scales
with k while the worst-case per-server load follows R / (k * (n - k + 1)),
minimized mid-range.
"""

from sdnlb import EqualPerCluster, build_paper_topology, build_plan, distribute_requests, table1

plan = build_plan(build_paper_topology(), 3, "kmeans", 0)
pools = plan.pools()

print("pools (priority order):")
for pool in pools.pools:
    print(f"  pool {pool.cluster_index}: {', '.join(pool.members)}  centroid {pool.centroid}")

print("\nten sequential requests to the nearest pool:")
print(" ", [pools.pool(0).take() for _ in range(10)])

print("\n30 requests split equally over the three pools, counted from each cursor:")
counts = distribute_requests(pools, 30, EqualPerCluster())  # moves no cursor; servers in pool order
for server, count in counts.items():
    print(f"  {server:<4} {count}")

print("\ncontroller-style pool export:")
for entry in plan.export["pools"]:
    members = ", ".join(m["address_label"] for m in entry["members"])
    print(f"  {entry['pool_id']} ({entry['policy']}): {members}")

print("\ncapacity/load sweep for 30 requests over 9 servers:")
print(f"  {'k':>2} {'avg servers':>12} {'capacity':>9} {'worst-case load':>16}")
for row in table1(9, 30):
    print(
        f"  {row.k:>2} {float(row.avg_servers_per_cluster):>12.3f} "
        f"{row.capacity_multiplier_pct:>8}% {float(row.avg_load_largest_cluster):>16.3f}"
    )
