"""Build the bundled 4-level topology and inspect shortest paths.

The reference data plane has a user switch (s1) at level 1 and two server
switches per level below it: one holding a single server host, one holding
two. Every switch links to all switches of the next level, so each level
contributes three servers and sits one hop further from the user.
"""

import numpy as np

from sdnlb import all_pairs_shortest_paths, build_paper_topology

topo = build_paper_topology()

print("nodes:")
for node in topo.nodes:
    print(f"  {node.id:<4} {node.kind.value:<12} level={node.level}")

print("\nswitch-to-switch links (delay ms):")
for link in topo.links:
    if link.a.startswith("s") and link.b.startswith("s"):
        print(f"  {link.a} - {link.b}  {link.delay_ms:g} ms  {link.capacity_mbps:g} Mbps")

# All-pairs shortest paths over the switch graph: fewest hops, then least
# accumulated delay, each row the shortest-path tree from its switch. The
# pipeline itself needs only the user switch's row, which the topology
# computed when it was validated: its routes (topo.routes) are exactly the
# row's paths from s1, and its features the row's hops and delays.
paths = all_pairs_shortest_paths(topo)
print("\nhop matrix (rows/cols:", ", ".join(paths.switch_ids), ")")
print(paths.hops)
print("\naccumulated delay matrix (ms):")
print(np.round(paths.delay_ms, 2))

print("\nchosen route s1 -> s7:", " -> ".join(paths.path("s1", "s7")))

# Each server becomes a 2-D point: hops and delay from the user switch to
# its attached switch. These points are the clustering input.
features = topo.features
print("\nserver features (hops, delay ms):")
for server, point in zip(features.server_ids, features.points):
    print(f"  {server:<4} ({point[0]:g}, {point[1]:g})")
