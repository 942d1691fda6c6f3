"""Partition the nine servers with k-means++ and with spectral clustering.

k-means++ runs on the (hops, delay) feature points; spectral clustering
embeds the switch adjacency graph through its normalized Laplacian and
clusters the server-bearing switches there. Both report centroids in
(hops, delay) units and order clusters nearest-first.
"""

from sdnlb import ClusteringConfig, build_paper_topology, kmeans_cluster, spectral_cluster

topo = build_paper_topology()
features = topo.features
config = ClusteringConfig(k=3, rng_seed=0)


def show(title, model):
    print(title)
    print(f"  sse = {model.sse:.6f}")
    for cluster in model.priority_order:
        members = [
            sid for sid, c in zip(features.server_ids, model.assignment) if c == cluster
        ]
        hops, delay = model.centroids[cluster]
        print(
            f"  cluster {cluster}: mean hops {hops:.2f}, mean delay {delay:.2f} ms, "
            f"members {', '.join(members)}"
        )
    print()


# Feature-space clustering separates the levels exactly: hop values 1/2/3
# are linearly separable, so every seed lands on the same partition.
show("k-means++ on (hops, delay):", kmeans_cluster(features, config))

# Graph clustering sees adjacency only. The reference topology is highly
# symmetric and its Laplacian spectrum is degenerate, so the embedding - and
# hence the partition - differs from the feature-space result. It is still
# deterministic for a fixed seed.
show("spectral clustering on the switch graph:", spectral_cluster(topo, config))
