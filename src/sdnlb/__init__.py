"""Cluster-based server pooling, load balancing, and flow-level simulation
for software-defined networks.

Pipeline: model the data plane as a switch graph, extract per-server
(hops, delay) features via the shortest-path tree from the user switch,
partition servers into priority-ordered clusters (k-means++ or spectral),
serve requests through per-cluster round-robin pools, and measure workload
and throughput in a deterministic fair-share simulator.
"""

from .allocator import (
    AllocationError,
    EqualPerCluster,
    LoadSummary,
    Pool,
    PoolSet,
    SingleCluster,
    SingleServer,
    avg_load_largest_cluster,
    build_plan,
    build_pools,
    dispatch_sequence,
    distribute_requests,
    pool_export,
    table1,
)
from .clustering import (
    METHODS,
    ClusteringConfig,
    ClusteringError,
    ClusterModel,
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
from .rng import SplitMix64
from .service import LoadBalancerService, make_server
from .simulator import (
    BigClusterRR,
    ClusteredRR,
    ExperimentReport,
    Flow,
    Scenario,
    SimulationError,
    SingleServerBurst,
    compare_reports,
    max_min_fair_rates,
    report_csv,
    run_experiment,
)
from .topology import (
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
    server_features,
)

__version__ = "0.1.0"
