"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import deque

import numpy as np

from sdnlb.clustering import ClusteringError, effective_k
from sdnlb.simulator import DEFAULT_RTT_WINDOW_BYTES, Flow, window_rate_cap_mbps
from sdnlb.topology import (
    FeatureSet,
    Link,
    Node,
    NodeKind,
    Topology,
    all_pairs_shortest_paths,
    natural_key,
)


def random_connected_topology(
    seed: int,
    max_switches: int = 12,
    max_servers: int = 4,
    unit_delays: bool = False,
) -> Topology:
    """Random connected topology: spanning tree plus extra links, one user
    host on s1, and 1..max_servers server hosts on random switches."""
    rnd = random.Random(seed)
    n = rnd.randint(2, max_switches)
    switches = [f"s{i}" for i in range(1, n + 1)]
    nodes = [Node(s, NodeKind.SWITCH) for s in switches]

    def delay() -> float:
        return 1.0 if unit_delays else round(rnd.uniform(0.5, 20.0), 3)

    pairs = set()
    links = []
    for i in range(1, n):
        j = rnd.randrange(i)
        pairs.add((min(i, j), max(i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in pairs and rnd.random() < 0.25:
                pairs.add((i, j))
    for i, j in sorted(pairs):
        links.append(Link(switches[i], switches[j], delay(), rnd.choice([50.0, 100.0, 200.0])))

    nodes.append(Node("u1", NodeKind.USER_HOST))
    links.append(Link("u1", switches[0], 0.0, 100.0))
    for v in range(1, rnd.randint(1, max_servers) + 1):
        host = f"v{v}"
        nodes.append(Node(host, NodeKind.SERVER_HOST))
        links.append(Link(host, rnd.choice(switches), 0.0, 100.0))

    return Topology(nodes=tuple(nodes), links=tuple(links), user_switch=switches[0])


def bfs_hop_matrix(topology: Topology) -> np.ndarray:
    """Independent hop-count oracle: breadth-first search from every switch."""
    ids = topology.switch_ids
    index = {s: i for i, s in enumerate(ids)}
    adjacency = [[] for _ in ids]
    for link in topology.links:
        if link.a in index and link.b in index:
            adjacency[index[link.a]].append(index[link.b])
            adjacency[index[link.b]].append(index[link.a])
    n = len(ids)
    matrix = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        matrix[src, src] = 0
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in adjacency[cur]:
                if matrix[src, nxt] < 0:
                    matrix[src, nxt] = matrix[src, cur] + 1
                    queue.append(nxt)
    return matrix


def random_flow_instance(seed: int) -> tuple[Topology, list[Flow], float]:
    """Small random topology plus up to 8 flows along shortest paths."""
    rnd = random.Random(seed)
    topology = random_connected_topology(seed * 7 + 1, max_switches=5, max_servers=2)
    paths = all_pairs_shortest_paths(topology)
    ids = topology.switch_ids
    flows = []
    for _ in range(rnd.randint(1, 8)):
        a, b = rnd.sample(ids, 2)
        flows.append(
            Flow(src="u1", dst=b, path=paths.path(a, b), rtt_ms=2.0 * paths.delay_between(a, b))
        )
    window = rnd.choice([8192.0, 65536.0, 262144.0])
    return topology, flows, window


def brute_force_kmeans(features: FeatureSet, k: int) -> float:
    """Exact minimum SSE over all surjective assignments (test oracle).

    Enumerates every assignment of points to k non-empty clusters; only
    usable for small instances (<= 10 points).
    """
    points = features.array
    n = len(points)
    if n > 10:
        raise ClusteringError("brute force oracle limited to 10 points")
    k = effective_k(k, n)
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        labels = np.asarray(assign)
        sse = 0.0
        for c in range(k):
            members = points[labels == c]
            sse += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


def is_max_min_fair(
    flows: list[Flow],
    rates: np.ndarray,
    topology: Topology,
    rtt_window_bytes: float = DEFAULT_RTT_WINDOW_BYTES,
    tol: float = 1e-9,
) -> bool:
    """Definition-level fairness check (independent of the solver): every
    flow is either at its window/RTT cap or has a saturated bottleneck link
    on which it holds the maximum rate."""
    capacity: dict[tuple[str, str], float] = {l.key: l.capacity_mbps for l in topology.links}
    loads: dict[tuple[str, str], float] = {}
    links_of = []
    for flow, rate in zip(flows, rates):
        keys = [tuple(sorted((a, b), key=natural_key)) for a, b in zip(flow.path, flow.path[1:])]
        links_of.append(keys)
        for key in keys:
            loads[key] = loads.get(key, 0.0) + float(rate)

    for key, load in loads.items():
        if load > capacity[key] + tol:
            return False

    max_on_link = {key: 0.0 for key in loads}
    for keys, rate in zip(links_of, rates):
        for key in keys:
            max_on_link[key] = max(max_on_link[key], float(rate))

    for flow, keys, rate in zip(flows, links_of, rates):
        cap = window_rate_cap_mbps(rtt_window_bytes, flow.rtt_ms)
        if rate > cap + tol:
            return False
        at_cap = math.isfinite(cap) and abs(rate - cap) <= tol
        bottlenecked = any(
            loads[key] >= capacity[key] - tol and rate >= max_on_link[key] - tol for key in keys
        )
        if not (at_cap or bottlenecked):
            return False
    return True


def count_calls(monkeypatch, module, name: str) -> list:
    """Count calls to module.<name> wherever an sdnlb module holds it; the
    returned list grows by one per call."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "sdnlb" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls
