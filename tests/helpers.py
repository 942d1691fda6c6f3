"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import sys
from collections import Counter, deque
from functools import cached_property
from typing import NamedTuple

import numpy as np

from sdnlb import simulator
from sdnlb.allocator import Pool, PoolSet, build_plan
from sdnlb.clustering import (
    MAX_ITERATIONS,
    METHODS,
    RESTARTS,
    ClusteringConfig,
    ClusteringError,
    _reseed_empty,
    effective_k,
)
from sdnlb.rng import SplitMix64
from sdnlb.service import ServiceError
from sdnlb.simulator import (
    DEFAULT_RTT_WINDOW_BYTES,
    BigClusterRR,
    Flow,
    SimulationError,
    SingleServerBurst,
    build_flows,
    max_min_fair_rates,
    window_rate_cap_mbps,
)
from sdnlb.topology import (
    FeatureSet,
    Link,
    Node,
    NodeKind,
    Reach,
    Topology,
    TopologyError,
    _shortest_paths_from,
    all_pairs_shortest_paths,
    build_paper_topology,
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


def layered_topology(levels: int, width: int, per_switch: int) -> Topology:
    """The benchmark's layered family without its jitter: s1 with user host
    u1 on level 1, then `width` switches on each of levels 2..levels with
    `per_switch` servers each; adjacent levels joined complete-bipartite by
    links of delay 5 + upper level ms. Every switch below level 2 has many
    equal (hops, delay) paths, and no server sits on the user switch."""
    nodes = [Node("s1", NodeKind.SWITCH, level=1), Node("u1", NodeKind.USER_HOST, level=1)]
    links = [Link("u1", "s1", 0.0, 1000.0)]
    by_level = [["s1"]]
    switch_ids = (f"s{i}" for i in itertools.count(2))
    host_ids = (f"v{i}" for i in itertools.count(1))
    for level in range(2, levels + 1):
        row = [next(switch_ids) for _ in range(width)]
        by_level.append(row)
        for switch in row:
            nodes.append(Node(switch, NodeKind.SWITCH, level=level))
            for host in itertools.islice(host_ids, per_switch):
                nodes.append(Node(host, NodeKind.SERVER_HOST, level=level))
                links.append(Link(host, switch, 0.0, 1000.0))
    for level, (upper_row, lower_row) in enumerate(zip(by_level, by_level[1:]), start=1):
        links.extend(Link(upper, lower, 5.0 + level, 1000.0) for upper in upper_row for lower in lower_row)
    return Topology(nodes=tuple(nodes), links=tuple(links), user_switch="s1")


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


def random_flow_instance(
    seed: int, max_switches: int = 5, max_flows: int = 8
) -> tuple[Topology, list[Flow], float]:
    """Small random topology plus up to max_flows flows along shortest paths."""
    rnd = random.Random(seed)
    topology = random_connected_topology(seed * 7 + 1, max_switches=max_switches, max_servers=2)
    paths = all_pairs_shortest_paths(topology)
    ids = topology.switch_ids
    flows = []
    for _ in range(rnd.randint(1, max_flows)):
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


# -- the per-restart k-means core (oracle for clustering's batched core) -------
#
# These are the seeding, Lloyd and restart loop that clustering.py ran one
# restart at a time before its restarts ran as one array pass, with the
# core's two sum rules: squared distances summed coordinate by coordinate,
# left to right, and cluster sums in point order. The batched core must give
# the same assignment, the same SSE bits and the same trace for every
# restart, so the same restart wins.


def squared_distances_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b)² summed over the last axis left to right, coordinate by
    coordinate: the k-means distance rule."""
    terms = (a - b) ** 2
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total


def d2_seed_oracle(points: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """D²-sampling of one run: first center uniform, later centers
    proportional to the squared distance to the nearest chosen center;
    uniform when all remaining mass is zero."""
    n = len(points)
    if not 1 <= k <= n:
        raise ClusteringError(f"cannot seed {k} centers from {n} points")
    chosen = [rng.below(n)]
    d2 = squared_distances_oracle(points, points[chosen[0]])
    for _ in range(k - 1):
        total = float(d2.sum())
        if total > 0.0:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = rng.below(n)
        chosen.append(idx)
        d2 = np.minimum(d2, squared_distances_oracle(points, points[idx]))
    return points[chosen].astype(float).copy()


def lloyd_oracle(
    points: np.ndarray, initial_centroids: np.ndarray
) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """Lloyd refinement of one run, at most MAX_ITERATIONS rounds, stopping
    at a fixed point. Each centroid is its cluster's coordinate sums in
    point order (a running sum) over its size. Returns (assignment, sse,
    sse_trace)."""
    k = len(initial_centroids)
    if k < 1:
        raise ClusteringError("need at least one initial centroid")
    if k > len(points):
        raise ClusteringError("more initial centroids than points")

    centroids = np.asarray(initial_centroids, dtype=float)
    assignment = np.full(len(points), -1, dtype=np.int64)
    trace: list[float] = []
    for _ in range(MAX_ITERATIONS):
        dist2 = squared_distances_oracle(points[:, None, :], centroids[None, :, :])
        new_assignment = dist2.argmin(axis=1)  # ties go to the lowest index
        if (np.bincount(new_assignment, minlength=k) == 0).any():
            new_assignment = _reseed_empty(dist2, new_assignment, k)
        members = [points[new_assignment == c] for c in range(k)]
        centroids = np.stack([np.cumsum(m, axis=0)[-1] / len(m) for m in members])
        sse = float(((points - centroids[new_assignment]) ** 2).sum())
        if trace and sse > trace[-1] + 1e-9:
            raise ClusteringError(f"Lloyd SSE increased from {trace[-1]} to {sse}")
        trace.append(sse)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return assignment, sse, tuple(trace)


def restarts_oracle(
    points: np.ndarray, k: int, config: ClusteringConfig
) -> tuple[int, list[tuple[np.ndarray, float, tuple[float, ...]]]]:
    """RESTARTS seeded runs, one after another. Returns the winner (lowest
    SSE, ties: earliest restart) and every run's (assignment, sse,
    sse_trace)."""
    seed_stream = SplitMix64(config.rng_seed)
    runs, best = [], None
    for r in range(RESTARTS):
        rng = SplitMix64(seed_stream.next_u64())
        runs.append(lloyd_oracle(points, d2_seed_oracle(points, k, rng)))
        if best is None or runs[r][1] < runs[best][1]:
            best = r
    return best, runs


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


def per_flow_max_min_rates(
    flows: list[Flow],
    topology: Topology,
    rtt_window_bytes: float = DEFAULT_RTT_WINDOW_BYTES,
) -> np.ndarray:
    """Reference progressive filling over single flows, one at a time (the
    loop the class solver replaced): every unfrozen flow rises together until
    a link saturates or a flow hits its window/RTT cap."""
    capacity = {l.key: l.capacity_mbps for l in topology.links}
    flow_links = [
        [tuple(sorted((a, b), key=natural_key)) for a, b in zip(f.path, f.path[1:])] for f in flows
    ]
    caps = [window_rate_cap_mbps(rtt_window_bytes, f.rtt_ms) for f in flows]
    rates = np.zeros(len(flows))
    active = set(range(len(flows)))
    frozen_load = {key: 0.0 for keys in flow_links for key in keys}
    while active:
        levels = {}
        for key in frozen_load:
            live = [i for i in active if key in flow_links[i]]
            if live:
                levels[key] = (capacity[key] - frozen_load[key]) / len(live)
        level = min(min(levels.values(), default=math.inf), min(caps[i] for i in active))
        if math.isinf(level):
            raise SimulationError("flow without any capacity constraint")
        frozen = {i for i in active if caps[i] <= level + 1e-12}
        for i in frozen:
            rates[i] = caps[i]
        for key, link_level in levels.items():
            if link_level <= level + 1e-12:
                for i in active - frozen:
                    if key in flow_links[i]:
                        rates[i] = level
                        frozen.add(i)
        for i in frozen:
            for key in flow_links[i]:
                frozen_load[key] += rates[i]
        active -= frozen
    return rates


def fill_classes_oracle(classes, capacity, rtt_window_bytes: float) -> tuple[list[float], int]:
    """Progressive filling over flow classes, every level rebuilt and every
    class scanned on every round (the loop the incremental solver replaced):
    returns the rate of one flow of each class and the number of rounds, or
    raises the solver's SimulationError."""
    class_links = [keys for keys, _, _ in classes]
    caps = [window_rate_cap_mbps(rtt_window_bytes, rtt) for _, rtt, _ in classes]
    mult = [m for _, _, m in classes]

    links = sorted({key for keys in class_links for key in keys})
    members: dict[tuple[str, str], list[int]] = {key: [] for key in links}
    for c, keys in enumerate(class_links):
        for key in keys:
            members[key].append(c)
    live_weight = {key: sum(mult[c] for c in members[key]) for key in links}
    frozen_load = dict.fromkeys(links, 0.0)

    rates = [0.0] * len(caps)
    active = [True] * len(caps)

    def freeze(c: int, rate: float) -> None:
        rates[c] = rate
        active[c] = False
        for key in class_links[c]:
            frozen_load[key] += mult[c] * rate
            live_weight[key] -= mult[c]

    tol = simulator._LEVEL_TOL
    for rounds in range(len(caps) + 1):  # each round freezes at least one class
        if not any(active):
            break
        link_levels = {
            key: (capacity[key] - frozen_load[key]) / live_weight[key] for key in links if live_weight[key]
        }
        cap_level = min(cap for cap, live in zip(caps, active) if live)
        if not link_levels and math.isinf(cap_level):
            raise SimulationError("flow without any capacity constraint (empty path, zero rtt)")
        level = min(min(link_levels.values(), default=math.inf), cap_level)

        for c, cap in enumerate(caps):
            if active[c] and cap <= level + tol:
                freeze(c, cap)
        for key, link_level in link_levels.items():
            if link_level <= level + tol:
                for c in members[key]:
                    if active[c]:
                        freeze(c, level)
    else:
        raise SimulationError(f"progressive filling left classes unfrozen after {len(caps) + 1} rounds")

    loads: dict[tuple[str, str], float] = {}
    for c, keys in enumerate(class_links):
        for key in keys:
            loads[key] = loads.get(key, 0.0) + mult[c] * rates[c]
    for key, load in loads.items():
        if load > capacity[key] + 1e-9:
            raise SimulationError(f"link {key[0]}-{key[1]} oversubscribed: {load} Mbps")
    return rates, rounds


def random_fill_instance(rnd: random.Random):
    """A random class set for the fair-share solver: (classes, capacity,
    rtt_window_bytes). The links form a random tree of 1-12 switches under
    s0, and each class routes from s0 to a random switch, so classes share
    links. Capacities and delays come from small sets, so equal levels and
    equal caps tie, as do caps an rtt nudged by a few ulps sets apart; a
    zero delay sum makes an infinite cap (unless nudged); s0 itself gives an
    empty path. Multiplicities run from 1 to 10**6. The window is drawn,
    or set so that one class's cap lands on one link's first level, within
    rounding."""
    n = rnd.randint(1, 12)
    parent = [None] + [rnd.randrange(i) for i in range(1, n)]
    capacity, up, delay = {}, [()] * n, [0.0] * n
    for i in range(1, n):
        key = (f"s{parent[i]}", f"s{i}")
        capacity[key] = rnd.choice([10.0, 100.0, 100.0, 1000.0, rnd.uniform(1.0, 1000.0)])
        up[i] = up[parent[i]] + (key,)
        delay[i] = delay[parent[i]] + rnd.choice([0.0, 0.0, 1.0, 2.5, 5.0, rnd.uniform(0.1, 20.0)])
    targets = [rnd.randrange(1, n) if n > 1 else 0 for _ in range(rnd.randint(1, 12))]
    if rnd.random() < 0.05:
        targets.append(0)  # an empty path and rtt 0: no constraint at all
    classes = []
    for t in targets:
        rtt = 2.0 * delay[t]
        for _ in range(rnd.choice([0, 0, 0, 1, 2])):  # caps a few ulps apart tie within _LEVEL_TOL
            rtt = math.nextafter(rtt, math.inf)
        classes.append((up[t], rtt, rnd.choice([1, 1, 2, 3, rnd.randint(1, 1000), 10**6])))
    if rnd.random() < 0.3 and classes[0][0] and classes[0][1] > 0.0:
        keys, rtt, _ = classes[0]
        key = rnd.choice(keys)
        weight = sum(m for path, _, m in classes if key in path)
        window = capacity[key] / weight * rtt / 8e-3
    else:
        window = rnd.choice([8192.0, 65536.0, 262144.0, 1e12])
    return classes, capacity, window


def fill_outcome(fill, classes, capacity, rtt_window_bytes: float):
    """What a solver gives: ("rates", the rates as float.hex, so that the
    bits must match, and the rounds) or ("error", its message)."""
    try:
        rates, rounds = fill(classes, capacity, rtt_window_bytes)
    except SimulationError as exc:
        return ("error", str(exc))
    return ("rates", [float(rate).hex() for rate in rates], rounds)


def per_flow_experiment(scenario) -> tuple[dict[str, int], dict[str, float]]:
    """Per-server counts and bandwidth of a scenario the long way round:
    counts from the states' definition, one Flow per request (build_flows)
    along the all-pairs paths, a rate per flow (max_min_fair_rates),
    summed per server; both keyed in the topology's order, as a report is."""
    topology = scenario.topology
    counts = request_counts_oracle(scenario.pools, scenario.state)
    counts = {s: counts[s] for s in topology.server_ids if s in counts}
    flows = build_flows(topology, counts, all_pairs_shortest_paths(topology))
    rates = max_min_fair_rates(flows, topology, scenario.rtt_window_bytes)
    bandwidth = dict.fromkeys(counts, 0.0)
    for flow, rate in zip(flows, rates.tolist()):
        bandwidth[flow.dst] += rate
    return counts, bandwidth


def random_pool_set(seed: int) -> PoolSet:
    """1-4 pools of 1-6 distinct servers each, members and pools in random
    (not natural) order, every cursor at a random member."""
    rnd = random.Random(seed)
    sizes = [rnd.randint(1, 6) for _ in range(rnd.randint(1, 4))]
    servers = [f"v{i}" for i in range(1, sum(sizes) + 1)]
    rnd.shuffle(servers)
    pools = []
    for index, size in enumerate(sizes):
        members, servers = tuple(servers[:size]), servers[size:]
        pools.append(Pool(index, members, (float(index), 0.0), cursor=rnd.randrange(size)))
    rnd.shuffle(pools)
    return PoolSet(pools)


def request_counts_oracle(pools: PoolSet, state) -> dict[str, int]:
    """Per-server counts of a workload state, from its definition, keyed in
    the order of the pools the state draws from: a burst lands on its
    target, and clustered rotates each pool from its own cursor, both over
    the caller's pools in pool order; big-cluster deals the requests over
    every server in natural order, the first ones taking one extra."""
    if isinstance(state, BigClusterRR):
        servers = sorted(pools.all_servers(), key=natural_key)
        base, extra = divmod(state.requests, len(servers))
        return {server: base + (1 if position < extra else 0) for position, server in enumerate(servers)}
    counts = dict.fromkeys(pools.all_servers(), 0)
    if isinstance(state, SingleServerBurst):
        counts[state.server_id] = state.requests
    else:
        for pool in pools.pools:
            for i in range(state.requests_per_cluster):
                counts[pool.members[(pool.cursor + i) % len(pool.members)]] += 1
    return counts


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count calls to owner.<name>: a method on its class, a function
    wherever an sdnlb module holds it; the returned list grows by one per
    call."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counting)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "sdnlb" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_builds(monkeypatch, cls, name: str) -> list:
    """Count the builds of the cached property cls.<name>; the returned list
    grows by one (the instance) per build."""
    original = vars(cls)[name].func
    builds = []

    def build(self):
        builds.append(self)
        return original(self)

    prop = cached_property(build)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return builds


def _paper_document_with(key: str, value, on_link: bool) -> dict:
    doc = build_paper_topology().document()
    target = next(l for l in doc["links"] if (l["a"], l["b"]) == ("s1", "s2")) if on_link else doc
    target[key] = value
    return doc


def paper_document_renamed(names: dict[str, str]) -> dict:
    """The paper document with each node id in `names` replaced by its value."""
    doc = build_paper_topology().document()
    for node in doc["nodes"]:
        node["id"] = names.get(node["id"], node["id"])
    for link in doc["links"]:
        link["a"], link["b"] = names.get(link["a"], link["a"]), names.get(link["b"], link["b"])
    doc["user_switch"] = names.get(doc["user_switch"], doc["user_switch"])
    return doc


# a switch and two servers renamed to ids holding digits that are not
# decimal (a superscript, a circled number), which natural_key sorts as text
NON_DECIMAL_DIGIT_IDS = {"s7": "²", "h10": "h1²", "h9": "①"}


def _paper_document_relinked(old: tuple[str, str], new: tuple[str, str]) -> dict:
    """The paper document with its link `old` moved to the ends `new`."""
    doc = build_paper_topology().document()
    link = next(l for l in doc["links"] if (l["a"], l["b"]) == old)
    link["a"], link["b"] = new
    return doc


def _link_cases(key: str, values: dict) -> dict:
    return {
        f"{key}-{name}": (_paper_document_with(key, value, True), f"link s1-s2: {key}")
        for name, value in values.items()
    }


def _first_entry_cases(section: str, key: str, values: dict, names: str) -> dict:
    """Cases that set `key` of the first node or link (h1, h1-s1) to each value."""
    cases = {}
    for name, value in values.items():
        doc = build_paper_topology().document()
        doc[section][0][key] = value
        cases[f"{section}[0].{key}-{name}"] = (doc, names)
    return cases


# case id -> (paper document with one bad value, text its TopologyError names):
# documents every entry point must refuse with a named error, never a crash.
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
BAD_TOPOLOGY_DOCUMENTS = {
    **_link_cases("delay_ms", {**_NON_FINITE, "text": "abc", "null": None, "bool": True, "huge": 1e200}),
    **_link_cases("capacity_mbps", {**_NON_FINITE, "text": "100", "bool": False, "huge": 10**400}),
    **{
        f"{key}-{name}": (_paper_document_with(key, value, False), f"'{key}' must be a list")
        for key in ("nodes", "links")
        for name, value in (("int", 5), ("null", None), ("mapping", {"s1": "switch"}))
    },
    **_first_entry_cases(
        "nodes", "id", {"null": None, "int": 1, "list": ["h1"], "mapping": {"id": "h1"}, "empty": ""},
        "nodes[0].id must be a non-empty string",
    ),
    **_first_entry_cases("links", "a", {"null": None}, "links[0].a must be a non-empty string"),
    "user_switch-list": (
        _paper_document_with("user_switch", ["s1"], False), "user_switch must be a non-empty string, got ['s1']"
    ),
    **_first_entry_cases(
        "nodes", "label", {"list": [1, {}], "mapping": {"ip": "10.0.0.1"}}, "node 'h1': label must be a string or null"
    ),
    "link-self-loop": (_paper_document_relinked(("s1", "s2"), ("s2", "s2")), "link endpoints must differ (got 's2' twice)"),
    "link-host-to-host": (
        _paper_document_relinked(("h2", "s2"), ("h2", "h10")), "host 'h2' must attach to a switch, not 'h10'"
    ),
    "user_switch-host": (_paper_document_with("user_switch", "h1", False), "user_switch 'h1' must be a switch"),
    "user_switch-off-the-user-host": (
        _paper_document_with("user_switch", "s2", False), "user host 'h1' is not attached to user_switch 's2'"
    ),
}


# Wall-clock bound on planning chain_document(1600) through either front end,
# and on all_pairs_shortest_paths over chain_document(1000). On a 2-core host
# the tree answers in about 0.13 s and the 1,000-switch all-pairs paths in
# under a second; an O(V^3) all-pairs kernel took about 64 s on the 1,600 chain.
CHAIN_BOUND_S = 5.0


def chain_document(n_switches: int) -> dict:
    """A chain s1 - s2 - ... - sn with the user host u1 on s1 and one server
    host v<i> on every switch s<i>: every hop count from 0 to n - 1 occurs."""
    nodes = [{"id": "u1", "kind": "user_host"}]
    links = [{"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0}]
    for i in range(1, n_switches + 1):
        nodes += [{"id": f"s{i}", "kind": "switch"}, {"id": f"v{i}", "kind": "server_host"}]
        links.append({"a": f"v{i}", "b": f"s{i}", "delay_ms": 0.0, "capacity_mbps": 100.0})
        if i < n_switches:
            links.append({"a": f"s{i}", "b": f"s{i + 1}", "delay_ms": 5.0, "capacity_mbps": 100.0})
    return {"nodes": nodes, "links": links, "user_switch": "s1"}


def star_document(n_servers: int) -> dict:
    """One switch s1 with the user host u1 and server hosts v1..vn on host
    links of delay i mod 7 ms: k-means splits the servers by delay, and
    spectral clustering refuses it, as s1 has no switch links."""
    nodes = [{"id": "s1", "kind": "switch"}, {"id": "u1", "kind": "user_host"}]
    links = [{"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0}]
    for i in range(1, n_servers + 1):
        nodes.append({"id": f"v{i}", "kind": "server_host"})
        links.append({"a": f"v{i}", "b": "s1", "delay_ms": float(i % 7), "capacity_mbps": 100.0})
    return {"nodes": nodes, "links": links, "user_switch": "s1"}


def plan_documents(topology: Topology, ks=range(1, 6)) -> list[dict]:
    """`Plan.document` of `topology` for each method at each k in `ks` that
    the pipeline accepts (a refused plan has no document)."""
    documents = []
    for method in METHODS:
        for k in ks:
            try:
                documents.append(build_plan(topology, k, method, 0).document)
            except ValueError:
                pass
    return documents


# -- REST replies on the wire and in process ---------------------------------


def plan_calls(document: dict) -> list[tuple[str, str, dict | None]]:
    """REST calls through the life of the service's current plan: repeats
    on one plan, a re-plan, a spectral re-plan (refused on a star_document),
    a switch back to the first plan, and a second upload that drops it."""
    return [
        ("PUT", "/topology", document),
        ("GET", "/clusters?k=3", None),
        ("GET", "/clusters?k=3", None),
        ("GET", "/pools", None),
        ("GET", "/pools", None),
        ("GET", "/clusters?k=2", None),
        ("GET", "/pools", None),
        ("GET", "/clusters?k=2&method=spectral", None),
        ("GET", "/clusters?k=2", None),
        ("GET", "/pools", None),
        ("GET", "/clusters?k=3", None),
        ("GET", "/pools", None),
        ("POST", "/requests", {"target": "auto", "count": 10}),
        ("GET", "/stats", None),
        ("PUT", "/topology", document),
        ("GET", "/pools", None),
        ("GET", "/clusters?k=3", None),
        ("GET", "/clusters?k=3", None),
        ("GET", "/pools", None),
    ]


def replay(base: str, calls) -> list[tuple[int, bytes]]:
    """Send each (verb, path, body) call over one keep-alive connection to
    the server at `base`; return each reply's status and body."""
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    replies = []
    try:
        conn.connect()
        sock = conn.sock
        for verb, path, body in calls:
            conn.request(verb, path, body=None if body is None else json.dumps(body))
            response = conn.getresponse()
            replies.append((response.status, response.read()))
        if conn.sock is not sock:  # http.client opens a new socket only after a close
            raise ConnectionError(f"the server closed the connection during {calls}")
    finally:
        conn.close()
    return replies


def in_process_reply(service, verb: str, path: str, body: dict | None) -> tuple[int, bytes]:
    """The status and JSON bytes that `service` answers to one REST call
    made in process: what the wire must carry for the same call."""
    route, _, query = path.partition("?")
    params = dict(param.split("=") for param in query.split("&") if param)
    handlers = {
        ("PUT", "/topology"): lambda: service.put_topology(body),
        ("GET", "/clusters"): lambda: service.get_clusters(
            int(params.get("k", 3)), params.get("method", "kmeans"), int(params.get("seed", 0))
        ),
        ("GET", "/pools"): service.get_pools,
        ("POST", "/requests"): lambda: service.post_requests(body["target"], body["count"]),
        ("GET", "/stats"): service.get_stats,
    }
    try:
        return 200, json.dumps(handlers[verb, route]()).encode()
    except ServiceError as exc:
        return exc.status, json.dumps(exc.body()).encode()


# -- a reference loader, the differential oracle for load_topology --------


class LoadedTopology(NamedTuple):
    """What a load decides: the sorted sections and the indexes read off
    them (adjacency and tree as plain dicts; features None without servers,
    where building them raises)."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    adjacency: dict[str, tuple[str, ...]]
    switch_links: tuple[tuple[tuple[int, float], ...], ...]
    tree: dict[str, Reach]
    features: FeatureSet | None


def loaded(topology: Topology) -> LoadedTopology:
    return LoadedTopology(
        topology.nodes,
        topology.links,
        dict(topology.adjacency),
        topology.switch_links,
        dict(topology.tree),
        topology.features if topology.server_ids else None,
    )


def load_outcome(load, document):
    """load(document) as a LoadedTopology, or the (type, message) it raised."""
    try:
        result = load(document)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any failure
        return type(exc), str(exc)
    return result if isinstance(result, LoadedTopology) else loaded(result)


def reference_load_topology(document) -> LoadedTopology:
    """Reference loader: convert each element, sort each section by
    natural key (links by the key pair), then validate and build each index
    in a walk of its own. load_topology must give the same result or raise
    the same TopologyError message."""
    if not isinstance(document, dict):
        raise TopologyError("topology document must be a mapping")
    for key in ("nodes", "links", "user_switch"):
        if key not in document:
            raise TopologyError(f"topology document missing required key '{key}'")

    for key in ("nodes", "links"):
        if not isinstance(document[key], list):
            raise TopologyError(f"topology document '{key}' must be a list")

    nodes = []
    for i, raw in enumerate(document["nodes"]):
        if not isinstance(raw, dict) or "id" not in raw or "kind" not in raw:
            raise TopologyError(f"node entry {raw!r} must carry 'id' and 'kind'")
        node_id = _reference_name(raw["id"], "nodes", i, "id")
        try:
            kind = NodeKind(raw["kind"])
        except ValueError:
            raise TopologyError(f"node '{node_id}': unknown kind '{raw['kind']}'") from None
        level, label = raw.get("level"), raw.get("label")
        if level is not None and (not isinstance(level, int) or isinstance(level, bool)):
            raise TopologyError(f"node '{node_id}': level must be an integer")
        if label is not None and not isinstance(label, str):
            raise TopologyError(f"node '{node_id}': label must be a string or null, got {label!r}")
        nodes.append(Node(id=node_id, kind=kind, level=level, label=label))

    links = []
    for i, raw in enumerate(document["links"]):
        if not isinstance(raw, dict) or not {"a", "b", "delay_ms", "capacity_mbps"} <= raw.keys():
            raise TopologyError(
                f"link entry {raw!r} must carry 'a', 'b', 'delay_ms', 'capacity_mbps'"
            )
        a, b = _reference_name(raw["a"], "links", i, "a"), _reference_name(raw["b"], "links", i, "b")
        links.append(Link(a, b, _reference_real(raw, "delay_ms", a, b), _reference_real(raw, "capacity_mbps", a, b)))

    return _reference_topology(nodes, links, _reference_name(document["user_switch"], "user_switch"))


def _reference_name(value, section: str, index: int | None = None, key: str = "") -> str:
    if isinstance(value, str) and value:
        return value
    element = section if index is None else f"{section}[{index}].{key}"
    raise TopologyError(f"{element} must be a non-empty string, got {value!r}")


def _reference_real(raw: dict, key: str, a: str, b: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"link {a}-{b}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TopologyError(f"link {a}-{b}: {key} is too large for a float") from None


def _reference_topology(nodes, links, user_switch: str) -> LoadedTopology:
    nodes = tuple(sorted(nodes, key=lambda n: natural_key(n.id)))
    links = tuple(sorted(links, key=lambda l: (natural_key(l.a), natural_key(l.b))))

    node_map = {n.id: n for n in nodes}
    if len(node_map) != len(nodes):
        duplicate = next(i for i, c in Counter(n.id for n in nodes).items() if c > 1)
        raise TopologyError(f"duplicate node id '{duplicate}'")

    pairs: set[tuple[str, str]] = set()
    for link in links:
        for end in (link.a, link.b):
            if end not in node_map:
                raise TopologyError(f"link {link.a}-{link.b} references unknown node id '{end}'")
        if link.key in pairs:
            raise TopologyError(f"duplicate link between '{link.a}' and '{link.b}'")
        pairs.add(link.key)

    if user_switch not in node_map:
        raise TopologyError(f"user_switch '{user_switch}' is not a node")
    if node_map[user_switch].kind is not NodeKind.SWITCH:
        raise TopologyError(f"user_switch '{user_switch}' must be a switch")

    user_hosts = [n for n in nodes if n.kind is NodeKind.USER_HOST]
    if len(user_hosts) != 1:
        raise TopologyError(f"expected exactly one user_host, found {len(user_hosts)}")

    neighbours: dict[str, list[str]] = {n.id: [] for n in nodes}
    for link in links:
        neighbours[link.a].append(link.b)
        neighbours[link.b].append(link.a)
    adjacency = {i: tuple(v) for i, v in neighbours.items()}
    for node in nodes:
        if node.kind is NodeKind.SWITCH:
            continue
        attached = adjacency[node.id]
        if len(attached) != 1:
            raise TopologyError(f"host '{node.id}' must have exactly one link (has {len(attached)})")
        if node_map[attached[0]].kind is not NodeKind.SWITCH:
            raise TopologyError(f"host '{node.id}' must attach to a switch, not '{attached[0]}'")

    if adjacency[user_hosts[0].id][0] != user_switch:
        raise TopologyError(f"user host '{user_hosts[0].id}' is not attached to user_switch '{user_switch}'")

    switch_ids = tuple(n.id for n in nodes if n.kind is NodeKind.SWITCH)
    index = {s: i for i, s in enumerate(switch_ids)}
    by_switch: list[list[tuple[int, float]]] = [[] for _ in index]
    for link in links:
        if link.a in index and link.b in index:
            i, j = index[link.a], index[link.b]
            by_switch[i].append((j, link.delay_ms))
            by_switch[j].append((i, link.delay_ms))
    switch_links = tuple(map(tuple, by_switch))

    order, hops, delay, parent = _shortest_paths_from(switch_links, index[user_switch])
    tree = {
        switch_ids[v]: Reach(hops[v], delay[v], switch_ids[parent[v]] if parent[v] >= 0 else None) for v in order
    }
    for node in nodes:
        if (node.id if node.kind is NodeKind.SWITCH else adjacency[node.id][0]) not in tree:
            raise TopologyError(f"graph is disconnected: node '{node.id}' unreachable")

    server_ids = tuple(n.id for n in nodes if n.kind is NodeKind.SERVER_HOST)
    reach = [tree[adjacency[s][0]] for s in server_ids]
    features = FeatureSet(tuple((float(r.hops), r.delay_ms) for r in reach), server_ids) if reach else None
    return LoadedTopology(nodes, links, adjacency, switch_links, tree, features)
