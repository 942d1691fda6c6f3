"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import deque
from functools import cached_property

import numpy as np

from sdnlb.allocator import Pool, PoolSet
from sdnlb.clustering import ClusteringError, effective_k
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
    Topology,
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


def per_flow_experiment(scenario) -> tuple[dict[str, int], dict[str, float]]:
    """Per-server counts and bandwidth of a scenario the long way round:
    counts from the states' definition, one Flow per request (build_flows)
    along the Floyd-Warshall paths, a rate per flow (max_min_fair_rates),
    summed per server."""
    topology = scenario.topology
    counts = request_counts_oracle(scenario.pools, scenario.state)
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
    """Per-server counts of a workload state, from its definition: a burst
    lands on its target; big-cluster deals the requests over every server in
    natural order, the first ones taking one extra; clustered rotates each
    pool from its own cursor."""
    servers = sorted(pools.all_servers(), key=natural_key)
    counts = dict.fromkeys(servers, 0)
    if isinstance(state, SingleServerBurst):
        counts[state.server_id] = state.requests
    elif isinstance(state, BigClusterRR):
        base, extra = divmod(state.requests, len(servers))
        for position, server in enumerate(servers):
            counts[server] = base + (1 if position < extra else 0)
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


# Wall-clock bound on planning chain_document(1600) through either front end.
# On a 2-core host the tree answers in about 0.13 s; all-pairs Floyd-Warshall
# took about 64 s on the same chain.
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
