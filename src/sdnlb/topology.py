"""Data-plane topology model, shortest paths, and server features.

A topology is an undirected graph of switches plus host nodes (one user host
and any number of server hosts), each host hanging off exactly one switch.
Shortest paths are computed over the switch graph only, minimizing hop count
with accumulated delay as the tie-break; hosts are collapsed onto their
attached switch. The pipeline needs them from one source only: the tree
from the user switch gives every route and feature. All-pairs paths
(Floyd-Warshall) stay available for inspection. A Topology is immutable,
so it computes its tree, routes, link capacities, features and fingerprint
once, on first use, and every caller shares them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

_INF_HOPS = 10**9
# Longest link delay accepted (about 11.6 days): path delays and their
# squares in the clustering stay finite for any network that fits in memory.
MAX_DELAY_MS = 1e9
NATURAL_KEY_CACHE_SIZE = 4096


class TopologyError(ValueError):
    """A topology document or graph violates an invariant."""


class NodeKind(str, Enum):
    SWITCH = "switch"
    SERVER_HOST = "server_host"
    USER_HOST = "user_host"


@lru_cache(maxsize=NATURAL_KEY_CACHE_SIZE)
def natural_key(node_id: str) -> tuple:
    """Sort key ordering embedded decimal integers (the split's odd parts)
    numerically, h2 before h10; other digits, such as ² or ①, sort as text.

    Memoized with a bounded cache: links, topology sorting and the
    simulator's server sorts all ask again for the same few ids.
    """
    parts = re.split(r"(\d+)", node_id)
    return tuple((0, int(p)) if i % 2 else (1, p) for i, p in enumerate(parts) if p)


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    level: int | None = None
    label: str | None = None

    def __post_init__(self):
        if not self.id:
            raise TopologyError("node id must be a non-empty string")
        if self.level is not None and self.level < 1:
            raise TopologyError(f"node '{self.id}': level must be >= 1")

    @property
    def display(self) -> str:
        return self.label if self.label is not None else self.id


@dataclass(frozen=True)
class Link:
    """Undirected link; endpoints are stored in natural id order."""

    a: str
    b: str
    delay_ms: float
    capacity_mbps: float

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"link endpoints must differ (got '{self.a}' twice)")
        if not 0 <= self.delay_ms <= MAX_DELAY_MS:  # NaN fails both comparisons
            raise TopologyError(f"link {self.a}-{self.b}: delay_ms must be within [0, {MAX_DELAY_MS:g}]")
        if not (math.isfinite(self.capacity_mbps) and self.capacity_mbps > 0):
            raise TopologyError(f"link {self.a}-{self.b}: capacity_mbps must be finite and > 0")
        if natural_key(self.b) < natural_key(self.a):
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b)


class Route(NamedTuple):
    """A shortest path from the user switch: its switches, the key of the
    link under each hop, and its delay."""

    path: tuple[str, ...]
    links: tuple[tuple[str, str], ...]
    delay_ms: float


class Reach(NamedTuple):
    """How user_switch reaches one switch (see Topology.tree)."""

    hops: int
    delay_ms: float
    parent: str | None


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    user_switch: str

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", tuple(sorted(self.nodes, key=lambda n: natural_key(n.id)))
        )
        object.__setattr__(
            self, "links", tuple(sorted(self.links, key=lambda l: (natural_key(l.a), natural_key(l.b))))
        )
        self._validate()

    def _validate(self) -> None:
        node_map = self.node_map
        if len(node_map) != len(self.nodes):
            duplicate = next(i for i, c in Counter(n.id for n in self.nodes).items() if c > 1)
            raise TopologyError(f"duplicate node id '{duplicate}'")

        pairs: set[tuple[str, str]] = set()
        for link in self.links:
            for end in (link.a, link.b):
                if end not in node_map:
                    raise TopologyError(f"link {link.a}-{link.b} references unknown node id '{end}'")
            if link.key in pairs:
                raise TopologyError(f"duplicate link between '{link.a}' and '{link.b}'")
            pairs.add(link.key)

        if self.user_switch not in node_map:
            raise TopologyError(f"user_switch '{self.user_switch}' is not a node")
        if node_map[self.user_switch].kind is not NodeKind.SWITCH:
            raise TopologyError(f"user_switch '{self.user_switch}' must be a switch")

        user_hosts = [n for n in self.nodes if n.kind is NodeKind.USER_HOST]
        if len(user_hosts) != 1:
            raise TopologyError(f"expected exactly one user_host, found {len(user_hosts)}")

        adjacency = self.adjacency
        for node in self.nodes:
            if node.kind is NodeKind.SWITCH:
                continue
            neighbours = adjacency[node.id]
            if len(neighbours) != 1:
                raise TopologyError(f"host '{node.id}' must have exactly one link (has {len(neighbours)})")
            if node_map[neighbours[0]].kind is not NodeKind.SWITCH:
                raise TopologyError(f"host '{node.id}' must attach to a switch, not '{neighbours[0]}'")

        if adjacency[user_hosts[0].id][0] != self.user_switch:
            raise TopologyError(
                f"user host '{user_hosts[0].id}' is not attached to user_switch '{self.user_switch}'"
            )

        seen = {self.user_switch}
        stack = [self.user_switch]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreachable = next((n.id for n in self.nodes if n.id not in seen), None)
        if unreachable is not None:
            raise TopologyError(f"graph is disconnected: node '{unreachable}' unreachable")

    # -- indexes and accessors (each built once, on first use) -------------

    @cached_property
    def node_map(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Neighbour ids of every node, in link order (read-only)."""
        neighbours: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for link in self.links:
            neighbours[link.a].append(link.b)
            neighbours[link.b].append(link.a)
        return MappingProxyType({i: tuple(v) for i, v in neighbours.items()})

    @cached_property
    def switch_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.SWITCH)

    @cached_property
    def switch_index(self) -> Mapping[str, int]:
        """Position of each switch in switch_ids (read-only)."""
        return MappingProxyType({s: i for i, s in enumerate(self.switch_ids)})

    @cached_property
    def server_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.SERVER_HOST)

    @cached_property
    def user_host_id(self) -> str:
        return next(n.id for n in self.nodes if n.kind is NodeKind.USER_HOST)

    @property
    def n_servers(self) -> int:
        return len(self.server_ids)

    def attached_switch(self, host_id: str) -> str:
        try:
            node = self.node_map[host_id]
        except KeyError:
            raise TopologyError(f"unknown node id '{host_id}'") from None
        if node.kind is NodeKind.SWITCH:
            raise TopologyError(f"'{host_id}' is a switch, not a host")
        return self.adjacency[host_id][0]

    def switch_adjacency(self) -> np.ndarray:
        """Binary adjacency matrix over switch_ids order."""
        index = self.switch_index
        adj = np.zeros((len(index), len(index)))
        for link in self.links:
            if link.a in index and link.b in index:
                i, j = index[link.a], index[link.b]
                adj[i, j] = adj[j, i] = 1.0
        return adj

    def document(self) -> dict:
        """Serialize to the topology document schema (round-trip safe)."""
        nodes = []
        for n in self.nodes:
            entry: dict = {"id": n.id, "kind": n.kind.value}
            if n.level is not None:
                entry["level"] = n.level
            if n.label is not None:
                entry["label"] = n.label
            nodes.append(entry)
        links = [
            {"a": l.a, "b": l.b, "delay_ms": l.delay_ms, "capacity_mbps": l.capacity_mbps}
            for l in self.links
        ]
        return {"nodes": nodes, "links": links, "user_switch": self.user_switch}

    @cached_property
    def paths(self) -> PathMatrix:
        """All-pairs shortest paths (see all_pairs_shortest_paths), for
        inspection. Its routes follow next hops taken from other sources'
        rows, so where routes tie it may pick another one than tree does."""
        return all_pairs_shortest_paths(self)

    @cached_property
    def capacity(self) -> Mapping[tuple[str, str], float]:
        """Capacity (Mbps) of every link, by link key (read-only)."""
        return MappingProxyType({l.key: l.capacity_mbps for l in self.links})

    @cached_property
    def tree(self) -> Mapping[str, Reach]:
        """Shortest-path tree from user_switch over the switch graph, in
        breadth-first order (read-only): fewest hops, then least delay.
        A switch's parent is the least switch, in switch_ids order, among
        its tied predecessors p: hops(p) + 1 and delay(p) + delay(p, v)
        both equal its own. A lexicographic (hops, delay) Dijkstra whose
        first key counts hops settles the graph one BFS layer at a time."""
        index, adjacency, weight = self.switch_index, self.adjacency, {}
        for link in self.links:
            weight[link.a, link.b] = weight[link.b, link.a] = link.delay_ms
        tree = {self.user_switch: Reach(0, 0.0, None)}
        layer, hops = [self.user_switch], 0
        while layer:
            hops += 1
            best: dict[str, tuple[float, int, str]] = {}
            for parent in layer:
                base, rank = tree[parent].delay_ms, index[parent]
                for switch in adjacency[parent]:
                    if switch in index and switch not in tree:
                        offer = (base + weight[parent, switch], rank, parent)
                        best[switch] = min(best.get(switch, offer), offer)
            tree.update((s, Reach(hops, delay, parent)) for s, (delay, _, parent) in best.items())
            layer = list(best)
        return MappingProxyType(tree)

    @cached_property
    def routes(self) -> Mapping[str, Route]:
        """The route from user_switch to every switch, walked down the tree
        (read-only). Ties resolve by tree's rule: the least tied
        predecessor, in switch_ids order. Every route extends its parent's,
        and its delay is the left-to-right sum of its link delays."""
        capacity, routes = self.capacity, {}
        for switch, (_, delay, parent) in self.tree.items():
            path, links = (switch,), ()
            if parent is not None:
                key = (parent, switch) if (parent, switch) in capacity else (switch, parent)
                path, links = routes[parent].path + path, routes[parent].links + (key,)
            routes[switch] = Route(path, links, delay)
        return MappingProxyType(routes)

    @cached_property
    def features(self) -> FeatureSet:
        """Per-server (hops, delay) clustering features, read off the tree."""
        reach = [self.tree[self.adjacency[s][0]] for s in self.server_ids]
        return FeatureSet(tuple((float(r.hops), r.delay_ms) for r in reach), self.server_ids)

    @cached_property
    def _fingerprint(self) -> str:
        payload = json.dumps(self.document(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def fingerprint(self) -> str:
        """Stable content hash of the serialized document."""
        return self._fingerprint


# -- document ingestion ---------------------------------------------------


def load_topology(document: dict) -> Topology:
    """Build a validated Topology from a parsed topology document.

    Raises TopologyError naming the offending element on any schema or
    invariant violation.
    """
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
        node_id = _name(raw["id"], "nodes", i, "id")
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
        a, b = _name(raw["a"], "links", i, "a"), _name(raw["b"], "links", i, "b")
        links.append(Link(a, b, _real(raw, "delay_ms", a, b), _real(raw, "capacity_mbps", a, b)))

    return Topology(tuple(nodes), tuple(links), _name(document["user_switch"], "user_switch"))


def _name(value, section: str, index: int | None = None, key: str = "") -> str:
    if isinstance(value, str) and value:
        return value
    element = section if index is None else f"{section}[{index}].{key}"
    raise TopologyError(f"{element} must be a non-empty string, got {value!r}")


def _real(raw: dict, key: str, a: str, b: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"link {a}-{b}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TopologyError(f"link {a}-{b}: {key} is too large for a float") from None


# -- reference 4-level evaluation topology --------------------------------


# Link delay per inter-level tier (1-2, 2-3, 3-4): the user-to-level path
# delays are then 12, 22 and 30.33 ms. Host links add no delay.
PAPER_TIER_DELAYS_MS = (12.0, 10.0, 8.33)
PAPER_CAPACITY_MBPS = 100.0


def build_paper_topology() -> Topology:
    """Build the bundled 4-level reference topology.

    Level 1 holds the user switch s1 with user host h1. Levels 2-4 hold two
    switches each: one with a single server host and one with two, so each
    level contributes three servers (h2..h10, nine in total). Every switch
    is linked to all switches in the next level and to none in its own.
    """
    nodes = [
        Node("s1", NodeKind.SWITCH, level=1),
        Node("h1", NodeKind.USER_HOST, level=1, label="10.0.0.1"),
    ]
    links = [Link("h1", "s1", 0.0, PAPER_CAPACITY_MBPS)]

    # per level: (single-server switch, two-server switch)
    level_switches = {1: ["s1"]}
    host_n = 2
    switch_n = 2
    for level in (2, 3, 4):
        single = f"s{switch_n}"
        double = f"s{switch_n + 1}"
        switch_n += 2
        level_switches[level] = [single, double]
        nodes.append(Node(single, NodeKind.SWITCH, level=level))
        nodes.append(Node(double, NodeKind.SWITCH, level=level))
        for switch, count in ((single, 1), (double, 2)):
            for _ in range(count):
                host = f"h{host_n}"
                nodes.append(Node(host, NodeKind.SERVER_HOST, level=level, label=f"10.0.0.{host_n}"))
                links.append(Link(host, switch, 0.0, PAPER_CAPACITY_MBPS))
                host_n += 1

    for level, tier_delay in zip((1, 2, 3), PAPER_TIER_DELAYS_MS):
        for upper in level_switches[level]:
            for lower in level_switches[level + 1]:
                links.append(Link(upper, lower, tier_delay, PAPER_CAPACITY_MBPS))

    return Topology(nodes=tuple(nodes), links=tuple(links), user_switch="s1")


# -- all-pairs shortest paths ---------------------------------------------


@dataclass(frozen=True, eq=False)
class PathMatrix:
    """Floyd-Warshall result over the switch graph.

    hops is the primary metric; delay_ms accumulates the link delays of the
    chosen path; next_hop[i, j] is the switch index following i on the path
    to j (-1 on the diagonal).
    """

    switch_ids: tuple[str, ...]
    hops: np.ndarray
    delay_ms: np.ndarray
    next_hop: np.ndarray
    index: Mapping[str, int] = field(repr=False)

    def hops_between(self, a: str, b: str) -> int:
        return int(self.hops[self.index[a], self.index[b]])

    def delay_between(self, a: str, b: str) -> float:
        return float(self.delay_ms[self.index[a], self.index[b]])

    def path(self, a: str, b: str) -> tuple[str, ...]:
        """Switch sequence from a to b inclusive, following next_hop."""
        i, j = self.index[a], self.index[b]
        seq = [a]
        steps = 0
        while i != j:
            i = int(self.next_hop[i, j])
            if i < 0 or steps > len(self.switch_ids):
                raise TopologyError(f"no recorded path from '{a}' to '{b}'")
            seq.append(self.switch_ids[i])
            steps += 1
        return tuple(seq)


def all_pairs_shortest_paths(topology: Topology) -> PathMatrix:
    """Hop-minimal all-pairs shortest paths over the switch graph.

    Ties on hop count prefer the smaller accumulated delay; remaining ties
    keep the path routed through the earliest switch in natural id order
    (intermediate switches are tried in that order), so the result is a
    total, deterministic choice. Topology validation makes the switch graph
    connected, so every pair has a path. The arrays are read-only.
    """
    ids = topology.switch_ids
    n = len(ids)
    index = topology.switch_index

    hops = np.full((n, n), _INF_HOPS, dtype=np.int64)
    delay = np.full((n, n), np.inf)
    next_hop = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(hops, 0)
    np.fill_diagonal(delay, 0.0)

    for link in topology.links:
        if link.a in index and link.b in index:
            i, j = index[link.a], index[link.b]
            hops[i, j] = hops[j, i] = 1
            delay[i, j] = delay[j, i] = link.delay_ms
            next_hop[i, j] = j
            next_hop[j, i] = i

    for m in range(n):
        alt_hops = hops[:, m][:, None] + hops[m, :][None, :]
        alt_delay = delay[:, m][:, None] + delay[m, :][None, :]
        better = (alt_hops < hops) | ((alt_hops == hops) & (alt_delay < delay))
        hops = np.where(better, alt_hops, hops)
        delay = np.where(better, alt_delay, delay)
        next_hop = np.where(better, next_hop[:, m][:, None], next_hop)

    for array in (hops, delay, next_hop):
        array.flags.writeable = False
    return PathMatrix(switch_ids=ids, hops=hops, delay_ms=delay, next_hop=next_hop, index=index)


# -- clustering features ---------------------------------------------------


@dataclass(frozen=True)
class FeatureSet:
    """Per-server 2-D feature points: (hops, delay_ms) from the user switch
    to the server's attached switch. Order is natural server-id order."""

    points: tuple[tuple[float, float], ...]
    server_ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.points) != len(self.server_ids):
            raise TopologyError("points and server_ids must be parallel")
        if not self.points:
            raise TopologyError("feature set must contain at least one server")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


def server_features(topology: Topology, paths: PathMatrix) -> FeatureSet:
    points = []
    for server in topology.server_ids:
        switch = topology.attached_switch(server)
        points.append(
            (
                float(paths.hops_between(topology.user_switch, switch)),
                paths.delay_between(topology.user_switch, switch),
            )
        )
    return FeatureSet(points=tuple(points), server_ids=topology.server_ids)
