"""Data-plane topology model, shortest paths, and server features.

A topology is an undirected graph of switches plus host nodes (one user host
and any number of server hosts), each host hanging off exactly one switch.
One rule (_shortest_paths_from: fewest hops, then least delay, then the
least tied parent) picks every shortest path over the switch graph, hosts
collapsed onto their switch. Run once from the user switch, during
validation, it gives the hops, delay and parent that every route and
feature is read off; run from every switch it gives
all_pairs_shortest_paths. A Topology is immutable: validation ranks the
nodes by natural id, sorts the links by their ends' ranks, and builds its
indexes (lists indexed by rank while it runs) in one pass per section; its
routes and features are built once, on first use, and shared.
Two topologies are equal when their nodes, links and user switch are. Node
and Link are slotted, with hand-written constructors.
"""

from __future__ import annotations

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

# Longest link delay accepted (about 11.6 days): path delays and their
# squares in the clustering stay finite for any network that fits in memory.
MAX_DELAY_MS = 1e9
NATURAL_KEY_CACHE_SIZE = 4096
# how the constructors of the frozen Node and Link set their slots
_set_field = object.__setattr__


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
    The id itself comes last, so the order is total: ids whose numbers tie
    (h01, h1) sort by their text, and no sort depends on input order.

    Memoized with a bounded cache: links and topology sorting ask again for
    the same few ids.
    """
    parts = re.split(r"(\d+)", node_id)
    return tuple((0, int(p)) if i % 2 else (1, p) for i, p in enumerate(parts) if p) + ((-1, node_id),)


@dataclass(frozen=True, init=False, slots=True)
class Node:
    id: str
    kind: NodeKind
    level: int | None = None
    label: str | None = None

    def __init__(self, id: str, kind: NodeKind, level: int | None = None, label: str | None = None):
        if not id:
            raise TopologyError("node id must be a non-empty string")
        if level is not None and level < 1:
            raise TopologyError(f"node '{id}': level must be >= 1")
        _set_field(self, "id", id)
        _set_field(self, "kind", kind)
        _set_field(self, "level", level)
        _set_field(self, "label", label)

    @property
    def display(self) -> str:
        return self.label if self.label is not None else self.id


@dataclass(frozen=True, init=False, slots=True)
class Link:
    """Undirected link; endpoints are stored in natural id order. The
    constructor checks the fields, orders the ends and sets the slots."""

    a: str
    b: str
    delay_ms: float
    capacity_mbps: float

    def __init__(self, a: str, b: str, delay_ms: float, capacity_mbps: float):
        if a == b:
            raise TopologyError(f"link endpoints must differ (got '{a}' twice)")
        if not 0 <= delay_ms <= MAX_DELAY_MS:  # NaN fails both comparisons
            raise TopologyError(f"link {a}-{b}: delay_ms must be within [0, {MAX_DELAY_MS:g}]")
        if not (math.isfinite(capacity_mbps) and capacity_mbps > 0):
            raise TopologyError(f"link {a}-{b}: capacity_mbps must be finite and > 0")
        if natural_key(b) < natural_key(a):
            a, b = b, a
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "delay_ms", delay_ms)
        _set_field(self, "capacity_mbps", capacity_mbps)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b)


class Route(NamedTuple):
    """A shortest path from the user switch: its switches, the key of the
    link under each hop, and its delay."""

    path: tuple[str, ...]
    links: tuple[tuple[str, str], ...]
    delay_ms: float


@dataclass(frozen=True)
class Topology:
    """A validated topology. Validation sorts each section once by natural
    id (links by their end pair), walks the nodes and then the links once,
    and sets the fields below from what those walks index; the mappings
    other than node_map are read-only views."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    user_switch: str
    node_map: dict[str, Node] = field(init=False, repr=False, compare=False)
    # neighbour ids of every node, in link order
    adjacency: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    switch_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # position of each switch in switch_ids
    switch_index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    # for each switch index, its (neighbour index, delay) pairs over the
    # switch graph, in link order
    switch_links: tuple[tuple[tuple[int, float], ...], ...] = field(init=False, repr=False, compare=False)
    server_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    user_host_id: str = field(init=False, repr=False, compare=False)
    # _shortest_paths_from(switch_links, user switch index): the reached
    # order, then hops, delay and parent by switch index
    _from_user: tuple[list[int], list[int], list[float], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each id's natural key once; the link sort then compares ranks,
        # which order exactly as the key pairs do (a repeated id, which
        # validation refuses, keeps its last rank)
        ids = [n.id for n in self.nodes]
        keys = [natural_key(i) for i in ids]
        order = sorted(range(len(ids)), key=keys.__getitem__)
        rank = {ids[i]: position for position, i in enumerate(order)}
        span = len(ids)
        try:
            links = sorted(self.links, key=lambda l: rank[l.a] * span + rank[l.b])
        except KeyError:  # an end that is no node; validation names the first
            links = sorted(self.links, key=lambda l: (natural_key(l.a), natural_key(l.b)))
        object.__setattr__(self, "nodes", tuple(self.nodes[i] for i in order))
        object.__setattr__(self, "links", tuple(links))
        self._validate(rank)

    def _validate(self, rank: dict[str, int]) -> None:
        """Check every invariant, the first failure raising, and keep the
        indexes built on the way. rank is each id's position in nodes, and
        the per-node neighbour ids and switch slots are lists indexed by it.
        One pass over the links looks each end up once (links are sorted by
        rank pair, so a duplicate is the one equal to the previous) and
        indexes it; the host checks read those lists; then the one rule runs
        from the user switch, and a switch it leaves unreached, or a host on
        one, is disconnected."""
        nodes, user_switch = self.nodes, self.user_switch
        # locals, as an enum member lookup costs about as much as the test
        switch_kind, user_kind, server_kind = NodeKind.SWITCH, NodeKind.USER_HOST, NodeKind.SERVER_HOST
        if len(rank) != len(nodes):
            duplicate = next(i for i, c in Counter(n.id for n in nodes).items() if c > 1)
            raise TopologyError(f"duplicate node id '{duplicate}'")
        ids = [n.id for n in nodes]
        switch_ids = tuple(n.id for n in nodes if n.kind is switch_kind)
        switch_index = {s: i for i, s in enumerate(switch_ids)}
        slot = [switch_index.get(node_id, -1) for node_id in ids]  # -1 for a host

        # one pass over the links checks their ends and indexes them
        neighbours: list[list[str]] = [[] for _ in ids]
        switch_links: list[list[tuple[int, float]]] = [[] for _ in switch_ids]
        last_i = last_j = -1
        for link in self.links:
            a, b = link.a, link.b
            i, j = rank.get(a), rank.get(b)
            if i is None or j is None:
                raise TopologyError(f"link {a}-{b} references unknown node id '{a if i is None else b}'")
            if j == last_j and i == last_i:
                raise TopologyError(f"duplicate link between '{a}' and '{b}'")
            last_i, last_j = i, j
            neighbours[i].append(b)
            neighbours[j].append(a)
            si, sj = slot[i], slot[j]
            if si >= 0 and sj >= 0:
                switch_links[si].append((sj, link.delay_ms))
                switch_links[sj].append((si, link.delay_ms))

        if user_switch not in rank:
            raise TopologyError(f"user_switch '{user_switch}' is not a node")
        if user_switch not in switch_index:
            raise TopologyError(f"user_switch '{user_switch}' must be a switch")

        user_hosts = [n.id for n in nodes if n.kind is user_kind]
        if len(user_hosts) != 1:
            raise TopologyError(f"expected exactly one user_host, found {len(user_hosts)}")

        for node_id, switch, attached in zip(ids, slot, neighbours):
            if switch >= 0:
                continue
            if len(attached) != 1:
                raise TopologyError(f"host '{node_id}' must have exactly one link (has {len(attached)})")
            if attached[0] not in switch_index:
                raise TopologyError(f"host '{node_id}' must attach to a switch, not '{attached[0]}'")

        if neighbours[rank[user_hosts[0]]][0] != user_switch:
            raise TopologyError(f"user host '{user_hosts[0]}' is not attached to user_switch '{user_switch}'")

        switch_links = tuple(map(tuple, switch_links))
        from_user = _shortest_paths_from(switch_links, switch_index[user_switch])
        hops = from_user[1]
        if -1 in hops:
            unreachable = next(
                node_id
                for node_id, switch, attached in zip(ids, slot, neighbours)
                if hops[switch if switch >= 0 else switch_index[attached[0]]] < 0
            )
            raise TopologyError(f"graph is disconnected: node '{unreachable}' unreachable")

        vars(self).update(
            node_map=dict(zip(ids, nodes)),
            adjacency=MappingProxyType(dict(zip(ids, map(tuple, neighbours)))),
            switch_ids=switch_ids,
            switch_index=MappingProxyType(switch_index),
            switch_links=switch_links,
            server_ids=tuple(n.id for n in nodes if n.kind is server_kind),
            user_host_id=user_hosts[0],
            _from_user=from_user,
        )

    # -- accessors and views (each built once, on first use) ---------------

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
        rows = [i for i, neighbours in enumerate(self.switch_links) for _ in neighbours]
        columns = [j for neighbours in self.switch_links for j, _ in neighbours]
        adj = np.zeros((len(self.switch_ids),) * 2)
        adj[rows, columns] = 1.0
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
    def capacity(self) -> Mapping[tuple[str, str], float]:
        """Capacity (Mbps) of every link, by link key (read-only)."""
        return MappingProxyType({l.key: l.capacity_mbps for l in self.links})

    @cached_property
    def routes(self) -> Mapping[str, Route]:
        """The route from user_switch to every switch, breadth-first and
        read-only, by the one rule (see _shortest_paths_from). Every route
        extends its parent's, and its delay is the left-to-right sum of its
        link delays. switch_ids and each link's ends are in natural order,
        so the lesser index of a hop is its link key's first end."""
        ids, (order, _, delay, parent) = self.switch_ids, self._from_user
        routes: list[Route | None] = [None] * len(ids)
        for v in order:
            p = parent[v]
            if p < 0:
                routes[v] = Route((ids[v],), (), delay[v])
            else:
                up, key = routes[p], (ids[p], ids[v]) if p < v else (ids[v], ids[p])
                routes[v] = Route(up.path + (ids[v],), up.links + (key,), delay[v])
        return MappingProxyType({ids[v]: routes[v] for v in order})

    @cached_property
    def features(self) -> FeatureSet:
        """Per-server (hops, delay) clustering features, read off the one
        rule's run from the user switch."""
        index, (_, hops, delay, _) = self.switch_index, self._from_user
        switches = [index[self.adjacency[s][0]] for s in self.server_ids]
        return FeatureSet(tuple((float(hops[i]), delay[i]) for i in switches), self.server_ids)


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

    kinds = {kind.value: kind for kind in NodeKind}
    nodes = []
    for i, raw in enumerate(document["nodes"]):
        if not isinstance(raw, dict) or "id" not in raw or "kind" not in raw:
            raise TopologyError(f"node entry {raw!r} must carry 'id' and 'kind'")
        node_id = raw["id"]
        if not (isinstance(node_id, str) and node_id):
            raise _not_a_name(node_id, f"nodes[{i}].id")
        try:
            kind = kinds[raw["kind"]]
        except (KeyError, TypeError):  # TypeError: an unhashable kind
            raise TopologyError(f"node '{node_id}': unknown kind '{raw['kind']}'") from None
        level, label = raw.get("level"), raw.get("label")
        if level is not None and (not isinstance(level, int) or isinstance(level, bool)):
            raise TopologyError(f"node '{node_id}': level must be an integer")
        if label is not None and not isinstance(label, str):
            raise TopologyError(f"node '{node_id}': label must be a string or null, got {label!r}")
        nodes.append(Node(node_id, kind, level, label))

    links = []
    for i, raw in enumerate(document["links"]):
        try:
            a, b, delay, capacity = raw["a"], raw["b"], raw["delay_ms"], raw["capacity_mbps"]
        except (KeyError, TypeError):  # TypeError: an entry that is no mapping
            raise TopologyError(f"link entry {raw!r} must carry 'a', 'b', 'delay_ms', 'capacity_mbps'") from None
        if not (isinstance(a, str) and a):
            raise _not_a_name(a, f"links[{i}].a")
        if not (isinstance(b, str) and b):
            raise _not_a_name(b, f"links[{i}].b")
        if type(delay) is not float:
            delay = _real(delay, "delay_ms", a, b)
        if type(capacity) is not float:
            capacity = _real(capacity, "capacity_mbps", a, b)
        links.append(Link(a, b, delay, capacity))

    user_switch = document["user_switch"]
    if not (isinstance(user_switch, str) and user_switch):
        raise _not_a_name(user_switch, "user_switch")
    return Topology(tuple(nodes), tuple(links), user_switch)


def _not_a_name(value, element: str) -> TopologyError:
    return TopologyError(f"{element} must be a non-empty string, got {value!r}")


def _real(value, key: str, a: str, b: str) -> float:
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


# -- shortest paths ---------------------------------------------------------


def _shortest_paths_from(
    switch_links: tuple[tuple[tuple[int, float], ...], ...], source: int
) -> tuple[list[int], list[int], list[float], list[int]]:
    """The shortest-path rule from switch index source: fewest hops, then
    least delay (the left-to-right sum along the route); the parent is the
    least index among the tied predecessors. It settles one BFS layer at a
    time, each in ascending index order, and a later offer replaces an
    earlier one only if its delay is strictly smaller. Returns the reached
    switches in that order, then hops, delay and parent by switch index
    (-1 hops and parent where unreached; -1 parent at source)."""
    n = len(switch_links)
    hops, delay, parent = [-1] * n, [0.0] * n, [-1] * n
    hops[source] = 0
    order, layer, depth = [source], [source], 0
    while layer:
        depth += 1
        reached = []
        for p in layer:
            base = delay[p]
            for v, d in switch_links[p]:
                if hops[v] < 0:
                    hops[v], delay[v], parent[v] = depth, base + d, p
                    reached.append(v)
                elif hops[v] == depth and base + d < delay[v]:
                    delay[v], parent[v] = base + d, p
        reached.sort()
        order += reached
        layer = reached
    return order, hops, delay, parent


@dataclass(frozen=True, eq=False)
class PathMatrix:
    """All-pairs shortest paths over the switch graph (see
    all_pairs_shortest_paths): hops[i, j] and delay_ms[i, j] of the route
    from switch index i to j, and parent[i, j], the switch index before j
    on that route (-1 on the diagonal)."""

    switch_ids: tuple[str, ...]
    hops: np.ndarray
    delay_ms: np.ndarray
    parent: np.ndarray
    index: Mapping[str, int] = field(repr=False)

    def hops_between(self, a: str, b: str) -> int:
        return int(self.hops[self.index[a], self.index[b]])

    def delay_between(self, a: str, b: str) -> float:
        return float(self.delay_ms[self.index[a], self.index[b]])

    def path(self, a: str, b: str) -> tuple[str, ...]:
        """Switch sequence from a to b inclusive: a's row of parent, from b."""
        i, j = self.index[a], self.index[b]
        seq = [b]
        while j != i:
            j = int(self.parent[i, j])
            seq.append(self.switch_ids[j])
        return tuple(reversed(seq))


def all_pairs_shortest_paths(topology: Topology) -> PathMatrix:
    """The one shortest-path rule (see _shortest_paths_from) run from every
    switch: row i holds the shortest paths from switch i, so the user_switch
    row gives Topology.routes and Topology.features. Validation makes the
    switch graph connected, so every pair has a path. The arrays are filled
    row by row and read-only."""
    ids, links = topology.switch_ids, topology.switch_links
    n = len(ids)
    hops = np.empty((n, n), dtype=np.int64)
    delay = np.empty((n, n))
    parent = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        _, hops[i], delay[i], parent[i] = _shortest_paths_from(links, i)
    for array in (hops, delay, parent):
        array.flags.writeable = False
    return PathMatrix(switch_ids=ids, hops=hops, delay_ms=delay, parent=parent, index=topology.switch_index)


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

    @cached_property
    def array(self) -> np.ndarray:
        """The points as one read-only (n, 2) array, built on first use."""
        array = np.array(self.points, dtype=float)
        array.flags.writeable = False
        return array


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
