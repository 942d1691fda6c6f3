"""Output checks computed apart from the program.

Nothing here imports ``sdnlb``: paths come from the benchmark's own
lexicographic (hops, delay) search over the topology document, the spectral
partition from numpy's ``eigh`` and an exhaustive k-means over levels, fair
shares from its own progressive filling over per-server flow classes, and
request counts from ``divmod``. Every check raises ``CheckFailed`` naming what is
wrong.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import re

import numpy as np

REL_TOL = 1e-9
BANDWIDTH_REL_TOL = 1e-6


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def natural_key(node_id: str) -> tuple:
    return tuple((0, int(p)) if p.isdigit() else (1, p) for p in re.split(r"(\d+)", node_id) if p)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# -- topology -------------------------------------------------------------


class Network:
    """What the checks need from a topology document: the switch graph, each
    server's switch, and the (hops, delay) shortest path from the user switch
    to every switch."""

    def __init__(self, document: dict):
        kinds = {n["id"]: n["kind"] for n in document["nodes"]}
        self.levels = {n["id"]: n.get("level") for n in document["nodes"]}
        self.capacity: dict[tuple[str, str], float] = {}
        adjacency: dict[str, list[tuple[str, float]]] = {i: [] for i, k in kinds.items() if k == "switch"}
        self.server_switch: dict[str, str] = {}
        for link in document["links"]:
            a, b = link["a"], link["b"]
            if kinds[a] == "switch" and kinds[b] == "switch":
                adjacency[a].append((b, float(link["delay_ms"])))
                adjacency[b].append((a, float(link["delay_ms"])))
                self.capacity[self.link_key(a, b)] = float(link["capacity_mbps"])
            elif kinds[a] == "server_host":
                self.server_switch[a] = b
            elif kinds[b] == "server_host":
                self.server_switch[b] = a
        self.servers = sorted(self.server_switch, key=natural_key)
        self.switch_links = tuple(sorted(self.capacity))
        self.user_switch = document["user_switch"]
        self.hops, self.delay, self.path = _lexicographic_paths(adjacency, self.user_switch)

    @staticmethod
    def link_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if natural_key(a) <= natural_key(b) else (b, a)

    def feature(self, server: str) -> tuple[float, float]:
        switch = self.server_switch[server]
        return (float(self.hops[switch]), self.delay[switch])

    def path_links(self, server: str) -> list[tuple[str, str]]:
        path = self.path[self.server_switch[server]]
        return [self.link_key(a, b) for a, b in zip(path, path[1:])]


def _lexicographic_paths(adjacency, source):
    """Dijkstra on (hops, delay) keys from one switch."""
    best = {source: (0, 0.0)}
    previous: dict[str, str] = {}
    heap = [(0, 0.0, source)]
    done = set()
    while heap:
        hops, delay, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nxt, d in adjacency[node]:
            cand = (hops + 1, delay + d)
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                previous[nxt] = node
                heapq.heappush(heap, (cand[0], cand[1], nxt))
    paths = {}
    for node in best:
        seq = [node]
        while seq[-1] != source:
            seq.append(previous[seq[-1]])
        paths[node] = tuple(reversed(seq))
    return {n: h for n, (h, _) in best.items()}, {n: d for n, (_, d) in best.items()}, paths


# -- clustering -------------------------------------------------------------


def _clusters(document: dict, net: Network, k: int) -> dict[int, list[str]]:
    require(document.get("k") == k, f"k is {document.get('k')}, expected {k}")
    assignment = {entry["server_id"]: entry["cluster"] for entry in document["servers"]}
    require(len(assignment) == len(document["servers"]), "a server appears twice")
    require(set(assignment) == set(net.servers), "cluster document does not cover exactly the servers")
    clusters: dict[int, list[str]] = {c: [] for c in range(k)}
    for server, cluster in assignment.items():
        require(cluster in clusters, f"server {server} in cluster {cluster} outside 0..{k - 1}")
        clusters[cluster].append(server)
    for cluster, members in clusters.items():
        require(bool(members), f"cluster {cluster} is empty")
    return clusters


def _check_centroids(document: dict, net: Network, clusters: dict[int, list[str]]) -> list[tuple[float, float]]:
    centroids = []
    by_cluster = {c["cluster"]: c for c in document["centroids"]}
    require(sorted(by_cluster) == sorted(clusters), "centroid list does not match the clusters")
    for cluster, members in sorted(clusters.items()):
        points = [net.feature(s) for s in members]
        want = (sum(p[0] for p in points) / len(points), sum(p[1] for p in points) / len(points))
        got = by_cluster[cluster]
        require(got["size"] == len(members), f"cluster {cluster}: size {got['size']} != {len(members)}")
        require(
            _close(got["mean_hops"], want[0]) and _close(got["mean_delay_ms"], want[1]),
            f"cluster {cluster}: centroid ({got['mean_hops']}, {got['mean_delay_ms']}) is not the members' mean {want}",
        )
        centroids.append(want)
    require(
        all(centroids[i] < centroids[i + 1] for i in range(len(centroids) - 1)),
        f"clusters are not numbered in ascending (hops, delay) order: {centroids}",
    )
    require(document["priority_order"] == list(range(len(centroids))), "priority_order is not 0..k-1")
    return centroids


def check_kmeans(document: dict, net: Network, k: int) -> None:
    """Centroids are member means, numbered by priority, and every server is
    nearest to its own centroid (a Lloyd fixed point)."""
    clusters = _clusters(document, net, k)
    centroids = _check_centroids(document, net, clusters)
    for cluster, members in clusters.items():
        for server in members:
            h, d = net.feature(server)
            dist = [(h - ch) ** 2 + (d - cd) ** 2 for ch, cd in centroids]
            require(
                dist[cluster] <= min(dist) + 1e-9,
                f"server {server} is nearer to another centroid than to its cluster {cluster}'s",
            )


@functools.lru_cache(maxsize=8)
def spectral_partitions(switch_links: tuple, bearing: tuple, levels: tuple, k: int) -> frozenset:
    """The partitions of the server-bearing levels that minimise k-means SSE
    over the row-normalised embedding of the k smallest eigenvectors of the
    normalised Laplacian of the switch graph.

    ``bearing`` lists the server-bearing switches and ``levels`` their levels.
    Switches of one level have equal rows (the levels are symmetric), so the
    search runs over assignments of levels, weighted by their switch counts.
    """
    switches = sorted({s for link in switch_links for s in link}, key=natural_key)
    index = {s: i for i, s in enumerate(switches)}
    adjacency = np.zeros((len(switches), len(switches)))
    for a, b in switch_links:
        adjacency[index[a], index[b]] = adjacency[index[b], index[a]] = 1.0
    inv_sqrt = 1.0 / np.sqrt(adjacency.sum(axis=1))
    laplacian = np.eye(len(switches)) - inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
    values, vectors = np.linalg.eigh(laplacian)
    require(values[k] - values[k - 1] > 1e-6, f"no eigengap after lambda_{k}: the spectral partition is not unique")
    rows = vectors[:, :k] / np.linalg.norm(vectors[:, :k], axis=1)[:, None]

    by_level: dict[int, list[np.ndarray]] = {}
    for switch, level in zip(bearing, levels):
        by_level.setdefault(level, []).append(rows[index[switch]])
    names = sorted(by_level)
    for level in names:
        require(np.ptp(np.array(by_level[level]), axis=0).max() < 1e-6, f"level {level} rows differ")
    points = np.array([by_level[level][0] for level in names])
    weights = np.array([len(by_level[level]) for level in names], dtype=float)

    scored = []
    for assign in itertools.product(range(k), repeat=len(names)):
        if len(set(assign)) != k or list(assign) != sorted(assign, key=assign.index):
            continue  # each partition once: clusters numbered by first appearance
        labels = np.array(assign)
        sse = 0.0
        for c in range(k):
            w, p = weights[labels == c], points[labels == c]
            centre = (w[:, None] * p).sum(axis=0) / w.sum()
            sse += float((w * ((p - centre) ** 2).sum(axis=1)).sum())
        scored.append((sse, assign))
    best = min(sse for sse, _ in scored)
    return frozenset(
        frozenset(frozenset(n for n, a in zip(names, assign) if a == c) for c in range(k))
        for sse, assign in scored if sse <= best + 1e-9
    )


def check_spectral(document: dict, net: Network, k: int) -> None:
    """k non-empty clusters, whole levels per cluster, member-mean centroids,
    and the level partition is the spectral one."""
    clusters = _clusters(document, net, k)
    level_cluster: dict[int, int] = {}
    for cluster, members in clusters.items():
        for server in members:
            level = net.levels[net.server_switch[server]]
            require(
                level_cluster.setdefault(level, cluster) == cluster,
                f"level {level} is split between clusters {level_cluster[level]} and {cluster}",
            )
    _check_centroids(document, net, clusters)
    bearing = tuple(sorted(set(net.server_switch.values()), key=natural_key))
    want = spectral_partitions(net.switch_links, bearing, tuple(net.levels[s] for s in bearing), k)
    got = frozenset(frozenset(l for l, c in level_cluster.items() if c == cluster) for cluster in clusters)
    require(got in want, f"level partition {sorted(map(sorted, got))} is not the spectral partition")


# -- allocation -------------------------------------------------------------


def round_robin(members: list[str], count: int) -> dict[str, int]:
    """Per-member counts of ``count`` requests dealt round robin from the
    first member, from divmod."""
    base, extra = divmod(count, len(members))
    return {s: base + (1 if i < extra else 0) for i, s in enumerate(members)}


def equal_per_cluster(pools: list[list[str]], cursors: list[int], count: int) -> list[str]:
    """Server sequence of an equal split over pools in priority order, the
    remainder going one each to the first pools; advances ``cursors``."""
    base, extra = divmod(count, len(pools))
    sequence = []
    for position, members in enumerate(pools):
        share = base + (1 if position < extra else 0)
        cursor = cursors[position]
        sequence.extend(members[(cursor + i) % len(members)] for i in range(share))
        cursors[position] = (cursor + share) % len(members)
    return sequence


# -- fair share -------------------------------------------------------------


def window_cap_mbps(window_bytes: float, rtt_ms: float) -> float:
    return window_bytes * 8e-3 / rtt_ms if rtt_ms > 0 else math.inf


def fair_share(net: Network, counts: dict[str, int], window_bytes: float) -> dict[str, float]:
    """Per-server bandwidth (Mbps) of max-min fair rates, by progressive
    filling over classes: all flows to one server share a path and a cap, so
    they get one rate, and the class carries ``counts[server]`` flows."""
    classes = [s for s in net.servers if counts.get(s, 0) > 0]
    links = {s: net.path_links(s) for s in classes}
    cap = {s: window_cap_mbps(window_bytes, 2.0 * net.delay[net.server_switch[s]]) for s in classes}
    residual = dict(net.capacity)
    rate = {s: 0.0 for s in classes}
    active = set(classes)
    while active:
        flows_on: dict[tuple[str, str], int] = {}
        for s in active:
            for key in links[s]:
                flows_on[key] = flows_on.get(key, 0) + counts[s]
        step = min((residual[key] / n for key, n in flows_on.items()), default=math.inf)
        step = min(step, min(cap[s] - rate[s] for s in active))
        require(math.isfinite(step), "a flow has neither a link nor a window cap")
        for s in active:
            rate[s] += step
        for key, n in flows_on.items():
            residual[key] -= step * n
        saturated = {key for key in flows_on if residual[key] <= 1e-9 * net.capacity[key]}
        active = {
            s for s in active
            if rate[s] < cap[s] * (1 - 1e-12) and not saturated.intersection(links[s])
        }
    return {s: counts[s] * rate[s] if s in rate else 0.0 for s in net.servers}


def check_report(report, net: Network, counts: dict[str, int], window_bytes: float, duration_s: float) -> None:
    """Request counts, per-server bandwidth against the class filling, and
    bytes = bandwidth x duration / 8."""
    got_counts = {s: report.per_server_requests.get(s, 0) for s in net.servers}
    require(set(report.per_server_requests) <= set(net.servers), f"{report.label}: unknown servers in the report")
    require(got_counts == counts, f"{report.label}: request counts do not follow round robin")
    want = fair_share(net, counts, window_bytes)
    for server in net.servers:
        got = report.per_server_bandwidth_mbps.get(server, 0.0)
        require(
            math.isclose(got, want[server], rel_tol=BANDWIDTH_REL_TOL, abs_tol=1e-12),
            f"{report.label}: {server} bandwidth {got} Mbps, max-min fair share is {want[server]}",
        )
        require(
            _close(report.per_server_bytes.get(server, 0.0), got * duration_s / 8.0, 1e-12),
            f"{report.label}: {server} megabytes are not bandwidth x duration / 8",
        )
    require(
        _close(report.user_bandwidth_mbps, sum(want.values()), BANDWIDTH_REL_TOL),
        f"{report.label}: user bandwidth is not the sum over servers",
    )


def check_comparison(table, reports) -> None:
    """Per-cluster rows of compare_reports are the sums over each report's
    servers, with deltas against the first report."""
    def sums(report):
        out: dict[int, list[float]] = {}
        for server, cluster in report.server_cluster.items():
            entry = out.setdefault(cluster, [0, 0.0])
            entry[0] += report.per_server_requests.get(server, 0)
            entry[1] += report.per_server_bytes.get(server, 0.0)
        return out

    baseline = sums(reports[0])
    want = []
    for report in reports:
        for cluster, (requests, bytes_mb) in sorted(sums(report).items()):
            want.append((report.label, cluster, requests, bytes_mb, bytes_mb - baseline[cluster][1]))
    require(len(table.rows) == len(want), f"comparison has {len(table.rows)} rows, expected {len(want)}")
    for row, (label, cluster, requests, bytes_mb, delta) in zip(table.rows, want):
        require(
            (row.state, row.cluster, row.requests) == (label, cluster, requests)
            and _close(row.bytes_mb, bytes_mb)
            and math.isclose(row.delta_bytes_mb, delta, rel_tol=REL_TOL, abs_tol=1e-9 * max(1.0, bytes_mb)),
            f"comparison row {row} does not aggregate {label} cluster {cluster}",
        )
