"""Deterministic flow-level experiments over a topology and pool set.

Requests become concurrent flows held open for the whole window; per-flow
rates come from progressive-filling max-min fairness over the switch links,
with each flow additionally capped at window_bytes * 8 / rtt (so nearer
clusters can push more per flow). The flows sent to one switch share a route
and a cap, so they form one class, weighted by its request count, and the
filling runs over those classes. Request counts come in closed form from the
allocator, so the cost of an experiment grows with the servers and links,
not with the number of requests. Bytes are rate * duration. This is a
declared model of TCP behaviour, not an emulation of it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .allocator import (
    AllocationError, EqualPerCluster, Pool, PoolSet, SingleCluster, SingleServer, distribute_requests,
)
from .topology import NodeKind, PathMatrix, Topology, TopologyError

DEFAULT_DURATION_S = 10.0
DEFAULT_RTT_WINDOW_BYTES = 65536.0

_LEVEL_TOL = 1e-12


class SimulationError(ValueError):
    """Invalid scenario or unsolvable rate allocation."""


# -- scenario states --------------------------------------------------------


@dataclass(frozen=True)
class SingleServerBurst:
    server_id: str
    requests: int

    label = "single-server"


@dataclass(frozen=True)
class BigClusterRR:
    requests: int

    label = "big-cluster"


@dataclass(frozen=True)
class ClusteredRR:
    requests_per_cluster: int

    label = "clustered"


State = SingleServerBurst | BigClusterRR | ClusteredRR


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    pools: PoolSet
    state: State
    duration_s: float = DEFAULT_DURATION_S
    rtt_window_bytes: float = DEFAULT_RTT_WINDOW_BYTES

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise SimulationError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not (math.isfinite(self.rtt_window_bytes) and self.rtt_window_bytes > 0):
            raise SimulationError(f"rtt_window_bytes must be finite and > 0, got {self.rtt_window_bytes}")


@dataclass(frozen=True)
class Flow:
    src: str
    dst: str
    path: tuple[str, ...]
    rtt_ms: float


@dataclass(frozen=True)
class ExperimentReport:
    label: str
    topology: Topology = field(repr=False)
    duration_s: float
    per_server_requests: dict[str, int]
    per_server_bytes: dict[str, float]
    per_server_bandwidth_mbps: dict[str, float]
    user_total_bytes: float
    user_bandwidth_mbps: float
    server_cluster: dict[str, int]


# -- max-min fair rates -------------------------------------------------------


def window_rate_cap_mbps(rtt_window_bytes: float, rtt_ms: float) -> float:
    """Per-flow ceiling window_bytes * 8 / rtt, in Mbps (inf for rtt = 0)."""
    if rtt_ms <= 0.0:
        return math.inf
    return rtt_window_bytes * 8e-3 / rtt_ms


def max_min_fair_rates(
    flows: list[Flow],
    topology: Topology,
    rtt_window_bytes: float = DEFAULT_RTT_WINDOW_BYTES,
) -> np.ndarray:
    """Progressive-filling max-min fair rates (Mbps) for concurrent flows.

    Flows with the same path and RTT form one class of multiplicity m: the
    max-min fair allocation is unique, so they get equal rates. The flows
    are grouped into classes in (path, rtt) order, so the rates do not
    depend on the order of the flows, and each flow gets its class's rate
    (see _fill_classes).
    """
    multiplicity = Counter((flow.path, flow.rtt_ms) for flow in flows)
    signatures = sorted(multiplicity)
    capacity = topology.capacity
    classes = [(_link_keys(path, capacity), rtt, multiplicity[path, rtt]) for path, rtt in signatures]
    rates, _ = _fill_classes(classes, capacity, rtt_window_bytes)
    rate = dict(zip(signatures, rates))
    return np.array([rate[flow.path, flow.rtt_ms] for flow in flows])


# a flow class: the link keys of its path, its rtt_ms and how many flows it holds
FlowClass = tuple[tuple[tuple[str, str], ...], float, int]


def _fill_classes(
    classes: list[FlowClass],
    capacity: Mapping[tuple[str, str], float],
    rtt_window_bytes: float,
) -> tuple[list[float], int]:
    """Progressive filling over flow classes; returns the rate of one flow
    of each class and the number of filling rounds.

    All unfrozen classes rise together; at each round either a link
    saturates (its level is the spare capacity over the multiplicity of its
    live classes, and those classes freeze at that level) or a class hits
    its window/RTT cap. A frozen class adds m * rate to the load of each of
    its links. Cap-frozen classes freeze in class order, then link-frozen
    ones in link-id order, so ties resolve deterministically. The cost grows
    with the classes and their path lengths, not with the number of flows
    (Bertsekas & Gallager, Data Networks, section 6.5.2).

    The live links' levels are kept from round to round, a round re-levels
    only the links of the classes it froze, and a cursor walks the classes
    sorted once by cap. So a round costs two passes over the live links
    (their least level, then those at it) plus the path lengths of the
    classes it freezes, not a pass over every link and class.
    """
    class_links = [keys for keys, _, _ in classes]
    caps = [window_rate_cap_mbps(rtt_window_bytes, rtt) for _, rtt, _ in classes]
    mult = [m for _, _, m in classes]

    members: dict[tuple[str, str], list[int]] = {}
    live_weight: dict[tuple[str, str], int] = {}
    for c, (keys, _, m) in enumerate(classes):
        for key in keys:
            members.setdefault(key, []).append(c)
            live_weight[key] = live_weight.get(key, 0) + m
    frozen_load = dict.fromkeys(members, 0.0)
    # in link-id order; a link leaves once no live class crosses it
    levels = {key: capacity[key] / live_weight[key] for key in sorted(members) if live_weight[key]}

    rates = [0.0] * len(caps)
    active = [True] * len(caps)
    live = len(caps)
    by_cap = sorted(range(len(caps)), key=caps.__getitem__)
    lowest = 0  # by_cap[:lowest] are frozen

    for rounds in range(len(caps) + 1):  # each round freezes at least one class
        if not live:
            break
        while not active[by_cap[lowest]]:
            lowest += 1
        cap_level = caps[by_cap[lowest]]
        if not levels and math.isinf(cap_level):
            raise SimulationError("flow without any capacity constraint (empty path, zero rtt)")
        level = min(min(levels.values(), default=math.inf), cap_level)
        ceiling = level + _LEVEL_TOL

        # pick the round's classes against the levels the round began with,
        # then add their loads in the order they froze
        end = lowest
        while end < len(caps) and caps[by_cap[end]] <= ceiling:
            end += 1
        frozen = [c for c in sorted(by_cap[lowest:end]) if active[c]]
        lowest = end
        for c in frozen:
            active[c] = False
            rates[c] = caps[c]
        for key, link_level in levels.items():
            if link_level <= ceiling:
                for c in members[key]:
                    if active[c]:
                        active[c] = False
                        rates[c] = level
                        frozen.append(c)
        live -= len(frozen)
        for c in frozen:
            m = mult[c]
            load = m * rates[c]
            for key in class_links[c]:
                frozen_load[key] += load
                live_weight[key] -= m
        for key in {key for c in frozen for key in class_links[c]}:
            if live_weight[key]:
                levels[key] = (capacity[key] - frozen_load[key]) / live_weight[key]
            else:
                levels.pop(key, None)
    else:
        raise SimulationError(f"progressive filling left classes unfrozen after {len(caps) + 1} rounds")

    _check_conservation([m * r for m, r in zip(mult, rates)], class_links, capacity)
    return rates, rounds


def _link_keys(path: tuple[str, ...], capacity: Mapping[tuple[str, str], float]) -> tuple[tuple[str, str], ...]:
    """Each hop's link key, in either orientation (a key holds its ends in
    natural order); a missing hop is named as the path lists it."""
    keys = []
    for a, b in zip(path, path[1:]):
        key = (a, b) if (a, b) in capacity else (b, a)
        if key not in capacity:
            raise SimulationError(f"path {'-'.join(path)}: no link {a}-{b}")
        keys.append(key)
    return tuple(keys)


def _check_conservation(class_loads, class_links, capacity) -> None:
    loads: dict[tuple[str, str], float] = {}
    for load, keys in zip(class_loads, class_links):
        for key in keys:
            loads[key] = loads.get(key, 0.0) + load
    for key, load in loads.items():
        if load > capacity[key] + 1e-9:
            raise SimulationError(f"link {key[0]}-{key[1]} oversubscribed: {load} Mbps")


# -- experiments --------------------------------------------------------------


def _request_counts(scenario: Scenario, servers: tuple[str, ...]) -> dict[str, int]:
    """Each state is a split for the allocator, which reads the caller's
    pools and moves no cursor: a burst at one server, round robin from the
    first of servers (every pool member, in the topology's order) as one
    pool, or an equal share per cluster. The counts are keyed in the order
    of the pools they draw from."""
    pools, state = scenario.pools, scenario.state
    try:
        if isinstance(state, SingleServerBurst):
            total, split = state.requests, SingleServer(state.server_id)
        elif isinstance(state, BigClusterRR):
            pools, total, split = PoolSet([Pool(0, servers, (0.0, 0.0))]), state.requests, SingleCluster(0)
        elif isinstance(state, ClusteredRR):
            total, split = state.requests_per_cluster * len(pools.pools), EqualPerCluster()
        else:
            raise SimulationError(f"unknown state {state!r}")
        return distribute_requests(pools, total, split)
    except AllocationError as exc:
        raise SimulationError(f"{state.label}: {exc}") from exc


def _server_clusters(topology: Topology, pools: PoolSet) -> dict[str, int]:
    """The cluster of each pool member, in pool order. Every member must be a
    server host of the topology, and in one pool only, whether or not a
    request reaches it."""
    # a local, as an enum member lookup costs about as much as the check
    node_map, server_cluster, server_host = topology.node_map, {}, NodeKind.SERVER_HOST
    for pool in pools.pools:
        for server in pool.members:
            node = node_map.get(server)
            if node is None:
                raise TopologyError(f"unknown node id '{server}'")
            if node.kind is not server_host:
                kind = "a switch" if node.kind is NodeKind.SWITCH else "the user host"
                raise TopologyError(f"'{server}' is {kind}, not a server host")
            if server in server_cluster:
                raise SimulationError(
                    f"server '{server}' is in two pools: clusters {server_cluster[server]} and {pool.cluster_index}"
                )
            server_cluster[server] = pool.cluster_index
    return server_cluster


def build_flows(topology: Topology, counts: dict[str, int], paths: PathMatrix) -> list[Flow]:
    """One concurrent flow per request, user host to server host, in the
    order of counts."""
    user = topology.user_host_id
    user_switch = topology.user_switch
    flows = []
    for server, count in counts.items():
        if count == 0:
            continue
        switch = topology.attached_switch(server)
        path = paths.path(user_switch, switch)
        rtt = 2.0 * paths.delay_between(user_switch, switch)
        flows.extend([Flow(src=user, dst=server, path=path, rtt_ms=rtt)] * count)
    return flows


def run_experiment(scenario: Scenario) -> ExperimentReport:
    """Dispatch the scenario's requests, solve fair-share rates, and report
    per-server requests, transferred megabytes, and bandwidth: one flow
    class per loaded switch, and count * class rate per server. A pool
    member that is not a server host of the topology is a TopologyError
    naming it, and one in two pools a SimulationError naming it and both
    clusters, even if no request would reach it."""
    topology = scenario.topology
    server_cluster = _server_clusters(topology, scenario.pools)
    # every pool member in the topology's (natural) order: the report's key order
    servers = tuple(s for s in topology.server_ids if s in server_cluster)
    counts = _request_counts(scenario, servers)
    routes, adjacency = topology.routes, topology.adjacency
    switch_of = {server: adjacency[server][0] for server, count in counts.items() if count}
    load: dict[str, int] = {}
    for server, switch in switch_of.items():
        load[switch] = load.get(switch, 0) + counts[server]
    # each switch has one route, so (path, rtt) order is path order
    switches = sorted(load, key=lambda switch: routes[switch].path)
    classes = [(routes[s].links, 2.0 * routes[s].delay_ms, load[s]) for s in switches]
    rates, _ = _fill_classes(classes, topology.capacity, scenario.rtt_window_bytes)
    rate = dict(zip(switches, rates))

    bandwidth = dict.fromkeys(servers, 0.0)
    for server, switch in switch_of.items():
        bandwidth[server] = counts[server] * rate[switch]
    bytes_mb = {s: bw * scenario.duration_s / 8.0 for s, bw in bandwidth.items()}
    return ExperimentReport(
        label=scenario.state.label,
        topology=topology,
        duration_s=scenario.duration_s,
        per_server_requests={s: counts[s] for s in servers},
        per_server_bytes=bytes_mb,
        per_server_bandwidth_mbps=bandwidth,
        user_total_bytes=float(sum(bytes_mb.values())),
        user_bandwidth_mbps=float(sum(bandwidth.values())),
        server_cluster=server_cluster,
    )


def report_csv(report: ExperimentReport) -> str:
    """Fixed-format report: one row per server plus a row for the user host."""
    lines = ["entity,kind,requests,bytes_mb,bandwidth_mbps,cluster"]
    for server in report.per_server_requests:  # natural order, as run_experiment keys it
        lines.append(
            f"{server},server,{report.per_server_requests[server]},"
            f"{report.per_server_bytes[server]:.4f},"
            f"{report.per_server_bandwidth_mbps[server]:.4f},"
            f"{report.server_cluster.get(server, '')}"
        )
    total_requests = sum(report.per_server_requests.values())
    lines.append(
        f"{report.topology.user_host_id},user,{total_requests},"
        f"{report.user_total_bytes:.4f},{report.user_bandwidth_mbps:.4f},"
    )
    return "\n".join(lines) + "\n"


# -- cross-state comparison ----------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    state: str
    cluster: int
    requests: int
    bytes_mb: float
    bandwidth_mbps: float
    delta_bytes_mb: float
    delta_bandwidth_mbps: float


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def bytes_by_cluster(self, state: str) -> dict[int, float]:
        return {r.cluster: r.bytes_mb for r in self.rows if r.state == state}

    def to_csv(self) -> str:
        lines = ["state,cluster,requests,bytes_mb,bandwidth_mbps,delta_bytes_mb,delta_bandwidth_mbps"]
        for r in self.rows:
            lines.append(
                f"{r.state},{r.cluster},{r.requests},{r.bytes_mb:.4f},"
                f"{r.bandwidth_mbps:.4f},{r.delta_bytes_mb:.4f},{r.delta_bandwidth_mbps:.4f}"
            )
        return "\n".join(lines) + "\n"


def _cluster_aggregate(report: ExperimentReport) -> dict[int, tuple[int, float, float]]:
    out: dict[int, tuple[int, float, float]] = {}
    for server, cluster in report.server_cluster.items():
        requests, bytes_mb, bw = out.get(cluster, (0, 0.0, 0.0))
        out[cluster] = (
            requests + report.per_server_requests.get(server, 0),
            bytes_mb + report.per_server_bytes.get(server, 0.0),
            bw + report.per_server_bandwidth_mbps.get(server, 0.0),
        )
    return out


def compare_reports(reports: list[ExperimentReport]) -> ComparisonTable:
    """Per-cluster aggregates for each report plus deltas against the first
    report (the baseline state)."""
    if not reports:
        raise SimulationError("need at least one report")
    if any(report.topology != reports[0].topology for report in reports):
        raise SimulationError("reports come from different topologies")

    aggregates = [_cluster_aggregate(report) for report in reports]
    rows = []
    for report, aggregate in zip(reports, aggregates):
        for cluster in sorted(aggregate):
            requests, bytes_mb, bw = aggregate[cluster]
            _, base_bytes, base_bw = aggregates[0].get(cluster, (0, 0.0, 0.0))
            rows.append(
                ComparisonRow(
                    state=report.label,
                    cluster=cluster,
                    requests=requests,
                    bytes_mb=bytes_mb,
                    bandwidth_mbps=bw,
                    delta_bytes_mb=bytes_mb - base_bytes,
                    delta_bandwidth_mbps=bw - base_bw,
                )
            )
    return ComparisonTable(rows=tuple(rows))
