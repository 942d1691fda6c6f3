"""Deterministic flow-level experiments over a topology and pool set.

Requests become concurrent flows held open for the whole window; per-flow
rates come from progressive-filling max-min fairness over the switch links,
with each flow additionally capped at window_bytes * 8 / rtt (so nearer
clusters can push more per flow). Bytes are rate * duration. This is a
declared model of TCP behaviour, not an emulation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .allocator import PoolSet, SingleCluster, dispatch_sequence
from .topology import PathMatrix, Topology, natural_key

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
        if self.duration_s <= 0:
            raise SimulationError("duration_s must be > 0")
        if self.rtt_window_bytes <= 0:
            raise SimulationError("rtt_window_bytes must be > 0")


@dataclass(frozen=True)
class Flow:
    src: str
    dst: str
    path: tuple[str, ...]
    rtt_ms: float
    rate_mbps: float = 0.0


@dataclass(frozen=True)
class ExperimentReport:
    label: str
    topology_id: str
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

    All unfrozen flows rise together; at each step either a link saturates
    (freezing its flows at the equal share) or a flow hits its window/RTT
    cap. Links are visited in natural id order, so ties resolve
    deterministically.
    """
    n = len(flows)
    if n == 0:
        return np.zeros(0)

    capacity: dict[tuple[str, str], float] = {l.key: l.capacity_mbps for l in topology.links}
    flow_links: list[list[tuple[str, str]]] = []
    for flow in flows:
        keys = []
        for a, b in zip(flow.path, flow.path[1:]):
            key = tuple(sorted((a, b), key=natural_key))
            if key not in capacity:
                raise SimulationError(f"flow {flow.src}->{flow.dst}: no link {key[0]}-{key[1]}")
            keys.append(key)
        flow_links.append(keys)

    caps = np.array([window_rate_cap_mbps(rtt_window_bytes, f.rtt_ms) for f in flows])
    link_order = sorted({key for keys in flow_links for key in keys})
    members = {key: [i for i in range(n) if key in flow_links[i]] for key in link_order}

    rates = np.zeros(n)
    active = np.ones(n, dtype=bool)
    frozen_load = {key: 0.0 for key in link_order}

    while active.any():
        link_levels = {}
        for key in link_order:
            live = [i for i in members[key] if active[i]]
            if live:
                link_levels[key] = (capacity[key] - frozen_load[key]) / len(live)
        cap_level = float(caps[active].min())
        if not link_levels and math.isinf(cap_level):
            raise SimulationError("flow without any capacity constraint (empty path, zero rtt)")
        level = min(min(link_levels.values(), default=math.inf), cap_level)

        frozen_now = []
        for i in np.flatnonzero(active):
            if caps[i] <= level + _LEVEL_TOL:
                rates[i] = caps[i]
                frozen_now.append(int(i))
        for key in link_order:
            if key in link_levels and link_levels[key] <= level + _LEVEL_TOL:
                for i in members[key]:
                    if active[i] and i not in frozen_now:
                        rates[i] = level
                        frozen_now.append(i)
        for i in frozen_now:
            active[i] = False
            for key in flow_links[i]:
                frozen_load[key] += rates[i]

    _check_conservation(rates, flow_links, capacity)
    return rates


def _check_conservation(rates, flow_links, capacity) -> None:
    loads: dict[tuple[str, str], float] = {}
    for rate, keys in zip(rates, flow_links):
        for key in keys:
            loads[key] = loads.get(key, 0.0) + rate
    for key, load in loads.items():
        if load > capacity[key] + 1e-9:
            raise SimulationError(f"link {key[0]}-{key[1]} oversubscribed: {load} Mbps")


# -- experiments --------------------------------------------------------------


def _request_counts(scenario: Scenario) -> dict[str, int]:
    pools = scenario.pools.copy()  # the simulation never mutates caller state
    state = scenario.state
    servers = sorted(pools.all_servers(), key=natural_key)
    counts = {s: 0 for s in servers}
    if isinstance(state, SingleServerBurst):
        if state.server_id not in counts:
            raise SimulationError(f"unknown server '{state.server_id}'")
        counts[state.server_id] = state.requests
    elif isinstance(state, BigClusterRR):
        # round robin over one pool of every server, from the first
        if not servers:
            raise SimulationError("big-cluster state needs at least one server")
        base, extra = divmod(state.requests, len(servers))
        for position, server in enumerate(servers):
            counts[server] = base + (1 if position < extra else 0)
    elif isinstance(state, ClusteredRR):
        for pool in pools.pools:
            for server in dispatch_sequence(
                pools, state.requests_per_cluster, SingleCluster(pool.cluster_index)
            ):
                counts[server] += 1
    else:
        raise SimulationError(f"unknown state {state!r}")
    return counts


def build_flows(topology: Topology, counts: dict[str, int], paths: PathMatrix) -> list[Flow]:
    """One concurrent flow per request, user host to server host, in natural
    server order."""
    user = topology.user_host_id
    user_switch = topology.user_switch
    flows = []
    for server in sorted(counts, key=natural_key):
        if counts[server] == 0:
            continue
        switch = topology.attached_switch(server)
        path = paths.path(user_switch, switch)
        rtt = 2.0 * paths.delay_between(user_switch, switch)
        flows.extend(Flow(src=user, dst=server, path=path, rtt_ms=rtt) for _ in range(counts[server]))
    return flows


def run_experiment(scenario: Scenario) -> ExperimentReport:
    """Dispatch the scenario's requests, solve fair-share rates, and report
    per-server requests, transferred megabytes, and bandwidth."""
    topology = scenario.topology
    counts = _request_counts(scenario)
    flows = build_flows(topology, counts, topology.paths)
    rates = max_min_fair_rates(flows, topology, scenario.rtt_window_bytes)
    flows = [replace(f, rate_mbps=float(r)) for f, r in zip(flows, rates)]

    servers = sorted(counts, key=natural_key)
    bandwidth = {s: 0.0 for s in servers}
    for flow in flows:
        bandwidth[flow.dst] += flow.rate_mbps
    bytes_mb = {s: bandwidth[s] * scenario.duration_s / 8.0 for s in servers}

    server_cluster = {
        s: pool.cluster_index for pool in scenario.pools.pools for s in pool.members
    }
    return ExperimentReport(
        label=scenario.state.label,
        topology_id=topology.fingerprint(),
        duration_s=scenario.duration_s,
        per_server_requests=counts,
        per_server_bytes=bytes_mb,
        per_server_bandwidth_mbps=bandwidth,
        user_total_bytes=float(sum(bytes_mb.values())),
        user_bandwidth_mbps=float(sum(bandwidth.values())),
        server_cluster=server_cluster,
    )


def report_csv(report: ExperimentReport, user_entity: str = "user") -> str:
    """Fixed-format report: one row per server plus a user row."""
    lines = ["entity,kind,requests,bytes_mb,bandwidth_mbps,cluster"]
    for server in sorted(report.per_server_requests, key=natural_key):
        lines.append(
            f"{server},server,{report.per_server_requests[server]},"
            f"{report.per_server_bytes[server]:.4f},"
            f"{report.per_server_bandwidth_mbps[server]:.4f},"
            f"{report.server_cluster.get(server, '')}"
        )
    total_requests = sum(report.per_server_requests.values())
    lines.append(
        f"{user_entity},user,{total_requests},"
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
    first = reports[0]
    for report in reports[1:]:
        if report.topology_id != first.topology_id:
            raise SimulationError("reports come from different topologies")

    baseline = _cluster_aggregate(first)
    rows = []
    for report in reports:
        aggregate = _cluster_aggregate(report)
        for cluster in sorted(aggregate):
            requests, bytes_mb, bw = aggregate[cluster]
            _, base_bytes, base_bw = baseline.get(cluster, (0, 0.0, 0.0))
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
