"""Deterministic flow-level experiments over a topology and pool set.

Requests become concurrent flows held open for the whole window; per-flow
rates come from progressive-filling max-min fairness over the switch links,
with each flow additionally capped at window_bytes * 8 / rtt (so nearer
clusters can push more per flow). The flows sent to one server share a path
and a cap, so the filling runs over those per-server flow classes, weighted
by how many flows each holds, and its cost does not grow with the request
count. Bytes are rate * duration. This is a declared model of TCP behaviour,
not an emulation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import (
    AllocationError, EqualPerCluster, Pool, PoolSet, SingleCluster, SingleServer, distribute_requests,
)
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
    topology_id: str
    duration_s: float
    per_server_requests: dict[str, int]
    per_server_bytes: dict[str, float]
    per_server_bandwidth_mbps: dict[str, float]
    user_host_id: str
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
    max-min fair allocation is unique, so they get equal rates and the
    filling runs over classes, not flows. All unfrozen classes rise together;
    at each step either a link saturates (its level is the spare capacity
    over the multiplicity of its live classes, and those classes freeze at
    that level) or a class hits its window/RTT cap. A frozen class adds
    m * rate to the load of each of its links. Links are visited in id order,
    so ties resolve deterministically. The cost grows with the classes and
    their path lengths, not with the number of flows (Bertsekas & Gallager,
    Data Networks, section 6.5.2).
    """
    if not flows:
        return np.zeros(0)

    capacity: dict[tuple[str, str], float] = {l.key: l.capacity_mbps for l in topology.links}
    first: dict[tuple[tuple[str, ...], float], Flow] = {}
    for flow in flows:
        first.setdefault((flow.path, flow.rtt_ms), flow)
    # classes in (path, rtt) order, so the rates do not depend on the order
    # of the flows
    signatures = sorted(first)
    index = {signature: c for c, signature in enumerate(signatures)}
    flow_class = [index[flow.path, flow.rtt_ms] for flow in flows]
    class_links = [_link_keys(first[signature], capacity) for signature in signatures]
    caps = [window_rate_cap_mbps(rtt_window_bytes, rtt) for _, rtt in signatures]
    mult = np.bincount(flow_class, minlength=len(caps)).tolist()

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

    for _ in range(len(caps) + 1):  # each round freezes at least one class
        if not any(active):
            break
        link_levels = {
            key: (capacity[key] - frozen_load[key]) / live_weight[key]
            for key in links
            if live_weight[key]
        }
        cap_level = min(cap for cap, live in zip(caps, active) if live)
        if not link_levels and math.isinf(cap_level):
            raise SimulationError("flow without any capacity constraint (empty path, zero rtt)")
        level = min(min(link_levels.values(), default=math.inf), cap_level)

        for c, cap in enumerate(caps):
            if active[c] and cap <= level + _LEVEL_TOL:
                freeze(c, cap)
        for key, link_level in link_levels.items():
            if link_level <= level + _LEVEL_TOL:
                for c in members[key]:
                    if active[c]:
                        freeze(c, level)
    else:
        raise SimulationError(f"progressive filling left classes unfrozen after {len(caps) + 1} rounds")

    _check_conservation([m * r for m, r in zip(mult, rates)], class_links, capacity)
    return np.array(rates)[flow_class]


def _link_keys(flow: Flow, capacity: dict[tuple[str, str], float]) -> list[tuple[str, str]]:
    """The link key of each hop of the flow's path, found in either
    orientation (a key holds its endpoints in natural order)."""
    keys = []
    for a, b in zip(flow.path, flow.path[1:]):
        key = (a, b) if (a, b) in capacity else (b, a)
        if key not in capacity:
            a, b = sorted((a, b), key=natural_key)
            raise SimulationError(f"flow {flow.src}->{flow.dst}: no link {a}-{b}")
        keys.append(key)
    return keys


def _check_conservation(class_loads, class_links, capacity) -> None:
    loads: dict[tuple[str, str], float] = {}
    for load, keys in zip(class_loads, class_links):
        for key in keys:
            loads[key] = loads.get(key, 0.0) + load
    for key, load in loads.items():
        if load > capacity[key] + 1e-9:
            raise SimulationError(f"link {key[0]}-{key[1]} oversubscribed: {load} Mbps")


# -- experiments --------------------------------------------------------------


def _request_counts(scenario: Scenario) -> dict[str, int]:
    """Each state is a split for the allocator: a burst at one server, round
    robin over one pool of every server, or an equal share per cluster."""
    pools = scenario.pools.copy()  # the simulation never mutates caller state
    state = scenario.state
    try:
        if isinstance(state, SingleServerBurst):
            total, split = state.requests, SingleServer(state.server_id)
        elif isinstance(state, BigClusterRR):
            # one pool of every server, in natural order, from the first
            servers = tuple(sorted(pools.all_servers(), key=natural_key))
            pools, total, split = PoolSet([Pool(0, servers, (0.0, 0.0))]), state.requests, SingleCluster(0)
        elif isinstance(state, ClusteredRR):
            total, split = state.requests_per_cluster * len(pools.pools), EqualPerCluster()
        else:
            raise SimulationError(f"unknown state {state!r}")
        return distribute_requests(pools, total, split)
    except AllocationError as exc:
        raise SimulationError(f"{state.label}: {exc}") from exc


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
        flows.extend([Flow(src=user, dst=server, path=path, rtt_ms=rtt)] * counts[server])
    return flows


def run_experiment(scenario: Scenario) -> ExperimentReport:
    """Dispatch the scenario's requests, solve fair-share rates, and report
    per-server requests, transferred megabytes, and bandwidth."""
    topology = scenario.topology
    counts = _request_counts(scenario)
    flows = build_flows(topology, counts, topology.paths)
    rates = max_min_fair_rates(flows, topology, scenario.rtt_window_bytes)

    bandwidth = dict.fromkeys(counts, 0.0)  # counts are in natural order
    for flow, rate in zip(flows, rates.tolist()):
        bandwidth[flow.dst] += rate
    bytes_mb = {s: bw * scenario.duration_s / 8.0 for s, bw in bandwidth.items()}

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
        user_host_id=topology.user_host_id,
        user_total_bytes=float(sum(bytes_mb.values())),
        user_bandwidth_mbps=float(sum(bandwidth.values())),
        server_cluster=server_cluster,
    )


def report_csv(report: ExperimentReport) -> str:
    """Fixed-format report: one row per server plus a row for the user host."""
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
        f"{report.user_host_id},user,{total_requests},"
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
    if len({report.topology_id for report in reports}) > 1:
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
