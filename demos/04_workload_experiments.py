"""Run the three workload states and compare per-cluster throughput.

States: a burst of 30 requests at one server (h3), 30 requests round-robin
across one big pool of all nine servers, and 10 requests per cluster through
the priority-ordered pools. Flow rates come from max-min fair sharing with a
window/RTT per-flow cap, so nearer clusters can move more data per flow.
"""

from sdnlb import (
    BigClusterRR,
    ClusteredRR,
    Scenario,
    SingleServerBurst,
    build_paper_topology,
    build_plan,
    compare_reports,
    run_experiment,
)

topo = build_paper_topology()
pools = build_plan(topo, 3, "kmeans", 0).pools()

reports = []
for state in (SingleServerBurst("h3", 30), BigClusterRR(30), ClusteredRR(10)):
    report = run_experiment(Scenario(topo, pools, state))
    reports.append(report)
    print(f"state: {report.label}")
    print(f"  {'server':<6} {'requests':>8} {'MB/10s':>10} {'Mbps':>8}")
    for server, requests in report.per_server_requests.items():
        print(
            f"  {server:<6} {requests:>8} {report.per_server_bytes[server]:>10.2f} "
            f"{report.per_server_bandwidth_mbps[server]:>8.2f}"
        )
    print(f"  user side: {report.user_total_bytes:.2f} MB, {report.user_bandwidth_mbps:.2f} Mbps\n")

# Cross-state comparison, aggregated per cluster. The nearest cluster moves
# the most data: its flows have the smallest RTT, hence the highest per-flow
# ceiling, and its servers sit behind the least-shared links.
print("per-cluster comparison (deltas vs the single-server burst):")
print(compare_reports(reports).to_csv())
