"""The three workloads, driven only through the program's fixed interfaces:
the CLI (``sdnlb.cli.main``), ``run_experiment`` with ``compare_reports``,
and the REST endpoints of ``sdnlb serve``.

Each workload has the same shape:

- ``setup_sample()`` times the program's set-up once from a fresh process
  and returns the seconds it took;
- ``setup(tracer)`` makes the state the timed ops run against;
- ``prepare()`` builds one op's inputs (not timed);
- ``op(inputs)`` is the timed op and returns its outputs;
- ``check(inputs, outputs)`` compares the outputs with the oracles;
- ``reference()`` times one pass of the workload's fixed reference work,
  which takes ``NOMINAL_S`` at the reference speed;
- ``peak_rss_mb()`` and ``close()``.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import math
import os
import random
import resource
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import reference
from inputs import SHAPE_M, SHAPE_PLAN, layered
from oracles import Network, require

K = 3
WINDOW_BYTES = 65536.0
DURATION_S = 10.0
REQUESTS_PER_STATE = 1000
REQUESTS_PER_CYCLE = 300
BENCH_DIR = Path(__file__).resolve().parent


class OpFailed(RuntimeError):
    """The program returned an error for an op."""


def _probe(root: Path, *args: str) -> float:
    """Seconds of set-up measured inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(root / "src"), *args],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class InProcess:
    """A workload whose ops run in the benchmark's own process, rescaled by
    the CPU reference of ``reference.py``."""

    NOMINAL_S = reference.NOMINAL_S

    def reference(self) -> float:
        return reference.reference_seconds()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_pools(sdnlb, document: dict):
    """The simulate workload's set-up: topology, features, k-means model and
    pools, through the package's public functions."""
    topology = sdnlb.load_topology(document)
    features = sdnlb.server_features(topology, sdnlb.all_pairs_shortest_paths(topology))
    model = sdnlb.kmeans_cluster(features, sdnlb.ClusteringConfig(k=K))
    return topology, features, model, sdnlb.build_pools(model, features)


class Plan(InProcess):
    """Each op clusters a fresh document twice through the CLI: k-means,
    then spectral, both with k = 3."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.rng = random.Random(f"plan:{seed}")
        self.doc_path = work / f"plan-{os.getpid()}.json"
        self.tracer = None

    def setup_sample(self) -> float:
        return _probe(self.root, "plan")

    def setup(self, tracer=None) -> None:
        import sdnlb.cli

        if tracer is not None:
            tracer.install()
        self.cli = sdnlb.cli
        self.tracer = tracer

    def prepare(self):
        document = layered(*SHAPE_PLAN, self.rng)
        self.doc_path.write_text(json.dumps(document))
        return document

    def _cluster(self, method: str) -> str:
        argv = ["cluster", "--topology", str(self.doc_path), "--k", str(K), "--method", method]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.cli.main(argv)
        if status != 0:
            raise OpFailed(f"sdnlb {' '.join(argv)} exited {status}")
        text = buf.getvalue()
        if self.tracer is not None:
            self.tracer.mark("cli.output", len(text.encode()))
        return text

    def op(self, document):
        return self._cluster("kmeans"), self._cluster("spectral")

    def check(self, document, outputs) -> None:
        net = Network(document)
        kmeans, spectral = (json.loads(text) for text in outputs)
        require(kmeans["method"] == "kmeans" and spectral["method"] == "spectral", "wrong method echoed")
        oracles.check_kmeans(kmeans, net, K)
        oracles.check_spectral(spectral, net, K)

    def close(self) -> None:
        self.doc_path.unlink(missing_ok=True)


class Simulate(InProcess):
    """Each op runs the three paper states on one fixed topology through
    run_experiment, then compare_reports."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.document = layered(*SHAPE_M, random.Random(f"simulate:{seed}"))
        self.net = Network(self.document)
        self.doc_path = work / f"simulate-{os.getpid()}.json"
        self.doc_path.write_text(json.dumps(self.document))

    def setup_sample(self) -> float:
        return _probe(self.root, "simulate", str(self.doc_path))

    def setup(self, tracer=None) -> None:
        import sdnlb

        if tracer is not None:
            tracer.install()
        self.sdnlb = sdnlb
        topology, features, model, pools = build_pools(sdnlb, self.document)
        doc = sdnlb.cluster_model_document(model, features)
        oracles.check_kmeans(doc, self.net, K)
        self.topology = topology
        self.pools = pools
        self.members = [list(p.members) for p in pools.pools]
        for cluster, members in enumerate(self.members):
            want = sorted((s["server_id"] for s in doc["servers"] if s["cluster"] == cluster), key=oracles.natural_key)
            require(members == want, f"pool {cluster} does not hold cluster {cluster}'s servers")
        target = self.members[0][0]
        self.states = [
            sdnlb.SingleServerBurst(target, REQUESTS_PER_STATE),
            sdnlb.BigClusterRR(REQUESTS_PER_STATE),
            sdnlb.ClusteredRR(REQUESTS_PER_STATE // K),
        ]
        self.expected_counts = [
            {s: REQUESTS_PER_STATE if s == target else 0 for s in self.net.servers},
            oracles.round_robin(self.net.servers, REQUESTS_PER_STATE),
            {s: c for members in self.members for s, c in oracles.round_robin(members, REQUESTS_PER_STATE // K).items()},
        ]

    def prepare(self):
        return None

    def op(self, _):
        sdnlb = self.sdnlb
        reports = [
            sdnlb.simulator.run_experiment(
                sdnlb.Scenario(self.topology, self.pools, state, duration_s=DURATION_S, rtt_window_bytes=WINDOW_BYTES)
            )
            for state in self.states
        ]
        return reports, sdnlb.simulator.compare_reports(reports)

    def check(self, _, outputs) -> None:
        reports, comparison = outputs
        for report, counts in zip(reports, self.expected_counts):
            oracles.check_report(report, self.net, counts, WINDOW_BYTES, DURATION_S)
        oracles.check_comparison(comparison, reports)

    def close(self) -> None:
        self.doc_path.unlink(missing_ok=True)


class Server:
    """One ``sdnlb serve`` process on a loopback port, and a client for it.

    The listening line is read from an unbuffered interpreter (``-u``): the
    service prints it without flushing, so behind a pipe it would not show.
    """

    def __init__(self, root: Path, argv: list[str], timeout: float = 60.0):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *argv, "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on http://" not in line:
                raise OpFailed(f"server did not report its address (got {line!r})")
            host, port = line.rsplit("//", 1)[1].strip().rsplit(":", 1)
            self.conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
        except BaseException:
            self.stop()
            raise

    def call(self, method: str, path: str, body=None) -> bytes:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise OpFailed(f"{method} {path} returned {response.status}: {data[:200]!r}")
        return data

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise OpFailed("server peak RSS not readable")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Service:
    """One closed-loop client plays a controller against ``sdnlb serve``.
    Each op is one cycle of GET /clusters (a cache hit), GET /pools,
    POST /requests and GET /stats.

    Its reference is four round trips to ``echo_server.py``, the same
    stdlib HTTP stack without the program: the host's swings hit process
    wake-ups and loopback round trips harder than they hit computation."""

    CLUSTERS = f"/clusters?k={K}&method=kmeans&seed=0"
    NOMINAL_S = 0.010

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.work = work
        self.document = layered(*SHAPE_M, random.Random(f"service:{seed}"))
        self.net = Network(self.document)
        self.server = None
        self.echo = None
        self.tracer = None

    def reference(self) -> float:
        if self.echo is None:
            self.echo = Server(self.root, [str(BENCH_DIR / "echo_server.py")])
        start = perf_counter()
        for _ in range(4):
            self.echo.call("GET", "/")
        return perf_counter() - start

    def _start(self, argv: list[str]) -> float:
        """Stop the running server, spawn a new one, upload the topology and
        compute the clusters cold; returns the seconds the new one took."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        start = perf_counter()
        self.server = Server(self.root, argv)
        self.server.call("PUT", "/topology", self.document)
        clusters = self.server.call("GET", self.CLUSTERS)
        elapsed = perf_counter() - start
        self._expect(clusters)
        return elapsed

    def _expect(self, clusters_body: bytes) -> None:
        document = json.loads(clusters_body)
        oracles.check_kmeans(document, self.net, K)
        self.clusters_body = clusters_body
        self.members = [
            sorted((s["server_id"] for s in document["servers"] if s["cluster"] == c), key=oracles.natural_key)
            for c in range(K)
        ]
        self.cursors = [0] * K
        self.counters = {s: 0 for s in self.net.servers}

    def setup_sample(self) -> float:
        return self._start(["-m", "sdnlb"])

    def setup(self, tracer=None) -> None:
        self.tracer = tracer
        if tracer is not None:
            self.trace_path = self.work / f"server-trace-{os.getpid()}.json"
            self._start([str(BENCH_DIR / "serve_traced.py"), str(self.trace_path)])
        elif self.server is None:
            self._start(["-m", "sdnlb"])

    def prepare(self):
        return None

    def _call(self, endpoint: str, method: str, path: str, body=None) -> bytes:
        if self.tracer is None:
            return self.server.call(method, path, body)
        data = self.tracer.call(f"service.{endpoint}_rtt", self.server.call, (method, path, body))
        self.tracer.mark("service.response", len(data))
        return data

    def op(self, _):
        return (
            self._call("clusters", "GET", self.CLUSTERS),
            self._call("pools", "GET", "/pools"),
            self._call("requests", "POST", "/requests", {"target": "auto", "count": REQUESTS_PER_CYCLE}),
            self._call("stats", "GET", "/stats"),
        )

    def check(self, _, outputs) -> None:
        clusters, pools, requests, stats = outputs
        require(clusters == self.clusters_body, "GET /clusters differs from the model computed in set-up")

        exported = json.loads(pools)["pools"]
        require(
            [[m["server_id"] for m in p["members"]] for p in exported] == self.members,
            "GET /pools membership does not match the cluster document",
        )

        dispatched = json.loads(requests)
        want = oracles.equal_per_cluster(self.members, self.cursors, REQUESTS_PER_CYCLE)
        require(dispatched["assignments"] == want, "POST /requests does not follow the EqualPerCluster split")
        counts: dict[str, int] = {}
        for server in want:
            counts[server] = counts.get(server, 0) + 1
            self.counters[server] += 1
        require(dispatched["counts"] == counts and dispatched["total"] == len(want), "POST /requests counts are wrong")

        body = json.loads(stats)
        total = sum(self.counters.values())
        require(body["counters"] == self.counters, "GET /stats counters are not the running sum dispatched")
        require(body["total_requests"] == total, "GET /stats total_requests is wrong")
        require(
            body["per_cluster_requests"] == {str(c): sum(self.counters[s] for s in m) for c, m in enumerate(self.members)},
            "GET /stats per-cluster requests are wrong",
        )
        n = len(self.counters)
        require(
            math.isclose(body["load_summary"]["avg_load_largest_cluster"], total / (K * (n - K + 1)), rel_tol=1e-12)
            and body["load_summary"]["requests"] == total,
            "GET /stats load summary is wrong",
        )

    def server_records(self) -> list[dict]:
        """Stop the traced server and read the spans it wrote."""
        self.server.stop()
        self.server = None
        data = json.loads(self.trace_path.read_text())
        self.trace_path.unlink()
        return data["spans"], data["absent"]

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        for server in (self.server, self.echo):
            if server is not None:
                server.stop()
        self.server = self.echo = None


WORKLOADS = {"plan": Plan, "simulate": Simulate, "service": Service}
