"""Northbound-style REST service over the clustering pipeline.

Staged in-memory state: a topology must be uploaded before clusters can be
computed, and pools exist only once a model does. One current cluster model
is kept: a GET /clusters repeating its parameters returns it unchanged, and
other parameters replace it and rebuild the pools. A method a path does not
serve gets 405 with an Allow header. One lock serializes all state changes.

Endpoints:
    PUT  /topology                      upload a topology document
    GET  /clusters?k=&method=&seed=     compute or fetch the cluster model
    GET  /pools                         pool export (controller LB shape)
    POST /requests                      dispatch {"target": "auto"|index, "count": N}
    GET  /stats                         per-server counters + load summary
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import allocator, clustering
from .allocator import EqualPerCluster, SingleCluster, dispatch_sequence
from .clustering import METHODS, ClusteringConfig, ClusteringError
from .topology import TopologyError, load_topology

MAX_BODY_BYTES = 8 * 2**20  # a scale-L topology document is about 0.4 MiB
MAX_COUNT = 100_000  # requests per POST /requests; each is listed in the reply


class ServiceError(Exception):
    def __init__(self, status: int, error: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail

    def body(self) -> dict:
        return {"error": self.error, "detail": self.detail}


class LoadBalancerService:
    """In-memory pipeline state plus the handlers behind each endpoint."""

    def __init__(self):
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.topology = None
        self.pools = None
        self.counters: dict[str, int] = {}
        # the current plan: its (k, method, seed) and its document
        self._model_key = None
        self._model_document = None

    # -- endpoint handlers -------------------------------------------------

    def put_topology(self, document: dict) -> dict:
        with self._lock:
            try:
                topology = load_topology(document)
            except TopologyError as exc:
                raise ServiceError(422, "invalid topology", str(exc)) from exc
            self._reset()
            self.topology = topology
            self.counters = {s: 0 for s in topology.server_ids}
            return {
                "nodes": len(topology.nodes),
                "links": len(topology.links),
                "servers": topology.n_servers,
            }

    def get_clusters(self, k: int, method: str = "kmeans", seed: int = 0) -> dict:
        with self._lock:
            if self.topology is None:
                raise ServiceError(409, "no topology", "upload a topology with PUT /topology first")
            if k < 1:
                raise ServiceError(400, "invalid k", f"k must be >= 1, got {k}")
            if method not in METHODS:
                raise ServiceError(400, "invalid method", f"method must be one of {METHODS}")
            key = (k, method, seed)
            if key == self._model_key:
                return self._model_document

            try:
                features = self.topology.features  # none without a server host
                model = clustering.cluster(self.topology, ClusteringConfig(k=k, rng_seed=seed), method)
            except (TopologyError, ClusteringError) as exc:
                raise ServiceError(422, "clustering failed", str(exc)) from exc
            document = clustering.cluster_model_document(model, features)
            self.pools = allocator.build_pools(model, features)
            self._model_key = key
            self._model_document = {"requested_k": k, "method": method, "seed": seed, **document}
            return self._model_document

    def get_pools(self) -> dict:
        with self._lock:
            if self.pools is None:
                raise ServiceError(409, "no pools", "compute clusters with GET /clusters first")
            labels = {
                n.id: n.display for n in self.topology.nodes
            }
            return allocator.pool_export(self.pools, labels)

    def post_requests(self, target, count) -> dict:
        with self._lock:
            if self.pools is None:
                raise ServiceError(409, "no pools", "compute clusters with GET /clusters first")
            if not isinstance(count, int) or isinstance(count, bool) or not 0 <= count <= MAX_COUNT:
                raise ServiceError(
                    400, "invalid count", f"count must be an integer in [0, {MAX_COUNT}], got {count!r}"
                )
            if target == "auto":
                split = EqualPerCluster()
            elif isinstance(target, int) and not isinstance(target, bool):
                if not any(p.cluster_index == target for p in self.pools.pools):
                    raise ServiceError(400, "unknown cluster", f"no pool for cluster index {target}")
                split = SingleCluster(target)
            else:
                raise ServiceError(400, "invalid target", f"target must be 'auto' or a cluster index, got {target!r}")
            assignments = dispatch_sequence(self.pools, count, split)
            counts = Counter(assignments)
            for server, n in counts.items():
                self.counters[server] += n
            return {"assignments": assignments, "counts": dict(counts), "total": len(assignments)}

    def get_stats(self) -> dict:
        with self._lock:
            if self.topology is None:
                raise ServiceError(409, "no topology", "upload a topology with PUT /topology first")
            counters = dict(self.counters)  # in natural order, as PUT /topology built it
            total = sum(counters.values())
            body: dict = {"counters": counters, "total_requests": total}
            if self.pools is not None:
                per_cluster = {}
                for pool in self.pools.pools:
                    per_cluster[str(pool.cluster_index)] = sum(counters[s] for s in pool.members)
                summary = allocator.table1(len(counters), total, [len(self.pools.pools)])[0]
                body["per_cluster_requests"] = per_cluster
                body["load_summary"] = {
                    "n_servers": summary.n_servers,
                    "k": summary.k,
                    "requests": summary.requests,
                    "avg_servers_per_cluster": float(summary.avg_servers_per_cluster),
                    "capacity_multiplier_pct": summary.capacity_multiplier_pct,
                    "avg_load_largest_cluster": float(summary.avg_load_largest_cluster),
                }
            else:
                body["per_cluster_requests"] = None
                body["load_summary"] = None
            return body


# -- HTTP wiring -------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    server_version = "sdnlb/0.1"
    # a request line without a version, or one refused before its version is
    # read, is answered as HTTP/1.0, so every reply has a status line
    default_request_version = "HTTP/1.0"

    @property
    def service(self) -> LoadBalancerService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test output quiet

    def _send(self, status: int, body: dict, allow: str | None = None) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if allow is not None:
            self.send_header("Allow", allow)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own replies (bad request line, no do_ method) as JSON."""
        short, long = self.responses.get(code, ("error", ""))
        self._send(code, {"error": short.lower(), "detail": message or explain or long})

    def _read_json(self) -> dict:
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise ServiceError(
                400, "invalid content-length", f"Content-Length must be a non-negative integer, got {header!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "body too large", f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(422, "invalid json", str(exc)) from exc

    def _dispatch(self, fn) -> None:
        try:
            self._send(200, fn())
        except ServiceError as exc:
            self._send(exc.status, exc.body())
        except Exception as exc:  # never leak a traceback through the socket
            self._send(500, {"error": "internal error", "detail": str(exc)})

    def _get_clusters(self) -> dict:
        query = parse_qs(urlparse(self.path).query)
        try:
            k = int(query.get("k", ["3"])[0])
            seed = int(query.get("seed", ["0"])[0])
        except ValueError as exc:
            raise ServiceError(400, "invalid parameter", str(exc)) from exc
        method = query.get("method", ["kmeans"])[0]
        return self.service.get_clusters(k=k, method=method, seed=seed)

    def _post_requests(self) -> dict:
        body = self._read_json()
        if not isinstance(body, dict) or {"target", "count"} - body.keys():
            raise ServiceError(400, "invalid body", "body must carry 'target' and 'count'")
        return self.service.post_requests(body["target"], body["count"])

    # path -> method -> handler; service methods are looked up per call, so wrappers apply
    ROUTES = {
        "/topology": {"PUT": lambda self: self.service.put_topology(self._read_json())},
        "/clusters": {"GET": _get_clusters},
        "/pools": {"GET": lambda self: self.service.get_pools()},
        "/requests": {"POST": _post_requests},
        "/stats": {"GET": lambda self: self.service.get_stats()},
    }

    def _route(self) -> None:
        path = urlparse(self.path).path
        methods = self.ROUTES.get(path)
        if methods is None:
            self._send(404, {"error": "not found", "detail": self.path})
        elif self.command not in methods:
            body = {"error": "method not allowed", "detail": f"{self.command} {path}"}
            self._send(405, body, allow=", ".join(methods))
        else:
            self._dispatch(lambda: methods[self.command](self))

    do_GET = do_PUT = do_POST = do_DELETE = do_PATCH = _route


def make_server(host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; port 0 binds an ephemeral port."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = LoadBalancerService()  # type: ignore[attr-defined]
    return server


def serve(host: str, port: int) -> None:
    server = make_server(host, port)
    address = server.server_address
    print(f"sdnlb service listening on http://{address[0]}:{address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
