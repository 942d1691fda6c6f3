"""Northbound-style REST service over the clustering pipeline.

Staged in-memory state: a topology must be uploaded before clusters can be
computed, and pools exist only once a plan does. One current plan is kept: a
GET /clusters repeating its parameters returns its body unchanged, and other
parameters replace it and rebuild the pools. The plan's GET /clusters and
GET /pools bodies carry their own JSON bytes, encoded on their first reply, so
a repeated request is sent those bytes. A method a path does not serve gets
405 with an Allow header. One lock guards the state; an upload is validated
before it is taken.

Connections are persistent (HTTP/1.1), each served by its own thread, up to
MAX_CONNECTIONS at once. Every reply, status line, headers and body, goes to
the unbuffered socket in one write, so ``Expect: 100-continue`` is answered
at once. A reply that leaves declared body bytes unread, every error the
stdlib itself answers, and the refusal of a request whose Content-Length
values differ or are not digits (400) or that has a Transfer-Encoding (411),
closes its connection with ``Connection: close``.

Endpoints:
    PUT  /topology                      upload a topology document
    GET  /clusters?k=&method=&seed=     compute or fetch the cluster model
    GET  /pools                         pool export (controller LB shape)
    POST /requests                      dispatch {"target": "auto"|index, "count": N}
    GET  /stats                         per-server counters + load summary
    GET  /healthz                       {"status": "ok"} while the server answers
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from functools import cached_property
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import allocator
from .allocator import AllocationError, EqualPerCluster, SingleCluster, build_plan, dispatch_sequence
from .clustering import METHODS, ClusteringError
from .topology import TopologyError, load_topology

MAX_BODY_BYTES = 8 * 2**20  # a scale-L topology document is about 0.4 MiB
MAX_COUNT = 100_000  # requests per POST /requests; each is listed in the reply
MAX_CONNECTIONS = 64  # connections served at once, one thread each; one more is answered 503 busy


class ServiceError(Exception):
    def __init__(self, status: int, error: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail

    def body(self) -> dict:
        return {"error": self.error, "detail": self.detail}


class _Stored(dict):
    """A reply body kept across requests: its JSON bytes are encoded once."""

    @cached_property
    def payload(self) -> bytes:
        return json.dumps(self).encode()


class LoadBalancerService:
    """In-memory pipeline state plus the handlers behind each endpoint."""

    def __init__(self):
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.topology = None
        self.plan = None
        self.pools = None  # the current plan's pools, with their cursors
        self.counters: dict[str, int] = {}
        self._clusters = None  # the current plan's GET /clusters body
        self._pools = None  # its GET /pools body, once asked for

    # -- endpoint handlers -------------------------------------------------

    def put_topology(self, document: dict) -> dict:
        try:
            topology = load_topology(document)
        except TopologyError as exc:
            raise ServiceError(422, "invalid topology", str(exc)) from exc
        with self._lock:
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
            if self.plan is None or self.plan.key != (k, method, seed):
                try:
                    plan = build_plan(self.topology, k, method, seed)
                except (TopologyError, ClusteringError) as exc:
                    raise ServiceError(422, "clustering failed", str(exc)) from exc
                self.plan, self.pools = plan, plan.pools()
                self._clusters = _Stored({"requested_k": k, **plan.document})
                self._pools = None
            return self._clusters

    def get_pools(self) -> dict:
        with self._lock:
            if self.plan is None:
                raise ServiceError(409, "no pools", "compute clusters with GET /clusters first")
            if self._pools is None:
                self._pools = _Stored(self.plan.export)
            return self._pools

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
                split = SingleCluster(target)
            else:
                raise ServiceError(400, "invalid target", f"target must be 'auto' or a cluster index, got {target!r}")
            try:
                assignments = dispatch_sequence(self.pools, count, split)
            except AllocationError as exc:  # a cluster index with no pool; no cursor has moved
                raise ServiceError(400, "unknown cluster", str(exc)) from exc
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
                    name: float(value) if isinstance(value, Fraction) else value
                    for name, value in asdict(summary).items()
                }
            else:
                body["per_cluster_requests"] = None
                body["load_summary"] = None
            return body


# -- HTTP wiring -------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    server_version = "sdnlb/0.1"
    # persistent connections; with Nagle's algorithm on, a reply could wait
    # about 40 ms for the client's delayed ACK of the one before
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # a request line without a version, or one refused before its version is
    # read, is treated as HTTP/1.0: its reply has a status line and closes
    default_request_version = "HTTP/1.0"
    # seconds a socket read or write may stall, and a connection may sit idle
    # between requests: a client cannot hold a connection slot for longer
    timeout = 30.0

    @property
    def service(self) -> LoadBalancerService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test output quiet

    def _send(self, status: int, body: dict, allow: str | None = None, close: bool = False) -> None:
        # a stored body carries its bytes; any other is encoded here
        payload = body.payload if isinstance(body, _Stored) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if allow is not None:
            self.send_header("Allow", allow)
        if close or self.request_version < "HTTP/1.1" or self._body_unread():
            self.send_header("Connection", "close")  # the stdlib then closes after this reply
        # end_headers, with the body joined to the headers the stdlib buffered
        self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(payload)
        self.flush_headers()

    def _body_unread(self) -> bool:
        """Whether the request declared body bytes that were not read: on a
        persistent connection they would be parsed as the next request."""
        return not self._body_read and self._length != 0

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own replies (bad request line, no do_ method) as JSON;
        like the stdlib's, they close the connection."""
        short, long = self.responses.get(code, ("error", ""))
        self._send(code, {"error": short.lower(), "detail": message or explain or long}, close=True)

    def _declared_length(self) -> int:
        """The one body length the request declares, or a ServiceError for
        framing a front proxy could read otherwise (RFC 9112 section 6.3):
        Content-Length values that differ or are not ASCII digits, or any
        Transfer-Encoding, whose body is not decoded here."""
        values = list(dict.fromkeys(v.strip(" \t") for v in self.headers.get_all("Content-Length", ())))
        if len(values) > 1:
            raise ServiceError(400, "invalid content-length", f"Content-Length values differ: {', '.join(values)}")
        value = values[0] if values else "0"
        if not (value.isascii() and value.isdigit()):
            raise ServiceError(
                400, "invalid content-length", f"Content-Length must be a non-negative integer, got {value!r}"
            )
        if "Transfer-Encoding" in self.headers:
            raise ServiceError(411, "length required", "a Transfer-Encoding body is not read; send a Content-Length")
        return int(value)

    def _read_json(self) -> dict:
        length = self._length
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "body too large", f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            raise ServiceError(408, "request timeout", f"the body did not arrive within {self.timeout:g} s") from None
        self._body_read = len(raw) == length
        try:
            return json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:  # undecodable bytes, bad syntax, or nested too deeply
            raise ServiceError(422, "invalid json", str(exc)) from exc

    def _dispatch(self, fn) -> None:
        try:
            self._send(200, fn())
        except ServiceError as exc:
            self._send(exc.status, exc.body())
        except Exception as exc:  # never leak a traceback through the socket
            self._send(500, {"error": "internal error", "detail": str(exc)})

    def _get_clusters(self, query: str) -> dict:
        query = parse_qs(query)
        try:
            k = int(query.get("k", ["3"])[0])
            seed = int(query.get("seed", ["0"])[0])
        except ValueError as exc:
            raise ServiceError(400, "invalid parameter", str(exc)) from exc
        method = query.get("method", ["kmeans"])[0]
        return self.service.get_clusters(k=k, method=method, seed=seed)

    def _post_requests(self, query: str) -> dict:
        body = self._read_json()
        if not isinstance(body, dict) or {"target", "count"} - body.keys():
            raise ServiceError(400, "invalid body", "body must carry 'target' and 'count'")
        return self.service.post_requests(body["target"], body["count"])

    # path -> method -> handler of (self, query string); service methods are
    # looked up per call, so wrappers apply
    ROUTES = {
        "/topology": {"PUT": lambda self, query: self.service.put_topology(self._read_json())},
        "/clusters": {"GET": _get_clusters},
        "/pools": {"GET": lambda self, query: self.service.get_pools()},
        "/requests": {"POST": _post_requests},
        "/stats": {"GET": lambda self, query: self.service.get_stats()},
        "/healthz": {"GET": lambda self, query: {"status": "ok"}},
    }

    def _route(self) -> None:
        self._body_read = False
        try:
            self._length = self._declared_length()
        except ServiceError as exc:  # one reply, then close: no byte after it is read as a request
            self._send(exc.status, exc.body(), close=True)
            return
        target = urlparse(self.path)
        path = target.path
        methods = self.ROUTES.get(path)
        if methods is None:
            self._send(404, {"error": "not found", "detail": self.path})
        elif self.command not in methods:
            body = {"error": "method not allowed", "detail": f"{self.command} {path}"}
            self._send(405, body, allow=", ".join(methods))
        else:
            self._dispatch(lambda: methods[self.command](self, target.query))

    do_GET = do_PUT = do_POST = do_DELETE = do_PATCH = do_HEAD = do_OPTIONS = _route


_BUSY_BODY = json.dumps({"error": "busy", "detail": "too many open connections"}).encode()
_BUSY_REPLY = (
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(_BUSY_BODY), _BUSY_BODY)
)


class _Server(ThreadingHTTPServer):
    """One daemon thread per connection, at most MAX_CONNECTIONS at once; a
    connection past that is answered 503 busy and closed. Daemon threads let
    the process exit while a client holds an idle connection."""

    # the kernel's accept backlog; at the stdlib's 5, a burst of connections
    # loses SYNs and each lost one waits a second to retry
    request_queue_size = MAX_CONNECTIONS

    def __init__(self, address: tuple[str, int]):
        super().__init__(address, _Handler)
        self.service = LoadBalancerService()
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            with contextlib.suppress(OSError):  # a client that has gone needs no answer
                request.sendall(_BUSY_REPLY)
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started that would give the slot back
            self._slots.release()
            raise

    def finish_request(self, request, client_address) -> None:
        # runs in the connection's thread; the slot is free again before the
        # socket closes, so a client that saw it close can connect at once
        try:
            super().finish_request(request, client_address)
        finally:
            self._slots.release()


def make_server(host: str = "127.0.0.1", port: int = 0) -> _Server:
    """Build the HTTP server; port 0 binds an ephemeral port. serve_forever
    accepts connections."""
    return _Server((host, port))


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
