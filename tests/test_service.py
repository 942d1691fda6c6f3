import contextlib
import hashlib
import http.client
import io
import json
import os
import random
import select
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import sdnlb
from sdnlb.cli import main as cli_main
from sdnlb.clustering import METHODS
from sdnlb.service import LoadBalancerService, ServiceError, _Handler, make_server
from sdnlb.topology import build_paper_topology

import golden
from helpers import (
    BAD_TOPOLOGY_DOCUMENTS,
    CHAIN_BOUND_S,
    NON_DECIMAL_DIGIT_IDS,
    chain_document,
    count_calls,
    in_process_reply,
    layered_topology,
    paper_document_renamed,
    plan_calls,
    replay,
    star_document,
)

TOPOLOGY_DOC = build_paper_topology().document()
# documents whose GET /clusters and GET /pools bodies exceed io.DEFAULT_BUFFER_SIZE (8 KiB)
STAR_DOC = star_document(250)
LAYERED_DOC = layered_topology(4, 6, 14).document()


@pytest.fixture()
def service():
    return LoadBalancerService()


@pytest.fixture(scope="module")
def live_server():
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}", server.service
    server.shutdown()
    server.server_close()


class TestPutTopology:
    def test_valid_paper_document(self, service):
        out = service.put_topology(TOPOLOGY_DOC)
        assert out == {"nodes": 17, "links": 20, "servers": 9}

    def test_malformed_document_leaves_state_unchanged(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        with pytest.raises(ServiceError) as err:
            service.put_topology({"nodes": [], "links": []})
        assert err.value.status == 422
        assert service.topology is not None
        assert service.pools is not None

    def test_reupload_is_idempotent_and_resets(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        service.post_requests("auto", 9)
        out = service.put_topology(TOPOLOGY_DOC)
        assert out["servers"] == 9
        assert service.pools is None
        assert sum(service.counters.values()) == 0


class TestGetClusters:
    def test_k3_centroid_hops(self, service):
        service.put_topology(TOPOLOGY_DOC)
        doc = service.get_clusters(k=3)
        hops = sorted(c["mean_hops"] for c in doc["centroids"])
        assert hops == [1.0, 2.0, 3.0]

    def test_effective_k_reported(self, service):
        service.put_topology(TOPOLOGY_DOC)
        doc = service.get_clusters(k=50)
        assert doc["requested_k"] == 50
        assert doc["k"] == 9

    def test_no_topology_is_409(self, service):
        with pytest.raises(ServiceError) as err:
            service.get_clusters(k=3)
        assert err.value.status == 409

    def test_bad_k_is_400(self, service):
        service.put_topology(TOPOLOGY_DOC)
        with pytest.raises(ServiceError) as err:
            service.get_clusters(k=0)
        assert err.value.status == 400

    def test_spectral_isolated_switch_names_switch(self, service):
        doc = {
            "nodes": [
                {"id": "s1", "kind": "switch"},
                {"id": "u1", "kind": "user_host"},
                {"id": "v1", "kind": "server_host"},
            ],
            "links": [
                {"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
                {"a": "v1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0},
            ],
            "user_switch": "s1",
        }
        service.put_topology(doc)
        with pytest.raises(ServiceError) as err:
            service.get_clusters(k=1, method="spectral")
        assert err.value.status == 422
        assert "s1" in err.value.detail

    def test_identical_get_does_not_reset_cursors(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        first = service.post_requests(0, 2)["assignments"]
        service.get_clusters(k=3)  # cache hit; cursor must survive
        second = service.post_requests(0, 2)["assignments"]
        assert first + second == ["h2", "h3", "h4", "h2"]

    def test_one_current_plan(self, service, monkeypatch):
        import sdnlb.clustering

        service.put_topology(TOPOLOGY_DOC)
        runs = count_calls(monkeypatch, sdnlb.clustering, "cluster")
        a = service.get_clusters(k=3, seed=0)
        assert len(runs) == 1
        assert service.get_clusters(k=3, seed=0) is a  # current parameters: no clustering
        assert len(runs) == 1
        b = service.get_clusters(k=2, method="spectral", seed=4)
        assert len(runs) == 2
        assert service.get_clusters(k=2, method="spectral", seed=4) is b
        again = service.get_clusters(k=3, seed=0)  # a switch back clusters once more
        assert len(runs) == 3
        assert json.dumps(again) == json.dumps(a)
        service.put_topology(TOPOLOGY_DOC)  # a new topology clears the plan
        service.get_clusters(k=3, seed=0)
        assert len(runs) == 4

    def test_repeat_pools_builds_no_export(self, service, monkeypatch):
        import sdnlb.allocator

        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        exports = count_calls(monkeypatch, sdnlb.allocator, "pool_export")
        first = service.get_pools()
        assert len(exports) == 1
        service.post_requests("auto", 5)  # cursors move; the export does not list them
        assert service.get_pools() is first
        assert len(exports) == 1
        service.get_clusters(k=2)  # a re-plan exports its own pools
        assert service.get_pools()["pools"] != first["pools"]
        assert len(exports) == 2

    def test_the_current_plan_bodies_carry_their_bytes_encoded_once(self, service):
        service.put_topology(TOPOLOGY_DOC)
        clusters = service.get_clusters(k=3)
        pools = service.get_pools()
        for body in (clusters, pools):
            assert body.payload is body.payload == json.dumps(body).encode()
        assert not hasattr(dict(clusters), "payload")  # an equal copy is not stored
        with pytest.raises(ServiceError):
            service.get_clusters(k=0)  # a refused re-plan keeps the current bodies
        assert service.get_clusters(k=3) is clusters
        assert service.get_pools() is pools
        replanned = service.get_clusters(k=2)  # a re-plan makes new bodies
        assert replanned is not clusters and replanned.payload == json.dumps(replanned).encode()
        assert service.get_pools() is not pools
        service.put_topology(TOPOLOGY_DOC)  # so does a new upload
        assert service.get_clusters(k=2) is not replanned

    def test_changed_params_rebuild_pools(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        assert len(service.pools.pools) == 3
        service.get_clusters(k=1)
        assert len(service.pools.pools) == 1


class TestPostRequests:
    def test_cluster_pool_rotation(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        out = service.post_requests(0, 3)
        assert out["assignments"] == ["h2", "h3", "h4"]

    def test_auto_splits_equally(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        out = service.post_requests("auto", 30)
        assert out["total"] == 30
        per_cluster = {}
        doc = service.get_clusters(k=3)
        cluster_of = {s["server_id"]: s["cluster"] for s in doc["servers"]}
        for server, count in out["counts"].items():
            per_cluster[cluster_of[server]] = per_cluster.get(cluster_of[server], 0) + count
        assert set(per_cluster.values()) == {10}

    def test_no_pools_is_409(self, service):
        service.put_topology(TOPOLOGY_DOC)
        with pytest.raises(ServiceError) as err:
            service.post_requests("auto", 1)
        assert err.value.status == 409

    def test_unknown_cluster_is_400(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        service.post_requests(1, 2)  # one cursor off zero
        cursors = [p.cursor for p in service.pools.pools]
        counters = dict(service.counters)
        for target in (9, 3, -1):
            with pytest.raises(ServiceError) as err:
                service.post_requests(target, 1)
            assert err.value.status == 400
            assert err.value.body() == {"error": "unknown cluster", "detail": f"no pool for cluster index {target}"}
        assert cursors == [0, 2, 0]
        assert [p.cursor for p in service.pools.pools] == cursors
        assert service.counters == counters

    def test_bad_count_is_400(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        with pytest.raises(ServiceError) as err:
            service.post_requests("auto", -1)
        assert err.value.status == 400

    def test_count_is_capped(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        cap = sdnlb.service.MAX_COUNT
        assert service.post_requests("auto", cap)["total"] == cap
        with pytest.raises(ServiceError) as err:
            service.post_requests("auto", cap + 1)
        assert (err.value.status, err.value.error) == (400, "invalid count")
        assert sum(service.counters.values()) == cap


class TestStats:
    def test_counters_accumulate(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        service.post_requests("auto", 12)
        service.post_requests(0, 5)
        stats = service.get_stats()
        assert stats["total_requests"] == 17
        assert sum(stats["counters"].values()) == 17
        assert stats["load_summary"]["k"] == 3

    def test_counters_in_natural_order(self, service):
        service.put_topology(TOPOLOGY_DOC)
        service.get_clusters(k=3)
        service.post_requests(2, 7)  # one pool first, then all of them
        service.post_requests("auto", 5)
        ids = [n["id"] for n in TOPOLOGY_DOC["nodes"] if n["kind"] == "server_host"]
        assert list(service.get_stats()["counters"]) == ids == [f"h{i}" for i in range(2, 11)]

    def test_stats_without_model(self, service):
        service.put_topology(TOPOLOGY_DOC)
        stats = service.get_stats()
        assert stats["total_requests"] == 0
        assert stats["load_summary"] is None


# -- staged-pipeline property -------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.just(("put", None)),
        st.just(("put_bad", None)),
        st.tuples(st.just("clusters"), st.integers(0, 12)),
        st.tuples(st.just("post"), st.integers(-2, 20)),
        st.just(("stats", None)),
    ),
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(_OPS)
def test_staged_pipeline_invariant_under_interleavings(ops):
    service = LoadBalancerService()
    dispatched = 0
    for op, arg in ops:
        try:
            if op == "put":
                service.put_topology(TOPOLOGY_DOC)
                dispatched = 0
            elif op == "put_bad":
                service.put_topology({"nodes": "nope"})
            elif op == "clusters":
                service.get_clusters(k=arg)
            elif op == "post":
                out = service.post_requests("auto", arg)
                dispatched += out["total"]
            else:
                service.get_stats()
        except ServiceError:
            pass
        # staged pipeline: pools => topology
        if service.pools is not None:
            assert service.topology is not None
        if service.topology is not None:
            assert sum(service.counters.values()) == dispatched


# -- live HTTP ---------------------------------------------------------------


class TestHttpEndpoints:
    def test_full_sequence(self, live_server):
        base, _ = live_server
        put = requests.put(f"{base}/topology", json=TOPOLOGY_DOC)
        assert put.status_code == 200
        assert put.json()["servers"] == 9

        clusters = requests.get(f"{base}/clusters", params={"k": 3, "method": "kmeans", "seed": 0})
        assert clusters.status_code == 200
        body = clusters.json()
        assert body["k"] == 3

        pools = requests.get(f"{base}/pools")
        assert pools.status_code == 200
        assert len(pools.json()["pools"]) == 3

        posted = requests.post(f"{base}/requests", json={"target": "auto", "count": 30})
        assert posted.status_code == 200
        assert posted.json()["total"] == 30

        stats = requests.get(f"{base}/stats")
        assert stats.status_code == 200
        assert stats.json()["total_requests"] == 30

    def test_no_endpoint_computes_all_pairs_paths(self, live_server, monkeypatch):
        base, _ = live_server
        paths_calls = count_calls(monkeypatch, sdnlb.topology, "all_pairs_shortest_paths")
        assert requests.put(f"{base}/topology", json=TOPOLOGY_DOC).status_code == 200
        for method in METHODS:
            assert requests.get(f"{base}/clusters", params={"method": method}).status_code == 200
            assert requests.get(f"{base}/pools").status_code == 200
            assert requests.post(f"{base}/requests", json={"target": "auto", "count": 9}).status_code == 200
        assert requests.get(f"{base}/stats").status_code == 200
        assert paths_calls == []

    def test_a_1600_switch_chain_is_clustered_in_bounded_time(self, live_server, monkeypatch):
        base, _ = live_server
        body = json.dumps(chain_document(1600))
        paths_calls = count_calls(monkeypatch, sdnlb.topology, "all_pairs_shortest_paths")
        start = time.perf_counter()
        put = requests.put(f"{base}/topology", data=body, headers={"Content-Type": "application/json"})
        clusters = requests.get(f"{base}/clusters", params={"method": "kmeans"})
        elapsed = time.perf_counter() - start
        requests.put(f"{base}/topology", json=TOPOLOGY_DOC)  # later tests expect the paper topology
        assert put.status_code == 200 and put.json()["servers"] == 1600
        assert clusters.status_code == 200 and len(clusters.json()["servers"]) == 1600
        assert elapsed < CHAIN_BOUND_S
        assert paths_calls == []

    def test_error_bodies_carry_error_and_detail(self, live_server):
        base, _ = live_server
        bad = requests.put(f"{base}/topology", json={"nodes": []})
        assert bad.status_code == 422
        assert set(bad.json()) == {"error", "detail"}

        missing = requests.get(f"{base}/nope")
        assert missing.status_code == 404

    def test_repeated_get_returns_identical_bodies(self, live_server):
        base, _ = live_server
        requests.put(f"{base}/topology", json=TOPOLOGY_DOC)
        requests.get(f"{base}/clusters", params={"k": 3})
        a = requests.get(f"{base}/clusters", params={"k": 3}).text
        b = requests.get(f"{base}/clusters", params={"k": 3}).text
        assert a == b
        a = requests.get(f"{base}/stats").text
        b = requests.get(f"{base}/stats").text
        assert a == b

    def test_bad_query_parameter_is_400(self, live_server):
        base, _ = live_server
        requests.put(f"{base}/topology", json=TOPOLOGY_DOC)
        out = requests.get(f"{base}/clusters", params={"k": "three"})
        assert out.status_code == 400

    def test_unknown_method_is_400(self, live_server):
        base, _ = live_server
        requests.put(f"{base}/topology", json=TOPOLOGY_DOC)
        out = requests.get(f"{base}/clusters", params={"method": "bogus"})
        assert out.status_code == 400
        assert out.json() == {"error": "invalid method", "detail": f"method must be one of {METHODS}"}

    def test_unknown_target_is_400(self, live_server):
        base, _ = live_server
        requests.put(f"{base}/topology", json=TOPOLOGY_DOC)
        requests.get(f"{base}/clusters", params={"k": 3})
        out = requests.post(f"{base}/requests", json={"target": "x", "count": 1})
        assert out.status_code == 400
        assert out.json()["error"] == "invalid target"
        assert requests.get(f"{base}/stats").json()["total_requests"] == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_ids_with_non_decimal_digits_are_served(self, live_server, method):
        base, _ = live_server
        put = requests.put(f"{base}/topology", json=paper_document_renamed(NON_DECIMAL_DIGIT_IDS))
        assert put.status_code == 200
        out = requests.get(f"{base}/clusters", params={"k": 3, "method": method})
        assert out.status_code == 200
        servers = [s["server_id"] for s in out.json()["servers"]]
        assert servers == ["h1²", *(f"h{i}" for i in range(2, 9)), "①"]  # h1² after h1, ① after the h ids

    @pytest.mark.parametrize("method", METHODS)
    def test_clusters_on_topology_without_servers_is_422(self, live_server, method, tmp_path, capsys):
        base, _ = live_server
        document = {
            "nodes": [{"id": "s1", "kind": "switch"}, {"id": "u1", "kind": "user_host"}],
            "links": [{"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0}],
            "user_switch": "s1",
        }
        assert requests.put(f"{base}/topology", json=document).status_code == 200
        out = requests.get(f"{base}/clusters", params={"k": 1, "method": method})
        assert out.status_code == 422
        assert out.json() == {
            "error": "clustering failed",
            "detail": "feature set must contain at least one server",
        }
        # the CLI refuses the same document with the same detail
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(document))
        assert cli_main(["cluster", "--topology", str(path), "--k", "1", "--method", method]) == 2
        assert capsys.readouterr().err == "error: feature set must contain at least one server\n"

    @pytest.mark.parametrize("path, method", [("/topology", "PUT"), ("/requests", "POST")])
    @pytest.mark.parametrize(
        "raw, detail",
        [
            (b"[" * 200_000, "maximum recursion depth exceeded"),
            (b"\x80abc", "can't decode byte 0x80"),
            (b'{"a": "\xff"}', "can't decode byte 0xff"),
        ],
        ids=["nested", "bad-start-byte", "bad-string-byte"],
    )
    def test_undecodable_body_is_422(self, live_server, path, method, raw, detail):
        base, _ = live_server
        out = requests.request(method, f"{base}{path}", data=raw, headers={"Content-Type": "application/json"})
        assert out.status_code == 422
        assert out.json()["error"] == "invalid json"
        assert detail in out.json()["detail"]

    @pytest.mark.parametrize("case", BAD_TOPOLOGY_DOCUMENTS)
    def test_bad_topology_value_is_422(self, live_server, case):
        base, _ = live_server
        document, names = BAD_TOPOLOGY_DOCUMENTS[case]
        body = json.dumps(document)  # NaN and Infinity literals, as Python's json reads them
        out = requests.put(f"{base}/topology", data=body, headers={"Content-Type": "application/json"})
        assert out.status_code == 422
        assert out.json()["error"] == "invalid topology"
        assert names in out.json()["detail"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, live_server, length):
        base, _ = live_server
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=2)
        try:
            conn.putrequest("PUT", "/topology")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert response.read() == (
                b'{"error": "invalid content-length", "detail": '
                b'"Content-Length must be a non-negative integer, got \'' + length.encode() + b'\'"}'
            )
        finally:
            conn.close()


    def test_body_over_the_cap_is_413_unread(self, live_server):
        base, _ = live_server
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=2)
        length = sdnlb.service.MAX_BODY_BYTES + 1
        try:
            conn.putrequest("PUT", "/topology")
            conn.putheader("Content-Length", str(length))
            conn.endheaders()  # no body: the server must answer from the header
            response = conn.getresponse()
            assert response.status == 413
            assert response.read() == (
                b'{"error": "body too large", "detail": "Content-Length '
                + str(length).encode() + b" exceeds " + str(length - 1).encode() + b' bytes"}'
            )
        finally:
            conn.close()

    def test_count_over_the_cap_is_400(self, live_server):
        base, _ = live_server
        requests.put(f"{base}/topology", json=TOPOLOGY_DOC)
        requests.get(f"{base}/clusters", params={"k": 3})
        cap = sdnlb.service.MAX_COUNT
        out = requests.post(f"{base}/requests", json={"target": "auto", "count": cap + 1})
        assert out.status_code == 400
        assert out.json() == {
            "error": "invalid count",
            "detail": f"count must be an integer in [0, {cap}], got {cap + 1}",
        }
        assert requests.get(f"{base}/stats").json()["total_requests"] == 0


# every path of the route table, with the method it serves
ROUTES = {
    "/topology": "PUT",
    "/clusters": "GET",
    "/pools": "GET",
    "/requests": "POST",
    "/stats": "GET",
    "/healthz": "GET",
}


@pytest.mark.parametrize("path", [*ROUTES, "/nope"])
@pytest.mark.parametrize("method", ["GET", "PUT", "POST", "DELETE", "PATCH", "OPTIONS"])
def test_every_method_on_every_path_answers_json(live_server, path, method):
    base, _ = live_server
    out = requests.request(method, f"{base}{path}?k=3", json={})
    assert out.headers["Content-Type"] == "application/json"
    body = out.json()
    if path not in ROUTES:
        assert out.status_code == 404
        assert body == {"error": "not found", "detail": f"{path}?k=3"}
    elif method != ROUTES[path]:
        assert out.status_code == 405
        assert out.headers["Allow"] == ROUTES[path]
        assert body == {"error": "method not allowed", "detail": f"{method} {path}"}
    else:  # the endpoint's own answer: a result, or its named 4xx for this empty body
        assert out.status_code not in (404, 405, 500, 501)
        assert out.status_code == 200 or set(body) == {"error", "detail"}


def raw_exchange(base: str, request: bytes) -> tuple[str, dict, bytes]:
    """Send raw request bytes; return the status line, headers and body of
    the reply, read until the server closes the connection."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(request)
        reply = b"".join(iter(lambda: conn.recv(4096), b""))
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *lines = head.decode("iso-8859-1").split("\r\n")
    return status, dict(line.split(": ", 1) for line in lines), body


@pytest.mark.parametrize(
    "request_line,status,detail",
    [
        ("TRACE /stats HTTP/1.0", "501 Not Implemented", "Unsupported method ('TRACE')"),
        ("FOO /stats HTTP/1.0", "501 Not Implemented", "Unsupported method ('FOO')"),
        ("GET /a b c HTTP/1.0", "400 Bad Request", "Bad request syntax ('GET /a b c HTTP/1.0')"),
    ],
)
def test_stdlib_error_replies_are_json(live_server, request_line, status, detail):
    base, _ = live_server
    got_status, headers, body = raw_exchange(base, request_line.encode() + b"\r\n\r\n")
    assert got_status == f"HTTP/1.1 {status}"
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(body)
    assert json.loads(body) == {"error": status.split(" ", 1)[1].lower(), "detail": detail}


@pytest.mark.parametrize(
    "request_line,status,body",
    [
        ("GET /stats HTTP/9.9", "505 HTTP Version Not Supported",
         {"error": "http version not supported", "detail": "Invalid HTTP version (9.9)"}),
        ("GET /nope", "404 Not Found", {"error": "not found", "detail": "/nope"}),
    ],
)
def test_reply_without_a_usable_version_has_a_status_line(live_server, request_line, status, body):
    base, _ = live_server
    got_status, headers, got_body = raw_exchange(base, request_line.encode() + b"\r\n\r\n")
    assert got_status == f"HTTP/1.1 {status}"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(got_body) == body


def test_head_error_reply_has_no_body(live_server):
    base, _ = live_server
    status, headers, body = raw_exchange(base, b"HEAD /stats HTTP/1.0\r\n\r\n")
    assert status == "HTTP/1.1 405 Method Not Allowed"
    assert (headers["Content-Type"], headers["Allow"]) == ("application/json", "GET")
    # Content-Length counts the JSON body that a HEAD reply leaves out
    assert int(headers["Content-Length"]) == len(b'{"error": "method not allowed", "detail": "HEAD /stats"}')
    assert body == b""


def test_head_then_get_on_one_connection_get_both_replies(live_server):
    base, _ = live_server
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        conn.connect()
        sock = conn.sock
        conn.request("HEAD", "/pools")
        head = conn.getresponse()
        assert (head.status, head.getheader("Allow"), head.read(), head.will_close) == (405, "GET", b"", False)
        conn.request("GET", "/nope")
        get = conn.getresponse()
        assert (get.status, json.loads(get.read()), get.will_close) == (
            404,
            {"error": "not found", "detail": "/nope"},
            False,
        )
        assert conn.sock is sock
    finally:
        conn.close()


@pytest.mark.parametrize(
    "request_bytes,status,body",
    [
        (b"GET /stats\r\n", "", b""),  # the headers never end: closed unanswered
        (
            b"PUT /topology HTTP/1.0\r\nContent-Length: 10\r\n\r\n{",
            "HTTP/1.1 408 Request Timeout",
            b'{"error": "request timeout", "detail": "the body did not arrive within 0.2 s"}',
        ),
        (
            b"PUT /topology HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{",
            "HTTP/1.1 408 Request Timeout",
            b'{"error": "request timeout", "detail": "the body did not arrive within 0.2 s"}',
        ),
    ],
    ids=["unended-headers", "stalled-body", "stalled-body-persistent"],
)
def test_stalled_request_is_dropped_after_the_timeout(live_server, monkeypatch, request_bytes, status, body):
    assert 0 < _Handler.timeout <= 60  # every connection has one, not only this test's
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    base, _ = live_server
    start = time.monotonic()
    got_status, _, got_body = raw_exchange(base, request_bytes)  # its own read times out after 5 s
    assert time.monotonic() - start < 3
    assert (got_status, got_body) == (status, body)


# -- persistent connections ---------------------------------------------------

# a request whose reply does not depend on the service's state
PLAIN_REQUEST = b"GET /clusters?k=x HTTP/1.1\r\nHost: x\r\n\r\n"
PLAIN_REPLY = ("HTTP/1.1 400 Bad Request", "invalid parameter")


INTEGER_REFUSALS = {
    "repeated": ("k=3&k=x", "k is given 2 times"),
    "repeated-equal": ("k=3&k=3", "k is given 2 times"),
    "repeated-seed": ("seed=0&method=kmeans&seed=1", "seed is given 2 times"),
    "blank-k": ("k=", "k must be an integer (-?[0-9]+), got ''"),
    "blank-seed": ("k=3&seed=", "seed must be an integer (-?[0-9]+), got ''"),
    "arabic-indic": ("k=%D9%A3", "k must be an integer (-?[0-9]+), got '\u0663'"),
    "fullwidth": ("seed=%EF%BC%91", "seed must be an integer (-?[0-9]+), got '\uff11'"),
    "underscore": ("k=1_0", "k must be an integer (-?[0-9]+), got '1_0'"),
    "plus-sign": ("k=%2B3", "k must be an integer (-?[0-9]+), got '+3'"),
    "plus-as-space": ("k=+3", "k must be an integer (-?[0-9]+), got ' 3'"),
    "past-digit-limit": ("k=" + "1" * 5000, f"k has 5000 digits, past int's limit of {sys.get_int_max_str_digits()}"),
}


@pytest.mark.parametrize("case", INTEGER_REFUSALS)
def test_integer_parameter_outside_the_ascii_grammar_is_400(live_server, case):
    # one query string names one plan: -?[0-9]+ in ASCII, each key once
    base, _ = live_server
    query, detail = INTEGER_REFUSALS[case]
    out = requests.get(f"{base}/clusters?{query}")
    assert out.status_code == 400
    assert out.json() == {"error": "invalid parameter", "detail": detail}


@contextlib.contextmanager
def connection(base: str):
    """A raw socket to the server and a buffered reader of its replies."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn, conn.makefile("rb") as rfile:
        yield conn, rfile


def read_reply(rfile) -> tuple[str, dict, bytes]:
    """Read one reply: the status line, the headers and the body its
    Content-Length declares, and nothing after it."""
    status = rfile.readline().decode("iso-8859-1").rstrip("\r\n")
    headers = {}
    while line := rfile.readline().decode("iso-8859-1").rstrip("\r\n"):
        name, value = line.split(": ", 1)
        headers[name] = value
    return status, headers, rfile.read(int(headers["Content-Length"]))


def closed_after(rfile) -> bool:
    """Whether the server closes the connection with nothing more sent."""
    try:
        return rfile.read() == b""
    except ConnectionResetError:  # closed with bytes of ours still unread
        return True


def plain_exchange(conn, rfile) -> dict:
    conn.sendall(PLAIN_REQUEST)
    status, headers, body = read_reply(rfile)
    assert (status, json.loads(body)["error"]) == PLAIN_REPLY
    return headers


def test_calls_on_one_connection_keep_it_and_the_golden_bodies(live_server):
    """Six calls for each plan of the golden corpus's paper case, 54 in all,
    over one connection; every body matches its pinned digest."""
    base, _ = live_server
    host, port = base.removeprefix("http://").split(":")
    pins = json.loads(golden.GOLDEN.read_text())
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    calls = 0
    try:
        conn.connect()
        sock = conn.sock
        for method in METHODS:
            for k in golden.KS:
                prefix = f"paper/{method}/k{k}"
                if prefix in golden.EXCLUDED:
                    continue
                for name, verb, path, body in [
                    ("topology", "PUT", "/topology", TOPOLOGY_DOC),
                    ("clusters", "GET", f"/clusters?k={k}&method={method}&seed=0", None),
                    ("pools", "GET", "/pools", None),
                    ("requests-auto", "POST", "/requests", {"target": "auto", "count": 10}),
                    ("requests-0", "POST", "/requests", {"target": 0, "count": 7}),
                    ("stats", "GET", "/stats", None),
                ]:
                    conn.request(verb, path, body=None if body is None else json.dumps(body))
                    response = conn.getresponse()
                    data = response.read()
                    calls += 1
                    assert (response.status, response.will_close) == (200, False)
                    if name != "topology":
                        assert hashlib.sha256(data).hexdigest() == pins[f"{prefix}/{name}"], f"{prefix}/{name}"
        assert conn.sock is sock  # http.client opens a new socket only after a close
    finally:
        conn.close()
    assert calls >= 50


@pytest.mark.parametrize("document", [STAR_DOC, LAYERED_DOC], ids=["star", "layered"])
def test_plan_replies_on_one_connection_match_the_in_process_service(live_server, document):
    """Each wire reply through a plan's life (repeats, a re-plan, a refused
    re-plan, a switch back, a second upload) equals json.dumps of the reply
    an in-process service gives to the same calls."""
    base, _ = live_server
    calls = plan_calls(document)
    service = LoadBalancerService()
    expected = [in_process_reply(service, *call) for call in calls]
    assert replay(base, calls) == expected
    statuses = {status for status, _ in expected}
    assert statuses == ({200, 409, 422} if document is STAR_DOC else {200, 409})
    assert max(len(body) for _, body in expected) > io.DEFAULT_BUFFER_SIZE


def test_plan_bodies_are_encoded_once_per_plan(live_server, monkeypatch):
    encoded = []

    def dumps(body):
        encoded.append(body)
        return json.dumps(body)

    monkeypatch.setattr(sdnlb.service, "json", SimpleNamespace(dumps=dumps, loads=json.loads))
    base, _ = live_server
    calls = plan_calls(STAR_DOC)
    counts = []
    for call in calls:
        before = len(encoded)
        replay(base, [call])
        counts.append(len(encoded) - before)
    # a plan's first GET /clusters and GET /pools encode; repeats send the
    # stored bytes; every other reply, and each body of a new plan, encodes
    assert list(zip(calls, counts)) == list(zip(calls, [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1]))


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self._lock.acquire()
        self.taken += 1

    def __exit__(self, *exc_info):
        self._lock.release()


def test_each_reply_takes_the_service_lock_at_most_once(live_server, monkeypatch):
    base, service = live_server
    lock = CountingLock()
    monkeypatch.setattr(service, "_lock", lock)
    calls = [
        ("PUT", "/topology", TOPOLOGY_DOC),
        ("GET", "/clusters?k=3", None),
        ("GET", "/clusters?k=3", None),
        ("GET", "/pools", None),
        ("POST", "/requests", {"target": "auto", "count": 10}),
        ("GET", "/stats", None),
        ("GET", "/no-such-path", None),
    ]
    taken = []
    for call in calls:
        before = lock.taken
        assert replay(base, [call])[0][0] == (404 if call[1] == "/no-such-path" else 200)
        taken.append(lock.taken - before)
    assert taken == [1, 1, 1, 1, 1, 1, 0]


def test_an_upload_is_validated_outside_the_lock(service, monkeypatch):
    """While one upload is in load_topology, another caller is answered."""
    service.put_topology(TOPOLOGY_DOC)
    entered, release = threading.Event(), threading.Event()
    load_topology = sdnlb.service.load_topology

    def slow_load_topology(document):
        entered.set()
        release.wait(10)
        return load_topology(document)

    monkeypatch.setattr(sdnlb.service, "load_topology", slow_load_topology)
    stats = []
    upload = threading.Thread(target=service.put_topology, args=(TOPOLOGY_DOC,))
    reader = threading.Thread(target=lambda: stats.append(service.get_stats()))
    upload.start()
    try:
        assert entered.wait(5)
        reader.start()
        reader.join(1.0)
        answered = not reader.is_alive()
    finally:
        release.set()
        upload.join(10)
    reader.join(10)
    assert answered and stats[0]["total_requests"] == 0


def test_concurrent_replans_answer_each_query_with_its_own_plan(live_server, monkeypatch):
    """Four connections alternate k=2 and k=3, and each GET /clusters waits
    up to 4 ms after its handler call, so the plan is often replaced before
    the reply is written; every reply is still the body its own call got."""
    base, _ = live_server
    service = LoadBalancerService()
    service.put_topology(TOPOLOGY_DOC)
    clusters, pools = {}, set()
    for k in (2, 3):
        clusters[k] = json.dumps(service.get_clusters(k=k)).encode()
        pools.add(json.dumps(service.get_pools()).encode())
    get_clusters = LoadBalancerService.get_clusters
    pause = random.Random(22)

    def slow_get_clusters(self, *args, **kwargs):
        body = get_clusters(self, *args, **kwargs)
        time.sleep(pause.random() * 0.004)
        return body

    monkeypatch.setattr(LoadBalancerService, "get_clusters", slow_get_clusters)
    assert replay(base, [("PUT", "/topology", TOPOLOGY_DOC)])[0][0] == 200
    errors = []

    def client(first_k: int) -> None:
        try:
            ks = [first_k, 5 - first_k] * 15
            calls = [call for k in ks for call in [("GET", f"/clusters?k={k}", None), ("GET", "/pools", None)]]
            replies = replay(base, calls)
            for k, (status, body), (pools_status, pools_body) in zip(ks, replies[::2], replies[1::2]):
                assert (status, json.loads(body)["requested_k"]) == (200, k)
                assert body == clusters[k]
                assert pools_status == 200 and pools_body in pools
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(2 + i % 2,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between any two steps
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_healthz_answers_ok(live_server):
    base, _ = live_server
    assert replay(base, [("GET", "/healthz", None)]) == [(200, b'{"status": "ok"}')]


def test_an_unexpected_exception_is_500_and_the_connection_stays_open(live_server, monkeypatch):
    base, service = live_server

    def broken():
        raise KeyError("counters")

    monkeypatch.setattr(service, "get_stats", broken)
    with connection(base) as (conn, rfile):
        conn.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        status, headers, body = read_reply(rfile)
        conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        healthz = read_reply(rfile)
    assert status == "HTTP/1.1 500 Internal Server Error" and "Connection" not in headers
    assert json.loads(body) == {"error": "internal error", "detail": "'counters'"}
    assert (healthz[0], healthz[2]) == ("HTTP/1.1 200 OK", b'{"status": "ok"}')


SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize(
    "request_bytes,status,error",
    [
        (b"POST /nope HTTP/1.1\r\nContent-Length: 33\r\n\r\n" + SMUGGLED, "404 Not Found", "not found"),
        (
            b"PUT /topology HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (sdnlb.service.MAX_BODY_BYTES + 1) + SMUGGLED,
            "413 Request Entity Too Large",
            "body too large",
        ),
        (b"POST /stats HTTP/1.1\r\nContent-Length: 33\r\n\r\n" + SMUGGLED, "405 Method Not Allowed", "method not allowed"),
        (b"GET /clusters?k=x HTTP/1.1\r\nContent-Length: 33\r\n\r\n" + SMUGGLED, "400 Bad Request", "invalid parameter"),
        (
            b"PUT /topology HTTP/1.1\r\nContent-Length: abc\r\n\r\n" + SMUGGLED,
            "400 Bad Request",
            "invalid content-length",
        ),
        (
            b"PUT /topology HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}" + SMUGGLED,
            "400 Bad Request",
            "invalid content-length",
        ),
        (
            b"PUT /topology HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: %d\r\n\r\n{}" % (2 + len(SMUGGLED))
            + SMUGGLED,
            "400 Bad Request",
            "invalid content-length",
        ),
        (
            b"GET /stats HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: %d\r\n\r\n" % len(SMUGGLED) + SMUGGLED,
            "400 Bad Request",
            "invalid content-length",
        ),
        (
            b"PUT /topology HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n21\r\n" + SMUGGLED + b"\r\n0\r\n\r\n",
            "411 Length Required",
            "length required",
        ),
    ],
    ids=[
        "404", "413", "405", "get-with-body", "bad-content-length", "signed-length", "two-lengths-put",
        "two-lengths-get", "chunked",
    ],
)
def test_unread_body_is_not_a_second_request(live_server, request_bytes, status, error):
    base, _ = live_server
    with connection(base) as (conn, rfile):
        conn.sendall(request_bytes)  # one write: the body is there to be misread
        got_status, headers, body = read_reply(rfile)
        assert closed_after(rfile)  # exactly one reply
    assert got_status == f"HTTP/1.1 {status}"
    assert headers["Connection"] == "close"
    assert json.loads(body)["error"] == error


@pytest.mark.parametrize(
    "request_line,status",
    [
        ("FOO /stats HTTP/1.1", "501 Not Implemented"),
        ("GET /a b c HTTP/1.1", "400 Bad Request"),
        ("GET /stats HTTP/9.9", "505 HTTP Version Not Supported"),
    ],
)
def test_stdlib_error_closes_a_persistent_connection(live_server, request_line, status):
    base, _ = live_server
    with connection(base) as (conn, rfile):
        assert "Connection" not in plain_exchange(conn, rfile)  # the connection stays open
        conn.sendall(request_line.encode() + b"\r\nHost: x\r\n\r\n")
        got_status, headers, body = read_reply(rfile)
        assert closed_after(rfile)
    assert got_status == f"HTTP/1.1 {status}"
    assert headers["Connection"] == "close"
    assert set(json.loads(body)) == {"error", "detail"}


@pytest.mark.parametrize("request_line", ["GET /clusters?k=x HTTP/1.0", "GET /clusters?k=x"])
def test_request_below_http_1_1_gets_one_reply_even_if_it_asks_to_keep_alive(live_server, request_line):
    base, _ = live_server
    with connection(base) as (conn, rfile):
        conn.sendall(request_line.encode() + b"\r\nConnection: keep-alive\r\n\r\n")
        status, headers, body = read_reply(rfile)
        assert closed_after(rfile)
    assert (status, json.loads(body)["error"]) == PLAIN_REPLY
    assert headers["Connection"] == "close"


@pytest.mark.parametrize("document, count", [(TOPOLOGY_DOC, 300), (LAYERED_DOC, 2000)], ids=["paper", "layered"])
def test_each_reply_is_one_write_on_a_nodelay_socket(live_server, monkeypatch, document, count):
    nodelay, writes = [], []
    setup = _Handler.setup

    def recording_setup(handler):
        setup(handler)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        write = handler.wfile.write  # unbuffered: each write reaches the socket
        handler.wfile.write = lambda data: writes.append(bytes(data)) or write(data)

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    base, _ = live_server
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    bodies = []
    try:
        for verb, path, body in [
            ("PUT", "/topology", document),
            ("GET", "/clusters?k=3", None),
            ("GET", "/clusters?k=3", None),
            ("GET", "/pools", None),
            ("GET", "/pools", None),
            ("POST", "/requests", {"target": "auto", "count": count}),
            ("GET", "/stats", None),
            ("GET", "/nope", None),
        ]:
            conn.request(verb, path, body=None if body is None else json.dumps(body))
            bodies.append(conn.getresponse().read())
    finally:
        conn.close()
    assert len(nodelay) == 1 and nodelay[0] != 0  # one connection, Nagle's algorithm off
    assert len(writes) == len(bodies)
    assert all(write.endswith(b"\r\n\r\n" + body) for write, body in zip(writes, bodies))
    if document is LAYERED_DOC:  # clusters, pools and requests bodies past 8 KiB
        assert sum(len(body) > io.DEFAULT_BUFFER_SIZE for body in bodies) == 5


def test_expect_100_continue_is_answered_before_the_body_is_sent(live_server):
    base, _ = live_server
    body = json.dumps(TOPOLOGY_DOC).encode()
    with connection(base) as (conn, rfile):
        conn.sendall(
            b"PUT /topology HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n" % len(body)
        )
        conn.settimeout(0.5)  # an interim reply held back until the final one times out here
        start = time.monotonic()
        assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert rfile.readline() == b"\r\n"
        assert time.monotonic() - start < 0.5
        conn.settimeout(5)
        conn.sendall(body)
        status, headers, reply = read_reply(rfile)
        assert "Connection" not in headers
        plain_exchange(conn, rfile)  # the connection stays open
    assert status == "HTTP/1.1 200 OK"
    assert json.loads(reply)["servers"] == 9


@pytest.mark.parametrize(
    "head, status, error",
    [
        (
            b"PUT /topology HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n",
            "400 Bad Request",
            "invalid content-length",
        ),
        (
            b"PUT /topology HTTP/1.1\r\nContent-Length: %d\r\n" % (sdnlb.service.MAX_BODY_BYTES + 1),
            "413 Request Entity Too Large",
            "body too large",
        ),
        (b"PUT /nope HTTP/1.1\r\nContent-Length: 2\r\n", "404 Not Found", "not found"),
    ],
    ids=["two-lengths", "too-large", "not-found"],
)
def test_expect_100_continue_is_not_sent_before_a_refusal(live_server, head, status, error):
    # the refusal is the first reply, so a client waiting for 100 Continue
    # never sends the body of a request that was refused
    base, _ = live_server
    with connection(base) as (conn, rfile):
        conn.sendall(head + b"Host: x\r\nExpect: 100-continue\r\n\r\n")
        got_status, headers, body = read_reply(rfile)
        assert closed_after(rfile)
    assert got_status == f"HTTP/1.1 {status}"
    assert headers["Connection"] == "close"
    assert json.loads(body)["error"] == error


def test_idle_connection_is_closed_after_the_timeout(live_server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    base, _ = live_server
    with connection(base) as (conn, rfile):
        plain_exchange(conn, rfile)
        start = time.monotonic()
        assert closed_after(rfile)  # its own read times out after 5 s
        assert 0.1 < time.monotonic() - start < 3


@contextlib.contextmanager
def capped_server(monkeypatch, cap: int):
    """A server of its own, built while MAX_CONNECTIONS is `cap`."""
    monkeypatch.setattr(sdnlb.service, "MAX_CONNECTIONS", cap)
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield "http://%s:%d" % server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_idle_connections_do_not_delay_a_new_one(live_server):
    base, _ = live_server
    with contextlib.ExitStack() as stack:
        clients = [stack.enter_context(connection(base)) for _ in range(20)]
        for conn, rfile in clients:
            plain_exchange(conn, rfile)  # each connection now idles, kept open
        start = time.monotonic()
        with connection(base) as (conn, rfile):
            plain_exchange(conn, rfile)
        assert time.monotonic() - start < 1  # far below the 30 s idle timeout
        for conn, rfile in clients:
            plain_exchange(conn, rfile)  # and every idle one is still served


def test_threads_stay_within_the_connection_cap(monkeypatch):
    cap = 4
    before = threading.active_count()
    limit = before + 1 + cap  # the accepting thread and one per connection
    with capped_server(monkeypatch, cap) as base:
        for _ in range(300):
            with connection(base) as (conn, rfile):
                plain_exchange(conn, rfile)
                conn.shutdown(socket.SHUT_WR)
                assert closed_after(rfile)  # its slot is free again
        assert threading.active_count() <= limit
        # twenty clients connect at once: the first `cap` are served, and
        # the rest are answered 503 busy without a thread of their own
        with contextlib.ExitStack() as stack:
            clients = [stack.enter_context(connection(base)) for _ in range(20)]
            for conn, rfile in clients[:cap]:
                plain_exchange(conn, rfile)
            for _, rfile in clients[cap:]:
                status, _, body = read_reply(rfile)
                assert (status, json.loads(body)["error"]) == ("HTTP/1.1 503 Service Unavailable", "busy")
            assert threading.active_count() <= limit


def test_connection_past_the_cap_is_answered_503_busy(monkeypatch):
    with capped_server(monkeypatch, 1) as base:
        with connection(base) as (held, held_rfile):
            plain_exchange(held, held_rfile)  # this connection holds the one slot
            with connection(base) as (_, refused_rfile):
                status, headers, body = read_reply(refused_rfile)
                assert closed_after(refused_rfile)
            held.shutdown(socket.SHUT_WR)
            assert closed_after(held_rfile)
        with connection(base) as (conn, rfile):
            plain_exchange(conn, rfile)  # the slot was given back
    assert status == "HTTP/1.1 503 Service Unavailable"
    assert (headers["Content-Type"], headers["Connection"]) == ("application/json", "close")
    assert json.loads(body) == {"error": "busy", "detail": "too many open connections"}


def test_a_connection_whose_thread_cannot_start_gives_its_slot_back(monkeypatch):
    monkeypatch.setattr(sdnlb.service, "MAX_CONNECTIONS", 1)
    server = make_server(port=0)

    def no_thread(self, request, client_address):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(socketserver.ThreadingMixIn, "process_request", no_thread)
    try:
        for _ in range(2):  # were the one slot kept, the second would be answered 503 busy
            ours, theirs = socket.socketpair()
            with ours, theirs, pytest.raises(RuntimeError, match="can't start new thread"):
                server.process_request(ours, ("127.0.0.1", 0))
    finally:
        server.server_close()


@contextlib.contextmanager
def serve_subprocess():
    """A `python -m sdnlb serve --port 0` process behind a pipe, and the
    first line it prints."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(sdnlb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdnlb", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no listening line within 10 s"
        yield proc, proc.stdout.readline().decode()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_serve_prints_listening_line_through_a_pipe():
    with serve_subprocess() as (_, line):
        assert line.startswith("sdnlb service listening on http://127.0.0.1:")
        assert int(line.rsplit(":", 1)[1]) > 0


def test_serve_exits_on_sigint_while_a_connection_idles():
    with serve_subprocess() as (proc, line):
        with connection(line.rsplit("//", 1)[1].strip()) as (conn, rfile):
            conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_reply(rfile)[2] == b'{"status": "ok"}'
            plain_exchange(conn, rfile)  # a handler thread now waits on this idle connection
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5) == 0
