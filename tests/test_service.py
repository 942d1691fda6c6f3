import http.client
import json
import os
import select
import socket
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import sdnlb
from sdnlb.service import LoadBalancerService, ServiceError, make_server
from sdnlb.topology import build_paper_topology

from helpers import BAD_TOPOLOGY_DOCUMENTS, count_calls

TOPOLOGY_DOC = build_paper_topology().document()


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

    def test_cache_hit_does_no_hashing(self, service, monkeypatch):
        import sdnlb.topology

        service.put_topology(TOPOLOGY_DOC)
        first = service.get_clusters(k=3)

        def no_hashing(payload):
            raise AssertionError("GET /clusters cache hit hashed the topology")

        monkeypatch.setattr(sdnlb.topology, "hashlib", SimpleNamespace(sha256=no_hashing))
        assert service.get_clusters(k=3) is first

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
        with pytest.raises(ServiceError) as err:
            service.post_requests(9, 1)
        assert err.value.status == 400

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

    def test_clusters_on_topology_without_servers_is_422(self, live_server):
        base, _ = live_server
        document = {
            "nodes": [{"id": "s1", "kind": "switch"}, {"id": "u1", "kind": "user_host"}],
            "links": [{"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0}],
            "user_switch": "s1",
        }
        assert requests.put(f"{base}/topology", json=document).status_code == 200
        out = requests.get(f"{base}/clusters", params={"k": 1})
        assert out.status_code == 422
        assert out.json() == {
            "error": "clustering failed",
            "detail": "feature set must contain at least one server",
        }

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
ROUTES = {"/topology": "PUT", "/clusters": "GET", "/pools": "GET", "/requests": "POST", "/stats": "GET"}


@pytest.mark.parametrize("path", [*ROUTES, "/nope"])
@pytest.mark.parametrize("method", ["GET", "PUT", "POST", "DELETE", "PATCH"])
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
        ("OPTIONS /stats HTTP/1.0", "501 Not Implemented", "Unsupported method ('OPTIONS')"),
        ("FOO /stats HTTP/1.0", "501 Not Implemented", "Unsupported method ('FOO')"),
        ("GET /a b c HTTP/1.0", "400 Bad Request", "Bad request syntax ('GET /a b c HTTP/1.0')"),
    ],
)
def test_stdlib_error_replies_are_json(live_server, request_line, status, detail):
    base, _ = live_server
    got_status, headers, body = raw_exchange(base, request_line.encode() + b"\r\n\r\n")
    assert got_status == f"HTTP/1.0 {status}"
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
    assert got_status == f"HTTP/1.0 {status}"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(got_body) == body


def test_head_error_reply_has_no_body(live_server):
    base, _ = live_server
    status, headers, body = raw_exchange(base, b"HEAD /stats HTTP/1.0\r\n\r\n")
    assert status == "HTTP/1.0 501 Not Implemented"
    assert headers["Content-Type"] == "application/json"
    assert body == b""


def test_serve_prints_listening_line_through_a_pipe():
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
        line = proc.stdout.readline().decode()
        assert line.startswith("sdnlb service listening on http://127.0.0.1:")
        assert int(line.rsplit(":", 1)[1]) > 0
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
