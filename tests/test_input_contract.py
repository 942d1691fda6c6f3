"""Every entry point takes any mutated topology document to a result or to a
named error, within a deadline: load_topology, PUT /topology (in process and
over one persistent HTTP connection) and the CLI."""

import contextlib
import copy
import http.client
import io
import json
import math
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnlb.cli import main
from sdnlb.service import LoadBalancerService, ServiceError, make_server
from sdnlb.topology import Topology, TopologyError, build_paper_topology, load_topology

from helpers import random_connected_topology

DEADLINE_S = 10

BASE_DOCUMENTS = [build_paper_topology().document()] + [
    random_connected_topology(seed).document() for seed in range(8)
]

# any float, and numbers too large for a float or for a square of one
ODD_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e150, max_value=1e308),
    st.sampled_from([10**400, -(10**400), 2**63, 1e-320]),
)
# values of another type as well
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    ODD_NUMBERS,
    st.text(max_size=3),
    st.sampled_from(["s1", "h1", "switch", "server_host", "user_host"]),
    st.just([]),
    st.just({}),
)


def _locations(value, at=()):
    """The path (keys and indices) of every value inside a document."""
    yield at
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _locations(inner, (*at, key))
    elif isinstance(value, list):
        for index, inner in enumerate(value):
            yield from _locations(inner, (*at, index))


def _at(document, at):
    for step in at:
        document = document[step]
    return document


@st.composite
def mutated_documents(draw):
    """A base document with one to three mutations: one number field set to
    the same odd number in every entry (each link's delay, say), any value
    replaced by an odd one, a key or list entry removed, or a list entry
    duplicated (a node or link given twice; a duplicate key in JSON text
    parses to the last value, which the replacement covers)."""
    document = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        at = draw(st.sampled_from(list(_locations(document))))
        if not at:
            return draw(ODD_VALUES)  # the whole document replaced
        parent = _at(document, at[:-1])
        kind = draw(st.sampled_from(["number", "replace", "remove", "duplicate"]))
        if kind == "number":
            numbers = [  # (section, index, key) of each number in a node or link entry
                at for at in _locations(document) if len(at) == 3 and isinstance(_at(document, at), (int, float))
            ]
            if numbers:
                section, _, key = draw(st.sampled_from(numbers))
                value = draw(ODD_NUMBERS)
                for entry in document[section]:
                    if isinstance(entry, dict) and key in entry:
                        entry[key] = value
        elif kind == "replace":
            parent[at[-1]] = draw(ODD_VALUES)
        elif kind == "remove":
            del parent[at[-1]]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[at[-1]]))
    return document


@contextlib.contextmanager
def deadline(seconds: int):
    def expire(signum, frame):
        raise AssertionError(f"example did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def wire():
    """One persistent connection to a running service."""
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    conn = http.client.HTTPConnection(host, port, timeout=DEADLINE_S)
    conn.connect()
    yield conn
    conn.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=DEADLINE_S)


@settings(max_examples=100, deadline=None)
@given(document=mutated_documents())
def test_load_topology_and_put_topology_answer_or_name_the_error(document, wire):
    with deadline(DEADLINE_S):
        try:
            topology = load_topology(document)
        except TopologyError:
            topology = None
        assert topology is None or isinstance(topology, Topology)
        try:
            LoadBalancerService().put_topology(document)
            assert topology is not None
        except ServiceError as exc:
            assert topology is None
            assert 400 <= exc.status < 500
        sock = wire.sock
        wire.request("PUT", "/topology", body=json.dumps(document))  # NaN and inf as JSON's literals
        response = wire.getresponse()
        body = json.loads(response.read())
        if topology is not None:
            assert response.status == 200
        else:
            assert 400 <= response.status < 500 and set(body) == {"error", "detail"}
        assert (wire.sock, response.will_close) == (sock, False)  # the connection stays usable


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "topology.json"


@settings(max_examples=80, deadline=None)
@given(document=mutated_documents())
def test_cli_exits_0_or_2_with_a_named_error(document, document_path):
    document_path.write_text(json.dumps(document))  # NaN and inf as JSON's NaN/Infinity literals
    for argv in (
        ["cluster", "--topology", str(document_path)],
        ["experiment", "--topology", str(document_path), "--state", "clustered"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with deadline(DEADLINE_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 2), argv
        if status == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
        else:
            assert err.getvalue() == ""
            if argv[0] == "cluster":
                assert all(math.isfinite(c["mean_delay_ms"]) for c in json.loads(out.getvalue())["centroids"])
