"""Every entry point takes any mutated topology document to a result or to a
named error, within a deadline: load_topology, PUT /topology (in process and
over one persistent HTTP connection) and the CLI. load_topology decides as
the two-pass loader it replaced (helpers.reference_load_topology) did."""

import contextlib
import copy
import http.client
import io
import json
import math
import random
import signal
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnlb.cli import main
from sdnlb.service import LoadBalancerService, ServiceError, make_server
from sdnlb.topology import Topology, TopologyError, build_paper_topology, load_topology

from helpers import (
    BAD_TOPOLOGY_DOCUMENTS,
    LoadedTopology,
    layered_topology,
    load_outcome,
    random_connected_topology,
    reference_load_topology,
)

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
    replaced by an odd one, a key or list entry removed, a list entry
    duplicated (a node or link given twice; a duplicate key in JSON text
    parses to the last value, which the replacement covers), or one link end
    set to another node id of the document (a host linked to a host, say)."""
    document = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        at = draw(st.sampled_from(list(_locations(document))))
        if not at:
            return draw(ODD_VALUES)  # the whole document replaced
        parent = _at(document, at[:-1])
        kind = draw(st.sampled_from(["number", "replace", "remove", "duplicate", "relink"]))
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
        elif kind == "relink":
            nodes, links = (v if isinstance(v, list) else [] for v in (document.get("nodes"), document.get("links")))
            ids = [node["id"] for node in nodes if isinstance(node, dict) and "id" in node]
            ends = [(link, end) for link in links if isinstance(link, dict) for end in "ab" if end in link]
            if ids and ends:
                link, end = draw(st.sampled_from(ends))
                link[end] = draw(st.sampled_from(ids))
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


# -- load_topology against the two-pass loader it replaced -----------------


def assert_loads_as_the_oracle(document):
    """load_topology gives the oracle's sorted sections and indexes, or the
    same error type and message."""
    got, want = load_outcome(load_topology, document), load_outcome(reference_load_topology, document)
    assert got == want
    return got


@pytest.mark.parametrize("case", sorted(BAD_TOPOLOGY_DOCUMENTS))
def test_bad_documents_fail_as_the_oracle_does(case):
    document, names = BAD_TOPOLOGY_DOCUMENTS[case]
    error, message = assert_loads_as_the_oracle(document)
    assert error is TopologyError and names in message


@settings(max_examples=300, deadline=None)
@given(document=mutated_documents())
def test_mutated_documents_load_as_the_oracle_loads_them(document):
    assert_loads_as_the_oracle(document)


def _shuffled(document: dict, seed: int) -> dict:
    """The document with its nodes and links in a random order and some
    link ends swapped: only the loader's sorts put them back."""
    rnd = random.Random(seed)
    document = copy.deepcopy(document)
    for section in ("nodes", "links"):
        rnd.shuffle(document[section])
    for link in document["links"]:
        if rnd.random() < 0.5:
            link["a"], link["b"] = link["b"], link["a"]
    return document


GENERATED_DOCUMENTS = {
    **{f"random-{seed}": random_connected_topology(seed).document() for seed in range(40)},
    **{f"random-unit-{seed}": random_connected_topology(seed, unit_delays=True).document() for seed in range(20)},
    **{
        f"layered-{shape}": layered_topology(*shape).document()
        for shape in ((2, 1, 1), (3, 2, 2), (4, 3, 2), (7, 6, 5))
    },
}


@pytest.mark.parametrize("name", sorted(GENERATED_DOCUMENTS))
def test_generated_documents_load_as_the_oracle_loads_them(name):
    document = GENERATED_DOCUMENTS[name]
    assert isinstance(assert_loads_as_the_oracle(document), LoadedTopology)
    for seed in range(3):
        assert assert_loads_as_the_oracle(_shuffled(document, seed)) == load_outcome(load_topology, document)


def _paper(*edits) -> dict:
    """The paper document with each edit (a function of it) applied."""
    document = build_paper_topology().document()
    for edit in edits:
        edit(document)
    return document


def _node(node_id: str):
    return lambda d: next(n for n in d["nodes"] if n["id"] == node_id)


def _link(a: str, b: str):
    return lambda d: next(l for l in d["links"] if (l["a"], l["b"]) == (a, b))


def _set(at, key: str, value):
    return lambda d: at(d).__setitem__(key, value)


def _add_link(a: str, b: str, delay_ms=1.0):
    return lambda d: d["links"].append({"a": a, "b": b, "delay_ms": delay_ms, "capacity_mbps": 100.0})


def _add_node(node_id: str, kind: str):
    return lambda d: d["nodes"].append({"id": node_id, "kind": kind})


def _cut_switch(switch: str):
    """Drop the switch's links to other switches; its hosts stay on it."""
    return lambda d: d.update(
        links=[l for l in d["links"] if switch not in (l["a"], l["b"]) or not l["a"].startswith("s")]
    )


# case -> (document with two faults, the error the first of them in the
# oracle's order gives)
TWO_FAULT_DOCUMENTS = {
    "unknown-end-after-duplicate-link": (
        _paper(_add_link("s7", "x1"), _add_link("s2", "s1")), "duplicate link between 's1' and 's2'"
    ),
    "unknown-end-before-duplicate-link": (
        _paper(_add_link("s1", "x1"), _add_link("s7", "s5")), "link s1-x1 references unknown node id 'x1'"
    ),
    "both-ends-unknown": (_paper(_add_link("x2", "x1")), "link x1-x2 references unknown node id 'x1'"),
    "duplicate-node-and-unknown-end": (
        _paper(_add_node("s4", "switch"), _add_link("s1", "x1")), "duplicate node id 's4'"
    ),
    "self-loop-after-bad-delay": (
        _paper(_set(_link("s1", "s2"), "delay_ms", -1.0), _add_link("s3", "s3")),
        "link s1-s2: delay_ms must be within [0, 1e+09]",
    ),
    "bad-label-before-bad-kind": (
        _paper(_set(_node("h1"), "label", 7), _set(_node("s2"), "kind", "router")),
        "node 'h1': label must be a string or null, got 7",
    ),
    "unhashable-kind-and-bad-level": (
        _paper(_set(_node("h2"), "kind", ["switch"]), _set(_node("h5"), "level", 0)),
        "node 'h2': unknown kind '['switch']'",
    ),
    "mapping-kind": (_paper(_set(_node("s1"), "kind", {"switch": 1})), "node 's1': unknown kind '{'switch': 1}'"),
    "user-switch-unknown-and-duplicate-link": (
        _paper(lambda d: d.update(user_switch="s99"), _add_link("s2", "s1")), "duplicate link between 's1' and 's2'"
    ),
    "two-user-hosts-and-a-host-with-two-links": (
        _paper(_set(_node("h5"), "kind", "user_host"), _add_link("h2", "s3")), "expected exactly one user_host, found 2"
    ),
    "host-with-two-links-and-a-cut-switch": (
        _paper(_add_link("h3", "s6"), _cut_switch("s7")), "host 'h3' must have exactly one link (has 2)"
    ),
    "two-cut-switches": (
        _paper(_cut_switch("s6"), _cut_switch("s7")), "graph is disconnected: node 'h8' unreachable"
    ),
    "one-cut-switch-and-its-host": (_paper(_cut_switch("s7")), "graph is disconnected: node 'h9' unreachable"),
    "missing-user-switch-and-bad-node": (
        _paper(lambda d: d.pop("user_switch"), _set(_node("s1"), "id", "")),
        "topology document missing required key 'user_switch'",
    ),
    "bad-link-name-and-bad-capacity": (
        _paper(_set(_link("s1", "s2"), "capacity_mbps", 0), _set(_link("s1", "s3"), "b", 3)),
        "link s1-s2: capacity_mbps must be finite and > 0",
    ),
    # a duplicate link is the one whose end pair equals the previous link's
    # in sorted order, wherever the document puts the copies
    "duplicate-link-far-apart-swapped-and-a-host-with-two-links": (
        _paper(lambda d: d["links"].insert(0, {**_link("s5", "s7")(d), "a": "s7", "b": "s5"}), _add_link("h10", "s6")),
        "duplicate link between 's5' and 's7'",
    ),
    "link-given-three-times-and-user-switch-unknown": (
        _paper(_add_link("s2", "s1"), lambda d: d.update(user_switch="s99"), _add_link("s1", "s2", 3.0)),
        "duplicate link between 's1' and 's2'",
    ),
    "unknown-end-sorting-just-before-a-duplicate-link": (
        _paper(_add_link("s6", "s4"), _add_link("s4", "s5a")), "link s4-s5a references unknown node id 's5a'"
    ),
    "unknown-end-sorting-just-after-a-duplicate-link": (
        _paper(_add_link("s4", "s6a"), _add_link("s6", "s4")), "duplicate link between 's4' and 's6'"
    ),
    "repeated-node-id-and-duplicate-link": (
        _paper(_add_link("s2", "s1"), _add_node("s3", "switch")), "duplicate node id 's3'"
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULT_DOCUMENTS))
def test_two_fault_documents_name_the_oracle_first_error(case):
    document, message = TWO_FAULT_DOCUMENTS[case]
    assert assert_loads_as_the_oracle(document) == (TopologyError, message)


def _document(nodes: list[tuple[str, str]], links: list[tuple[str, str]], user_switch: str = "s1") -> dict:
    return {
        "nodes": [{"id": i, "kind": kind} for i, kind in nodes],
        "links": [{"a": a, "b": b, "delay_ms": 1.0, "capacity_mbps": 100.0} for a, b in links],
        "user_switch": user_switch,
    }


# ids whose numbers tie (h1/h01, s2/s02), in a document order that differs
# from their text order, which decides
TIED_NODES = [
    ("s02", "switch"), ("h1", "server_host"), ("s2", "switch"),
    ("h01", "server_host"), ("s1", "switch"), ("u1", "user_host"),
]  # fmt: skip
TIED_LINKS = [("s02", "s1"), ("h01", "s2"), ("s1", "s2"), ("s02", "h1"), ("u1", "s1"), ("s2", "s02")]


def test_ids_with_tied_natural_keys_keep_the_oracle_order():
    topo = load_topology(_document(TIED_NODES, TIED_LINKS))
    assert_loads_as_the_oracle(_document(TIED_NODES, TIED_LINKS))
    assert [n.id for n in topo.nodes] == ["h01", "h1", "s1", "s02", "s2", "u1"]
    # ends with tied numbers go in text order too; a link sorts by its end pair
    assert [l.key for l in topo.links] == [
        ("h01", "s2"), ("h1", "s02"), ("s1", "s02"), ("s1", "s2"), ("s1", "u1"), ("s02", "s2"),
    ]  # fmt: skip
    assert topo.switch_ids == ("s1", "s02", "s2")
    assert topo.features.server_ids == ("h01", "h1")
    assert topo.adjacency["s02"] == ("h1", "s1", "s2")


def test_a_link_given_with_its_ends_swapped_is_a_duplicate():
    links = TIED_LINKS + [("s02", "s2")]
    assert assert_loads_as_the_oracle(_document(TIED_NODES, links)) == (
        TopologyError,
        "duplicate link between 's02' and 's2'",
    )


@pytest.mark.parametrize(
    "nodes, links, message",
    [
        (
            TIED_NODES + [("h1", "server_host"), ("h01", "server_host")],
            TIED_LINKS,
            "duplicate node id 'h01'",  # h01 sorts first, though the document repeats h1 first
        ),
        (
            TIED_NODES[:1] + [("h01", "server_host"), ("h1", "server_host"), ("h1", "server_host")] + TIED_NODES[2:],
            TIED_LINKS,
            "duplicate node id 'h01'",
        ),
        (TIED_NODES, TIED_LINKS + [("x1", "s1"), ("x01", "s1")], "link s1-x01 references unknown node id 'x01'"),
        (TIED_NODES, TIED_LINKS + [("x01", "s1"), ("x1", "s1")], "link s1-x01 references unknown node id 'x01'"),
    ],
    ids=["duplicate-h1", "duplicate-h01-first", "unknown-x1-first", "unknown-x01-first"],
)
def test_first_error_among_tied_ids_is_the_oracle_first(nodes, links, message):
    assert assert_loads_as_the_oracle(_document(nodes, links)) == (TopologyError, message)


TIED_IDS = ["s1", "s01", "s2", "s02", "s10", "h1", "h01", "h2", "u1", "x1", "x01"]


@st.composite
def tied_documents(draw):
    """A loadable document whose ids tie in pairs (s1/s01, s2/s02,
    h1/h01), plus up to two nodes and three links drawn from tied and
    unknown ids, in a random order with random link ends first."""
    nodes = [
        ("s1", "switch"), ("s01", "switch"), ("s2", "switch"), ("s02", "switch"),
        ("u1", "user_host"), ("h1", "server_host"), ("h01", "server_host"),
    ]  # fmt: skip
    links = [("s1", "s01"), ("s01", "s2"), ("s2", "s02"), ("u1", "s1"), ("h1", "s2"), ("h01", "s02")]
    kinds = st.sampled_from(["switch", "server_host", "user_host"])
    nodes += draw(st.lists(st.tuples(st.sampled_from(TIED_IDS), kinds), max_size=2))
    links += draw(st.lists(st.tuples(st.sampled_from(TIED_IDS), st.sampled_from(TIED_IDS)), max_size=3))
    nodes, links = draw(st.permutations(nodes)), draw(st.permutations(links))
    links = [(b, a) if draw(st.booleans()) else (a, b) for a, b in links]
    return _document(nodes, links)


@settings(max_examples=300, deadline=None)
@given(document=tied_documents())
def test_tied_id_documents_load_as_the_oracle_loads_them(document):
    assert_loads_as_the_oracle(document)


@st.composite
def reordered_tied_documents(draw):
    """A loadable document whose ids tie in their numbers (s1/s01, s2/s02,
    h1/h01, h2/h02), with drawn link delays, and the same document with its
    nodes, its links and each link's ends in drawn orders."""
    nodes = [
        ("s1", "switch"), ("s01", "switch"), ("s2", "switch"), ("s02", "switch"), ("s10", "switch"),
        ("u1", "user_host"), ("h1", "server_host"), ("h01", "server_host"), ("h2", "server_host"),
        ("h02", "server_host"),
    ]  # fmt: skip
    links = [
        ("s1", "s01"), ("s01", "s2"), ("s2", "s02"), ("s02", "s10"), ("s10", "s1"), ("s1", "s2"),
        ("u1", "s1"), ("h1", "s01"), ("h01", "s2"), ("h2", "s02"), ("h02", "s10"),
    ]  # fmt: skip
    document = _document(nodes, links)
    for link in document["links"]:
        link["delay_ms"] = draw(st.sampled_from([1.0, 2.0, 3.0]))
    reordered = copy.deepcopy(document)
    reordered["nodes"] = draw(st.permutations(reordered["nodes"]))
    reordered["links"] = draw(st.permutations(reordered["links"]))
    for link in reordered["links"]:
        if draw(st.booleans()):
            link["a"], link["b"] = link["b"], link["a"]
    return document, reordered


@settings(max_examples=40, deadline=None)
@given(documents=reordered_tied_documents(), k=st.integers(1, 4))
def test_document_order_changes_neither_the_topology_nor_the_clusters(documents, k, document_path):
    document, reordered = documents
    assert load_topology(reordered) == load_topology(document)
    outputs = []
    for each in documents:
        document_path.write_text(json.dumps(each))
        for method in ("kmeans", "spectral"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["cluster", "--topology", str(document_path), "--k", str(k), "--method", method]) == 0
            outputs.append(out.getvalue())
    assert outputs[:2] == outputs[2:]
