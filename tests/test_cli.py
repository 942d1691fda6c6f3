import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import sdnlb
from sdnlb.allocator import build_plan
from sdnlb.cli import _cluster_json, main
from sdnlb.service import make_server
from sdnlb.topology import build_paper_topology, load_topology

import golden
from helpers import (
    BAD_TOPOLOGY_DOCUMENTS,
    CHAIN_BOUND_S,
    NON_DECIMAL_DIGIT_IDS,
    chain_document,
    count_builds,
    count_calls,
    paper_document_renamed,
    plan_documents,
)

# sha256 of each paper-repro output at the default flags. The reference
# topology's Laplacian has a threefold eigenvalue 1 across the k = 3
# boundary, so the spectral embedding keeps only the eigenvectors below it
# and the spectral rows of clusters.csv equal the k-means rows whatever basis
# the eigensolver returns for that eigenspace.
PAPER_REPRO_SHA256 = {
    "table1.csv": "89a87390e08c5b32c1f58ddd5bf0485d7739647b97386dd60889860cda95f8c1",
    "clusters.csv": "a89531145489c4e954d85d16f86377db06e3f38afb88a0656995ee02a8039ecb",
    "experiments.csv": "bd976b5c60cd415170f04a32372385c348ffc89413dd7c82134b0a75cda31062",
}

PRINTED_LOAD_ROW = ["3.33", "1.875", "1.428", "1.25", "1.2", "1.25", "1.428", "1.875", "3.33"]


def truncated(cell: str, printed: str) -> str:
    from fractions import Fraction

    from sdnlb.allocator import truncate_fraction

    return truncate_fraction(Fraction(cell), len(printed.partition(".")[2]))


def run_sdnlb(argv: list[str], locale: str) -> subprocess.CompletedProcess:
    """`python -m sdnlb *argv` in a child whose locale is plain ASCII
    (`"C"`) or UTF-8 (`"C.UTF-8"`), with no UTF-8 mode or coercion to
    override it."""
    env = dict(os.environ, LC_ALL=locale, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    src = str(Path(sdnlb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sdnlb", *argv], env=env, capture_output=True, timeout=60)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    assert main(["paper-repro", "--out", str(out)]) == 0
    return out


class TestPaperRepro:
    def test_exit_zero_and_files_exist(self, outputs):
        for name in ("table1.csv", "clusters.csv", "experiments.csv"):
            assert (outputs / name).is_file()

    def test_request_count_is_not_an_option(self, tmp_path, capsys):
        # the checks compare against the paper's rows for 30 requests
        with pytest.raises(SystemExit) as exc:
            main(["paper-repro", "--requests", "31", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --requests 31" in capsys.readouterr().err

    def test_table_row3_matches_printed_values(self, outputs):
        rows = (outputs / "table1.csv").read_text().splitlines()
        cells = rows[3].split(",")[1:]
        assert [truncated(c, p) for c, p in zip(cells, PRINTED_LOAD_ROW)] == PRINTED_LOAD_ROW

    def test_clusters_centroid_hops_column(self, outputs):
        rows = (outputs / "clusters.csv").read_text().splitlines()
        kmeans = [r.split(",") for r in rows[1:] if r.startswith("kmeans,")]
        assert [float(r[2]) for r in kmeans] == [1.0, 2.0, 3.0]

    def test_spectral_rows_equal_kmeans_rows(self, outputs):
        rows = [r.split(",") for r in (outputs / "clusters.csv").read_text().splitlines()[1:]]
        kmeans = [r[1:] for r in rows if r[0] == "kmeans"]
        spectral = [r[1:] for r in rows if r[0] == "spectral"]
        assert spectral == kmeans
        assert [(float(r[1]), float(r[2])) for r in spectral] == [(1.0, 12.0), (2.0, 22.0), (3.0, 30.33)]

    def test_outputs_match_pinned_hashes(self, outputs):
        for name, digest in PAPER_REPRO_SHA256.items():
            assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == digest, name

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # the reference run clusters with seed 0; seed independence is checked
        # by the acceptance suite and test_paper_partition_ignores_seed
        with pytest.raises(SystemExit) as exc:
            main(["paper-repro", "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_load_sweep_is_computed_once(self, tmp_path, monkeypatch, capsys):
        sweeps = count_calls(monkeypatch, sdnlb.allocator, "table1")
        assert main(["paper-repro", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(sweeps) == 1

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["paper-repro", "--out", str(out1)]) == 0
        assert main(["paper-repro", "--out", str(out2)]) == 0
        for name in ("table1.csv", "clusters.csv", "experiments.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_digests_hold_under_python_O(self, tmp_path):
        # -O strips assert statements, so no invariant may rest on one
        env = dict(os.environ)
        src = str(Path(sdnlb.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "sdnlb", "paper-repro", "--out", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        for name, digest in PAPER_REPRO_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestExperiment:
    def test_single_server_row(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "experiment",
                "--state",
                "single-server",
                "--target",
                "h3",
                "--requests",
                "30",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in out.read_text().splitlines()[1:]}
        assert rows["h3"][2] == "30"
        assert rows["h2"][2] == "0"

    def test_zero_requests_zero_report(self, tmp_path):
        out = tmp_path / "report.csv"
        main(["experiment", "--state", "big-cluster", "--requests", "0", "--out", str(out)])
        for row in out.read_text().splitlines()[1:]:
            assert row.split(",")[2] == "0"
            assert float(row.split(",")[3]) == 0.0

    def test_clustered_lists_nine_servers_three_clusters(self, tmp_path):
        out = tmp_path / "report.csv"
        main(
            [
                "experiment",
                "--state",
                "clustered",
                "--k",
                "3",
                "--requests-per-cluster",
                "10",
                "--out",
                str(out),
            ]
        )
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        servers = [r for r in rows if r[1] == "server"]
        assert len(servers) == 9
        assert len({r[5] for r in servers}) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_duration_exits_2(self, value, capsys):
        assert main(["experiment", "--state", "big-cluster", f"--duration={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: duration_s must be finite and > 0")

    @pytest.mark.parametrize(
        "state", [["--state", "big-cluster"], ["--state", "single-server", "--target", "h3"]]
    )
    def test_negative_requests_exit_2(self, state, capsys):
        assert main(["experiment", *state, "--requests", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "total_requests must be >= 0" in captured.err

    def test_single_server_requires_target(self, capsys):
        assert main(["experiment", "--state", "single-server"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --state single-server requires --target <server-id>\n"

    def test_invalid_topology_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": []}')
        assert main(["cluster", "--topology", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, detail",
        [
            (b"[" * 200_000, "the JSON document nests too deeply"),
            (b"\x80abc", "can't decode byte 0x80"),
            (b'{"a": "\xff"}', "can't decode byte 0xff"),
            (b"", "Expecting value: line 1 column 1 (char 0)"),
            (b'{"nodes": [}', "Expecting value: line 1 column 12 (char 11)"),
        ],
        ids=["nested", "bad-start-byte", "bad-string-byte", "empty", "bad-syntax"],
    )
    def test_undecodable_topology_file_exits_2(self, raw, detail, tmp_path, capsys):
        path = tmp_path / "topology.json"
        path.write_bytes(raw)
        assert main(["cluster", "--topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and detail in captured.err
        assert captured.err.startswith(f"error: {path}: ")  # the message names the file

    def test_utf8_topology_file_loads_under_an_ascii_locale(self, tmp_path):
        # the file is read as bytes, as PUT /topology reads a body, so a
        # non-ASCII label loads whatever encoding the locale names
        doc = build_paper_topology().document()
        doc["nodes"][1]["label"] = "交换机-ü"
        utf8, escaped = tmp_path / "utf8.json", tmp_path / "escaped.json"
        utf8.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        escaped.write_bytes(json.dumps(doc).encode("ascii"))
        outputs = []
        for path in (utf8, escaped):
            done = run_sdnlb(["cluster", "--topology", str(path), "--k", "3"], "C")
            assert (done.returncode, done.stderr) == (0, b""), done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "missing,shown",
        [
            ("ü-missing", "ü-missing".encode()),
            # a lone surrogate has no UTF-8 form: it reads as its escape
            ("\udc80", b"\\udc80"),
        ],
        ids=["non-ascii", "lone-surrogate"],
    )
    def test_error_lines_are_utf8_under_an_ascii_locale(self, tmp_path, missing, shown):
        doc = build_paper_topology().document()
        doc["links"].append({"a": "s1", "b": missing, "delay_ms": 1.0, "capacity_mbps": 1.0})
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(doc))
        argv = ["cluster", "--topology", str(path)]
        runs = [run_sdnlb(argv, locale) for locale in ("C", "C.UTF-8")]
        for done in runs:
            assert (done.returncode, done.stdout) == (2, b""), done.stderr
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr == b"error: link s1-%s references unknown node id '%s'\n" % (shown, shown)

    @pytest.mark.parametrize(
        "names,shown",
        [
            (NON_DECIMAL_DIGIT_IDS, "h1²".encode()),
            # a lone surrogate has no UTF-8 form: it reads as its escape
            ({"h10": "\udc80"}, b"\\udc80,server,"),
        ],
        ids=["non-ascii", "lone-surrogate"],
    )
    def test_non_ascii_server_ids_are_written_as_utf8_under_an_ascii_locale(self, tmp_path, names, shown):
        # the report names servers "h1²" and "①", or "\udc80": stdout and
        # --out carry UTF-8 whatever encoding the locale names
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(paper_document_renamed(names)))
        written = {}
        for locale in ("C", "C.UTF-8"):
            out = tmp_path / f"report-{locale}.csv"
            argv = ["experiment", "--state", "clustered", "--topology", str(path)]
            to_stdout, to_file = run_sdnlb(argv, locale), run_sdnlb([*argv, "--out", str(out)], locale)
            for done in (to_stdout, to_file):
                assert (done.returncode, done.stderr) == (0, b""), done.stderr
            assert to_file.stdout == b""
            written[locale] = (to_stdout.stdout, out.read_bytes())
        assert written["C"] == written["C.UTF-8"]
        assert written["C"][0] == written["C"][1]
        assert shown in written["C"][0]

    def test_custom_topology_file(self, tmp_path):
        doc = build_paper_topology().document()
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(doc))
        out = tmp_path / "report.csv"
        code = main(
            [
                "experiment",
                "--topology",
                str(topo_path),
                "--state",
                "big-cluster",
                "--requests",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 11


class TestOtherCommands:
    def test_cluster_json(self, capsys):
        assert main(["cluster", "--k", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 3
        assert len(doc["servers"]) == 9

    def test_cluster_spectral(self, capsys):
        assert main(["cluster", "--k", "3", "--method", "spectral"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "spectral"
        assert sorted(doc["priority_order"]) == [0, 1, 2]

    @pytest.mark.parametrize("method", ["kmeans", "spectral"])
    def test_cluster_builds_no_pools(self, method, monkeypatch, capsys):
        pools = count_calls(monkeypatch, sdnlb.allocator, "build_pools")
        exports = count_calls(monkeypatch, sdnlb.allocator, "pool_export")
        assert main(["cluster", "--k", "3", "--method", method]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == method
        assert (len(pools), len(exports)) == (0, 0)

    @pytest.mark.parametrize("method", ["kmeans", "spectral"])
    def test_cluster_builds_the_tree_once_and_no_routes(self, method, monkeypatch, capsys):
        import sdnlb.topology

        paths_calls = count_calls(monkeypatch, sdnlb.topology, "all_pairs_shortest_paths")
        runs = count_calls(monkeypatch, sdnlb.topology, "_shortest_paths_from")
        route_builds = count_builds(monkeypatch, sdnlb.topology.Topology, "routes")
        assert main(["cluster", "--k", "3", "--method", method]) == 0
        capsys.readouterr()
        assert len(runs) == 1  # validation's run from the user switch
        assert paths_calls == route_builds == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--method", "kmeans"],
            ["cluster", "--method", "spectral"],
            ["table1"],
            ["experiment", "--state", "clustered"],
            ["paper-repro"],
        ],
        ids=" ".join,
    )
    def test_front_ends_build_one_tree_and_no_path_matrix(self, argv, monkeypatch, tmp_path, capsys):
        import sdnlb.topology

        paths_calls = count_calls(monkeypatch, sdnlb.topology, "all_pairs_shortest_paths")
        runs = count_calls(monkeypatch, sdnlb.topology, "_shortest_paths_from")
        if argv == ["paper-repro"]:
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(runs) == 1  # one load, and no front-end call runs the rule again
        assert paths_calls == []

    def test_cluster_answers_a_1600_switch_chain_in_bounded_time(self, monkeypatch, tmp_path, capsys):
        import sdnlb.topology

        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_document(1600)))
        paths_calls = count_calls(monkeypatch, sdnlb.topology, "all_pairs_shortest_paths")
        start = time.perf_counter()
        assert main(["cluster", "--method", "kmeans", "--topology", str(path)]) == 0
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["servers"]) == 1600
        assert elapsed < CHAIN_BOUND_S
        assert paths_calls == []

    @pytest.mark.parametrize("case", BAD_TOPOLOGY_DOCUMENTS)
    def test_cluster_on_bad_topology_exits_2(self, case, tmp_path, capsys):
        document, names = BAD_TOPOLOGY_DOCUMENTS[case]
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(document))
        assert main(["cluster", "--topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and names in captured.err

    def test_cluster_on_ids_with_non_decimal_digits(self, tmp_path, capsys):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(paper_document_renamed(NON_DECIMAL_DIGIT_IDS)))
        assert main(["cluster", "--topology", str(path)]) == 0
        out = capsys.readouterr().out.encode()
        plan = build_plan(load_topology(paper_document_renamed(NON_DECIMAL_DIGIT_IDS)), 3, "kmeans", 0)
        assert out == (json.dumps(plan.document, indent=2) + "\n").encode()
        assert {s["server_id"] for s in json.loads(out)["servers"]} >= {"h1²", "①"}

    def test_cluster_out_file_holds_the_stdout_bytes(self, tmp_path, capsys):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(paper_document_renamed(NON_DECIMAL_DIGIT_IDS)))
        out = tmp_path / "cluster.json"
        assert main(["cluster", "--topology", str(path), "--method", "spectral"]) == 0
        printed = capsys.readouterr().out.encode()
        assert main(["cluster", "--topology", str(path), "--method", "spectral", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "--requests", "-1"], "error: requests must be >= 0\n"),
            (["cluster", "--k", "0"], "error: k must be >= 1\n"),
        ],
    )
    def test_out_of_range_value_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    @pytest.mark.parametrize("port", ["70000", "65536", "-1", "x"])
    def test_port_out_of_range_exits_2_without_binding(self, port, monkeypatch, capsys):
        served = []
        monkeypatch.setattr(sdnlb.service, "serve", lambda host, port: served.append(port))
        with pytest.raises(SystemExit) as exit_:
            main(["serve", f"--port={port}"])
        assert exit_.value.code == 2
        assert served == []
        err = capsys.readouterr().err
        assert err.startswith("usage: sdnlb serve") and "port must be an integer within 0-65535" in err
        assert main(["serve", "--port=65535"]) == 0
        assert served == [65535]

    @pytest.mark.parametrize(
        "port", ["\u0668\u0660", " 80", "1" * 5000], ids=["arabic-indic", "space", "past-digit-limit"]
    )
    def test_port_outside_the_ascii_grammar_exits_2_without_binding(self, port, monkeypatch, capsys):
        served = []
        monkeypatch.setattr(sdnlb.service, "serve", lambda host, port: served.append(port))
        with pytest.raises(SystemExit) as exit_:
            main(["serve", f"--port={port}"])
        assert exit_.value.code == 2
        assert served == []
        assert "port must be an integer within 0-65535" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["cluster", "--k", "\u0663"], "argument --k: value must be an integer (-?[0-9]+), got '\u0663'"),
            (["cluster", "--k", "+3"], "argument --k: value must be an integer (-?[0-9]+), got '+3'"),
            (["cluster", "--seed", "1_0"], "argument --seed: value must be an integer (-?[0-9]+), got '1_0'"),
            (["table1", "--requests", "\uff13"], "argument --requests: value must be an integer (-?[0-9]+)"),
            (
                ["experiment", "--state", "clustered", "--requests-per-cluster", "1_0"],
                "argument --requests-per-cluster: value must be an integer (-?[0-9]+)",
            ),
            (["cluster", "--k", "1" * 5000], "argument --k: value has 5000 digits, past int's limit of"),
        ],
        ids=["arabic-indic-k", "plus-k", "underscore-seed", "fullwidth-requests", "underscore-per-cluster", "long-k"],
    )
    def test_integer_option_outside_the_ascii_grammar_exits_2(self, argv, shown, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and shown in captured.err

    def test_table1_csv(self, capsys):
        assert main(["table1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "k,1,2,3,4,5,6,7,8,9"
        assert rows[2].endswith("900%")

    @pytest.mark.parametrize("command", ["table1", "cluster", "experiment --state big-cluster"])
    def test_topology_without_servers_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps({
            "nodes": [{"id": "s1", "kind": "switch"}, {"id": "u1", "kind": "user_host"}],
            "links": [{"a": "u1", "b": "s1", "delay_ms": 0.0, "capacity_mbps": 100.0}],
            "user_switch": "s1",
        }))
        assert main([*command.split(), "--topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: feature set must contain at least one server\n")

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["table1"]) == 0
        first = len(built)
        assert main(["table1", "--requests", "3"]) == 0
        assert len(built) == first
        assert capsys.readouterr().out.startswith("k,1,2,")

    def test_serve_command_binds_and_answers(self):
        # drive the same server object the serve command uses
        server = make_server(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            put = requests.put(f"{base}/topology", json=build_paper_topology().document())
            assert put.status_code == 200
        finally:
            server.shutdown()
            server.server_close()


# text that JSON escapes: a quote, a backslash, control characters, non-ASCII
# and non-BMP text (a surrogate pair in \u escapes), and some of anything
ID_CHARS = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028éh1²①\U0001f600'), st.characters())
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, 1e16, 5e-324, 30.333333333333332, math.nan, math.inf, -math.inf]), st.floats()
)


@st.composite
def cluster_documents(draw) -> dict:
    """A document of `Plan.document`'s shape with drawn ids, k and floats."""
    ids = draw(st.lists(st.text(ID_CHARS, max_size=6), min_size=1, max_size=12))
    k = draw(st.integers(1, len(ids)))
    return {
        "method": draw(st.sampled_from(["kmeans", "spectral"])),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "k": k,
        "servers": [{"server_id": sid, "cluster": draw(st.integers(0, k - 1))} for sid in ids],
        "centroids": [
            {"cluster": c, "mean_hops": draw(FLOATS), "mean_delay_ms": draw(FLOATS), "size": draw(st.integers(0, 99))}
            for c in range(k)
        ],
        "priority_order": draw(st.permutations(range(k))),
        "sse": draw(FLOATS),
    }


class TestClusterWriter:
    """`sdnlb cluster` writes `json.dumps(document, indent=2)` byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(cluster_documents())
    def test_writer_equals_indented_json_dumps(self, document):
        assert _cluster_json(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize("case", golden.case_names())
    def test_writer_equals_indented_json_dumps_on_golden_plans(self, case):
        documents = plan_documents(golden._topology(case))
        assert documents or case == "no-server"
        for document in documents:
            assert _cluster_json(document) == json.dumps(document, indent=2)
