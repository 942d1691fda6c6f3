"""The Tier-1 workflow's checks beyond pytest and the golden corpus, one
subcommand per workflow step. Most run under `python -O`, so that no check
they make rests on an assert:

    python -O tests/ci_steps.py bad-documents
    python -O tests/ci_steps.py reference-loader
    python -O tests/ci_steps.py wire-bodies
    python -O tests/ci_steps.py kmeans-restarts
    python -O tests/ci_steps.py cluster-writer
    python -O tests/ci_steps.py fill-classes
    python tests/ci_steps.py paper-repro-digests <paper-repro output directory>

Each prints one summary line and exits nonzero, naming what failed, if a
check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bad_documents():
    """Each bad topology document still raises TopologyError naming its text."""
    from helpers import BAD_TOPOLOGY_DOCUMENTS
    from sdnlb.topology import TopologyError, load_topology

    bad = []
    for case, (document, names) in sorted(BAD_TOPOLOGY_DOCUMENTS.items()):
        try:
            load_topology(document)
            bad.append(f"{case}: loaded")
        except TopologyError as exc:
            if names not in str(exc):
                bad.append(f"{case}: {exc}")
    print(f"{len(BAD_TOPOLOGY_DOCUMENTS)} bad documents, {len(bad)} not refused by name")
    return "\n".join(bad) if bad else 0


def reference_loader():
    """On 3,000 mutated documents and on every generated document shuffled at
    seeds 0-9, load_topology loads what the reference loader loads or raises
    its message."""
    import time

    from hypothesis import HealthCheck, given, settings

    from helpers import load_outcome, reference_load_topology
    from sdnlb.topology import load_topology
    from test_input_contract import GENERATED_DOCUMENTS, _shuffled, mutated_documents

    bad, seen = [], []

    def check(name, document):
        seen.append(name)
        if load_outcome(load_topology, document) != load_outcome(reference_load_topology, document):
            bad.append(name)

    start = time.perf_counter()

    @settings(max_examples=3000, deadline=None, database=None, suppress_health_check=list(HealthCheck))
    @given(document=mutated_documents())
    def mutated(document):
        check(f"mutated {document!r:.200}", document)

    mutated()
    drawn = len(seen)
    for name, document in sorted(GENERATED_DOCUMENTS.items()):
        for seed in range(10):
            check(f"{name} shuffled at seed {seed}", _shuffled(document, seed))
    print(
        f"{drawn} mutated and {len(seen) - drawn} shuffled documents, {len(bad)} not loaded as the"
        f" reference loads them ({time.perf_counter() - start:.1f} s)"
    )
    return "\n".join(bad[:20]) if bad or drawn < 3000 else 0


def wire_bodies():
    """Each REST reply on the wire, stored bytes and large bodies included,
    is json.dumps of the in-process reply to the same calls."""
    import threading

    from helpers import in_process_reply, layered_topology, plan_calls, replay, star_document
    from sdnlb.service import LoadBalancerService, make_server

    server = make_server(port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = "http://%s:%d" % server.server_address
    bad, largest = [], 0
    try:
        for name, document in [("layered", layered_topology(4, 6, 14).document()), ("star", star_document(250))]:
            calls = plan_calls(document)
            service = LoadBalancerService()
            for call, wire in zip(calls, replay(base, calls)):
                expected = in_process_reply(service, *call)
                largest = max(largest, len(expected[1]))
                if wire != expected:
                    bad.append(f"{name}: {call[0]} {call[1]}: status {wire[0]}, expected {expected[0]}")
    finally:
        server.shutdown()
        server.server_close()
    print(f"largest body {largest} bytes, {len(bad)} wire replies differ")
    return "\n".join(bad) if bad or largest <= 8192 else 0


def kmeans_restarts():
    """On 2,000 seeded point sets, the batched k-means core matches the
    per-restart loop run by run, and picks the same winner."""
    import time

    import numpy as np

    from helpers import restarts_oracle
    from sdnlb.clustering import RESTARTS, ClusteringConfig, _best_of_restarts, _d2_seed, _lloyd
    from sdnlb.rng import SplitMix64

    rng = np.random.default_rng(2007)
    start = time.perf_counter()
    for case in range(2000):
        n, d = int(rng.integers(1, 181)), int(rng.integers(2, 17))
        if case % 3 == 0:
            points = rng.random((n, d)) * 10.0 ** int(rng.integers(0, 7))
        elif case % 3 == 1:
            points = rng.integers(0, 4, (n, d)).astype(float)
        else:  # duplicates: k can exceed the distinct points
            base = rng.random((int(rng.integers(1, 4)), d))
            points = base[rng.integers(0, len(base), n)]
        k = int(rng.integers(1, min(n, 10) + 1))
        config = ClusteringConfig(k=k, rng_seed=int(rng.integers(0, 2**64, dtype=np.uint64)))
        winner, expected = restarts_oracle(points, k, config)
        stream = SplitMix64(config.rng_seed)
        runs = _lloyd(points, _d2_seed(points, k, [stream.next_u64() for _ in range(RESTARTS)]))
        same = all(
            np.array_equal(a, a0) and s == s0 and t == t0 for (a, s, t), (a0, s0, t0) in zip(runs, expected)
        )
        best = _best_of_restarts(points, k, config)
        if not same or not (np.array_equal(best[0], expected[winner][0]) and best[1:] == expected[winner][1:]):
            return f"case {case}: n={n} d={d} k={k} seed={config.rng_seed}: batched core differs"
    print(f"2000 point sets: the batched core matches the per-restart loop ({time.perf_counter() - start:.1f} s)")
    return 0


def cluster_writer():
    """The `sdnlb cluster` writer gives json.dumps(document, indent=2) byte
    for byte on every plan of the golden cases and of the generated
    documents, k = 1..5, both methods."""
    import json

    import golden
    from helpers import plan_documents
    from sdnlb.cli import _cluster_json
    from sdnlb.topology import load_topology
    from test_input_contract import GENERATED_DOCUMENTS

    topologies = {f"golden {case}": golden._topology(case) for case in golden.case_names()}
    topologies.update({f"generated {name}": load_topology(doc) for name, doc in sorted(GENERATED_DOCUMENTS.items())})
    bad, checked = [], 0
    for name, topology in topologies.items():
        for document in plan_documents(topology):
            checked += 1
            if _cluster_json(document) != json.dumps(document, indent=2):
                bad.append(f"{name}: {document['method']} k={document['k']}")
    print(
        f"{checked} cluster documents from {len(topologies)} topologies,"
        f" {len(bad)} not written as json.dumps writes them"
    )
    return "\n".join(bad) if bad or not checked else 0


def fill_classes():
    """On 5,000 seeded class sets, the incremental fair-share solver gives
    the round-by-round oracle's rate bits, rounds and error text."""
    import random
    import time

    from helpers import fill_classes_oracle, fill_outcome, random_fill_instance
    from sdnlb.simulator import _fill_classes

    start, bad = time.perf_counter(), []
    for seed in range(5000):
        instance = random_fill_instance(random.Random(seed))
        if fill_outcome(_fill_classes, *instance) != fill_outcome(fill_classes_oracle, *instance):
            bad.append(f"seed {seed}: {instance!r:.300}")
    print(f"5000 class sets, {len(bad)} not solved as the oracle solves them ({time.perf_counter() - start:.1f} s)")
    return "\n".join(bad[:20]) if bad else 0


def paper_repro_digests(out_dir: str):
    """Each `sdnlb paper-repro` output in `out_dir` has its pinned sha256."""
    import hashlib

    from test_cli import PAPER_REPRO_SHA256

    out = Path(out_dir)
    bad = [n for n, d in PAPER_REPRO_SHA256.items() if hashlib.sha256((out / n).read_bytes()).hexdigest() != d]
    return f"digest mismatch: {bad}" if bad else 0


STEPS = {
    "bad-documents": bad_documents,
    "reference-loader": reference_loader,
    "wire-bodies": wire_bodies,
    "kmeans-restarts": kmeans_restarts,
    "cluster-writer": cluster_writer,
    "fill-classes": fill_classes,
    "paper-repro-digests": paper_repro_digests,
}


def main(argv: list[str]):
    step = STEPS.get(argv[0]) if argv else None
    if step is None:
        print(f"usage: python tests/ci_steps.py {{{','.join(STEPS)}}} [args]", file=sys.stderr)
        return 2
    return step(*argv[1:])


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    sys.exit(main(sys.argv[1:]))
