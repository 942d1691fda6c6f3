"""A fixed reference computation that measures how fast the machine is now.

The 2-core host this benchmark was built on is shared: its speed swings by
up to 2x within seconds and between minutes, and CPU time swings with wall
time, so neither can be read as the program's cost. ``reference_seconds()``
times a fixed mix of the kinds of work the program does (Python dicts, heaps,
sorting and regular expressions, JSON, small numpy arrays and numpy scalars)
so that a time measured next to it can be rescaled to the speed at which one
pass takes ``NOMINAL_S``. Never change this code or ``NOMINAL_S``: the scale
of the plan and simulate workloads' timing metrics depends on them.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import re
from time import perf_counter

import numpy as np

NOMINAL_S = 0.012

_NODES = 60
_rng = random.Random(20190927)
_EDGES = [(a, b, 1.0 + _rng.random()) for a in range(_NODES) for b in range(a + 1, _NODES) if _rng.random() < 0.2]
_DOC = json.dumps({"links": [{"a": f"s{a}", "b": f"s{b}", "delay_ms": d} for a, b, d in _EDGES]})
_MATRIX = np.array([[_rng.random() for _ in range(12)] for _ in range(12)])


def _key(node_id: str) -> tuple:
    return tuple((0, int(p)) if p.isdigit() else (1, p) for p in re.split(r"(\d+)", node_id) if p)


def _work() -> float:
    links = json.loads(_DOC)["links"]
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for link in sorted(links, key=lambda l: (_key(l["a"]), _key(l["b"]))):
        adjacency.setdefault(link["a"], []).append((link["b"], link["delay_ms"]))
        adjacency.setdefault(link["b"], []).append((link["a"], link["delay_ms"]))
    best = {"s0": 0.0}
    heap = [(0.0, "s0")]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > best[node]:
            continue
        for nxt, d in adjacency[node]:
            if nxt not in best or dist + d < best[nxt]:
                best[nxt] = dist + d
                heapq.heappush(heap, (dist + d, nxt))
    m = _MATRIX.copy()
    for p in range(11):
        for q in range(p + 1, 12):
            c = m[p, q] / (1.0 + abs(m[q, q] - m[p, p]))
            m[:, p], m[:, q] = m[:, p] - c * m[:, q], m[:, q] + c * m[:, p]
    return sum(best.values()) + float(m.sum())


def reference_seconds() -> float:
    """Seconds one pass takes now: three runs of the fixed work after one
    untimed run, with the garbage collector off (as ``timeit`` does), so
    that the program's heap and cache footprint barely touch it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = perf_counter()
        for _ in range(3):
            _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
