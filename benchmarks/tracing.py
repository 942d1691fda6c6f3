"""In-memory span tracing around calls into the program's public functions.

A span is (id, name, start, end, parent, n): ``start`` and ``end`` come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from the server
process share the client's time line), ``parent`` is the id of the span open
on the same thread when this one began, and ``n`` is an optional count taken
from the call (Lloyd iterations, flows, dispatched requests, bytes).

Wrappers are installed on every ``sdnlb`` module namespace that holds the
original object, so a function imported by name (``sdnlb.cli.kmeans_cluster``,
``sdnlb.simulator.max_min_fair_rates``) is traced where it is looked up. A
target that no longer exists is reported as absent, not as a failure.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter


def _len_result(args, kwargs, result):
    return len(result)


def _lloyd_iterations(args, kwargs, result):
    return len(result.sse_trace)


def _flow_count(args, kwargs, result):
    return len(args[0] if args else kwargs["flows"])


# (span name, module, attribute path, count taken from the call)
TARGETS = (
    ("topology.load", "sdnlb.topology", "load_topology", None),
    ("topology.paths", "sdnlb.topology", "all_pairs_shortest_paths", None),
    ("topology.features", "sdnlb.topology", "server_features", None),
    ("topology.fingerprint", "sdnlb.topology", "Topology.fingerprint", None),
    ("clustering.kmeans", "sdnlb.clustering", "kmeans_cluster", _lloyd_iterations),
    ("clustering.spectral", "sdnlb.clustering", "spectral_cluster", None),
    ("clustering.eigensolve", "sdnlb.clustering", "sym_eigendecomposition", None),
    ("allocator.dispatch", "sdnlb.allocator", "dispatch_sequence", _len_result),
    ("simulator.solve", "sdnlb.simulator", "max_min_fair_rates", _flow_count),
    ("simulator.experiment", "sdnlb.simulator", "run_experiment", None),
    ("cli.main", "sdnlb.cli", "main", None),
    ("service.clusters_handler", "sdnlb.service", "LoadBalancerService.get_clusters", None),
    ("service.pools_handler", "sdnlb.service", "LoadBalancerService.get_pools", None),
    ("service.requests_handler", "sdnlb.service", "LoadBalancerService.post_requests", None),
    ("service.stats_handler", "sdnlb.service", "LoadBalancerService.get_stats", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        n = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                try:
                    n = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    n = None
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, n))

    def mark(self, name: str, n: float) -> None:
        """Record a count as a zero-length span under the open span."""
        stack = self._stack()
        t = perf_counter()
        self.spans.append((next(self._ids), name, t, t, stack[-1] if stack else None, n))

    def wrapped(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        wrapper.__traced__ = True
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap each target wherever an sdnlb module holds it."""
        for name, module_name, attr_path, count in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{attr_path}")
                continue
            owner = module
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original) or getattr(original, "__traced__", False):
                if original is None:
                    self.absent.append(f"{module_name}:{attr_path}")
                continue
            wrapper = self.wrapped(name, original, count)
            if owners:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and (mod_name == "sdnlb" or mod_name.startswith("sdnlb.")):
                    if vars(mod).get(attr) is original:
                        setattr(mod, attr, wrapper)

    def records(self) -> list[dict]:
        pid = os.getpid()
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "n": n, "pid": pid}
            for sid, name, start, end, parent, n in self.spans
        ]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.records(), "absent": self.absent}))


def aggregate(records: list[dict], start: float, end: float) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts, over
    the spans of one process that began within [start, end]. Self time is a
    span's duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + r["end"] - r["start"]
    out: dict[str, dict] = {}
    for r in records:
        if not start <= r["start"] <= end:
            continue
        entry = out.setdefault(r["name"], {"calls": 0, "total": 0.0, "self": 0.0, "n": 0.0})
        duration = r["end"] - r["start"]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child_time.get(r["id"], 0.0)
        entry["n"] += r["n"] or 0
    return out


def merge(*aggregates: dict[str, dict]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for agg in aggregates:
        for name, entry in agg.items():
            into = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "n": 0.0})
            for key in into:
                into[key] += entry[key]
    return out
