"""Benchmark of the sdnlb planning pipeline, simulator and REST service.

    python3 benchmarks/run.py --workload plan|simulate|service --seed N \
        --seconds S --trace 0|1

Runs one workload against the program in ``src/`` of the checkout this file
sits in, checks every op's outputs against the benchmark's own oracles, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run measures half its seconds untraced and half
traced, and the metrics are the per-layer ones plus the tracing overhead. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from oracles import CheckFailed
from tracing import Tracer, aggregate, merge
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 15
MIN_OPS = 100
HARD_LIMIT_S = 70.0  # per measured phase, so a slow machine still ends in time


def _load_program():
    """Import sdnlb from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sdnlb" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'sdnlb'}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import sdnlb

    if Path(sdnlb.__file__).resolve().parent != (src / "sdnlb").resolve():
        raise SystemExit(f"error: imported sdnlb from {sdnlb.__file__}, not from {src}")


class Phase:
    """One measured stretch of back-to-back ops. Each op is bracketed by
    reference passes; ``refs`` holds the mean of the two around each op,
    and ``nominal`` is a pass at the reference speed."""

    def __init__(self, nominal: float):
        self.nominal = nominal
        self.durations: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.start = self.end = 0.0

    def ms(self) -> list[float]:
        """Op durations in ms at the reference speed."""
        return [1000.0 * d * self.nominal / r for d, r in zip(self.durations, self.refs)]

    def ops_per_s(self) -> float:
        return 1000.0 * len(self.durations) / sum(self.ms())

    def speed(self) -> float:
        """How much slower than the reference speed the phase ran."""
        return statistics.median(self.refs) / self.nominal


def _one_op(workload, tracer, phase: Phase) -> float | None:
    """Run, time and check one op; returns its seconds, or None if it failed."""
    inputs = workload.prepare()
    phase.attempted += 1
    t0 = perf_counter()
    try:
        if tracer is None:
            outputs = workload.op(inputs)
        else:
            outputs = tracer.call("op", workload.op, (inputs,))
    except Exception:  # the benchmark keeps running and counts the failure
        if phase.failed == 0:
            traceback.print_exc(file=sys.stderr)
        phase.failed += 1
        return None
    elapsed = perf_counter() - t0
    try:
        workload.check(inputs, outputs)
    except CheckFailed as exc:
        if not phase.wrong:
            print(f"check failed: {exc}", file=sys.stderr)
        phase.wrong.append(str(exc))
    return elapsed


def measure(workload, seconds: float, tracer=None) -> Phase:
    """One untimed warm-up op, then timed ops for ``seconds`` and at least
    MIN_OPS of them (up to HARD_LIMIT_S). The warm-up counts in attempted,
    failed and correct."""
    phase = Phase(workload.NOMINAL_S)
    _one_op(workload, tracer, phase)
    ref_before = workload.reference()
    phase.start = perf_counter()
    while True:
        elapsed = _one_op(workload, tracer, phase)
        ref_after = workload.reference()
        if elapsed is not None:
            phase.durations.append(elapsed)
            phase.refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        so_far = perf_counter() - phase.start
        if so_far >= HARD_LIMIT_S or (so_far >= seconds and len(phase.durations) >= MIN_OPS):
            break
    phase.end = perf_counter()
    if len(phase.durations) < 2:
        raise SystemExit(f"error: only {len(phase.durations)} of {phase.attempted} ops completed")
    return phase


def setup_seconds(workload, samples: int) -> tuple[float, float]:
    """Median set-up seconds over fresh-process samples, at the reference
    speed and as measured. The median of all reference passes taken between
    the samples rescales the median sample: a single pass next to a process
    start is too noisy to rescale one sample by."""
    raw, refs = [], [workload.reference()]
    for _ in range(samples):
        raw.append(workload.setup_sample())
        refs.append(workload.reference())
    seconds = statistics.median(raw)
    return seconds * workload.NOMINAL_S / statistics.median(refs), seconds


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    ms = sorted(phase.ms())
    return {
        "ops_per_s": {"value": phase.ops_per_s(), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def _print_raw(phase: Phase, setup_raw: float) -> None:
    ms = sorted(d * 1000.0 for d in phase.durations)
    print(f"# as measured: {len(ms) / sum(phase.durations):.4f} ops/s, p50 {statistics.median(ms):.3f} ms, "
          f"p90 {statistics.quantiles(ms, n=10)[8]:.3f} ms, setup {setup_raw:.4f} s; "
          f"{len(ms)} timed ops; reference pass {statistics.median(phase.refs) * 1000:.3f} ms "
          f"({phase.speed():.3f}x the nominal {phase.nominal * 1000:.1f} ms)")


# metric -> (span name, statistic, unit); ms statistics are per timed op
PER_LAYER = {
    "topology.load_ms": ("topology.load", "self", "ms"),
    "topology.paths_ms": ("topology.paths", "self", "ms"),
    "topology.paths_calls": ("topology.paths", "calls", "count"),
    "topology.features_ms": ("topology.features", "self", "ms"),
    "topology.fingerprint_ms": ("topology.fingerprint", "self", "ms"),
    "topology.fingerprint_calls": ("topology.fingerprint", "calls", "count"),
    "clustering.kmeans_ms": ("clustering.kmeans", "self", "ms"),
    "clustering.lloyd_iterations": ("clustering.kmeans", "n", "count"),
    "clustering.spectral_ms": ("clustering.spectral", "self", "ms"),
    "clustering.eigensolve_ms": ("clustering.eigensolve", "self", "ms"),
    "allocator.dispatch_ms": ("allocator.dispatch", "self", "ms"),
    "allocator.dispatched": ("allocator.dispatch", "n", "count"),
    "simulator.solve_ms": ("simulator.solve", "self", "ms"),
    "simulator.flows": ("simulator.solve", "n", "count"),
    "simulator.experiment_self_ms": ("simulator.experiment", "self", "ms"),
    **{
        f"service.{ep}_{kind}_ms": (f"service.{ep}_{kind}", "total", "ms")
        for ep in ("clusters", "pools", "requests", "stats")
        for kind in ("rtt", "handler")
    },
    "service.response_bytes": ("service.response", "n", "bytes"),
    "cli.cluster_self_ms": ("cli.main", "self", "ms"),
    "cli.output_bytes": ("cli.output", "n", "bytes"),
}


def per_layer(loop: dict, ops: int, setup: dict, overhead: float, speed: float) -> dict:
    """Per-op values of the traced phase; times are rescaled to the reference
    speed by the phase's median reference pass (``speed``)."""
    metrics = {}
    for name, (span, stat, unit) in PER_LAYER.items():
        value = loop.get(span, {}).get(stat, 0) / ops
        metrics[name] = {"value": value * 1000.0 / speed if unit == "ms" else value, "unit": unit}
    metrics["setup.topology.load_ms"] = {
        "value": setup.get("topology.load", {}).get("self", 0.0) * 1000.0 / speed, "unit": "ms",
    }
    metrics["trace.overhead_ops_per_s"] = {"value": overhead, "unit": "ops/s"}
    return metrics


def _print_layers(workload: str, metrics: dict, untraced: Phase, traced: Phase) -> None:
    print(f"# {workload}: untraced {untraced.ops_per_s():.3f} ops/s ({len(untraced.durations)} ops), "
          f"traced {traced.ops_per_s():.3f} ops/s ({len(traced.durations)} ops), at the reference speed")
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:14.4f} {m['unit']}")


def run(args) -> dict:
    _load_program()
    work = ROOT / ".bench_out"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, work)
    try:
        if not args.trace:
            setup_s, setup_raw = setup_seconds(workload, SETUP_SAMPLES)
            workload.setup()
            phase = measure(workload, args.seconds)
            metrics = end_to_end(phase, setup_s, workload.peak_rss_mb())
            _print_raw(phase, setup_raw)
            phases = [phase]
        else:
            workload.setup()
            untraced = measure(workload, args.seconds / 2)
            tracer = Tracer()
            setup_start = perf_counter()
            workload.setup(tracer)
            setup_end = perf_counter()
            traced = measure(workload, args.seconds / 2, tracer)
            records, absent = tracer.records(), tracer.absent
            aggregates = [aggregate(records, traced.start, traced.end)]
            setup_aggregates = [aggregate(records, setup_start, setup_end)]
            if hasattr(workload, "server_records"):
                server, absent = workload.server_records()
                records += server
                aggregates.append(aggregate(server, traced.start, traced.end))
                setup_aggregates.append(aggregate(server, setup_start, setup_end))
            for target in absent:
                print(f"# absent: {target}", file=sys.stderr)
            trace_file = work / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": records}))
            metrics = per_layer(
                merge(*aggregates), len(traced.durations), merge(*setup_aggregates),
                traced.ops_per_s() - untraced.ops_per_s(), traced.speed(),
            )
            _print_layers(args.workload, metrics, untraced, traced)
            phases = [untraced, traced]
    finally:
        workload.close()
    wrong = [w for p in phases for w in p.wrong]
    return {
        "correct": not wrong,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the servers it started (see run's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
