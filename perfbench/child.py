"""One workload process: set up, time rounds, optionally trace, check.

Started by ``run.py``; prints one JSON object as its last stdout line.
Set-up ends (and ``ready`` is stamped with the system-wide monotonic
clock) just before the first timed call, so the parent can measure from
process start.  Peak RSS is read before the checks run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import neumann_lab  # noqa: E402
from tracing import MODULE_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Measure the checkout's own sources, never an installed copy.
if os.path.dirname(os.path.dirname(os.path.abspath(neumann_lab.__file__))) != SRC:
    sys.exit(f"neumann_lab imported from {neumann_lab.__file__}, not from {SRC}")


def timed_rounds(wl, inputs, seconds, min_rounds, first_index, tracer=None):
    """Run whole rounds until ``seconds`` have passed (at least ``min_rounds``)."""
    rounds, wall, cpu = [], [], []
    end = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < end:
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = wl.body(inputs, first_index + len(rounds), tracer)
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        rounds.append(result)
    return rounds, wall, cpu


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "neumann_lab": getattr(neumann_lab, "__version__", "unknown"),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "NEUMANN_LAB_THREADS": os.environ.get("NEUMANN_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# Timed layers reported with a call count, and the layer each counter
# belongs to (for marking it unmeasured).
WITH_CALLS = ("domain.build_mesh", "domain.distance", "field.assemble", "field.gradient",
              "solver.factor", "solver.solve.direct", "solver.solve.regularized",
              "solver.solve.pinned", "solver.solve.fredholm", "norms.kernel")
COUNTERS = {"domain.distance.pairs": "domain.distance", "expr.eval.nodes": "expr.eval",
            "field.operator.hits": "field.assemble", "solver.lu_fill_nnz": "solver.factor",
            "solver.krylov.iterations": "solver.solve.fredholm",
            "norms.pairs_scanned": "norms.kernel", "norms.pairs_total": "norms.kernel"}


def layer_metrics(tracer, wl, traced_rounds, traced_wall, untraced_wall, untraced_cpu):
    """Per-round per-layer figures from the traced rounds: {name: (value, unit)}."""
    n = len(traced_rounds)
    self_s = tracer.self_times()
    m = {}

    def put(name, value, unit, layer):
        m[name] = (None if layer in tracer.unmeasured else value, unit)

    for layer in WITH_CALLS:
        put(f"{layer}.s", self_s[layer] / n, "s", layer)
        put(f"{layer}.calls", tracer.calls[layer] / n, "count", layer)
    put("expr.eval.s", self_s["expr.eval"] / n, "s", "expr.eval")
    for layer in ("norms.bundle", "verify", "cli"):
        put(f"{layer}.self_s", self_s[layer] / n, "s", layer)
    for name, layer in COUNTERS.items():
        put(name, tracer.counters[name] / n, "count", layer)
    scanned, total = tracer.counters["norms.pairs_scanned"], tracer.counters["norms.pairs_total"]
    put("norms.pairs_scanned_share", scanned / total if total else 0.0, "ratio",
        "norms.kernel")
    put("cli.report_bytes", wl.report_bytes(traced_rounds), "B", "cli")
    put("process.cpu_s", statistics.median(untraced_cpu), "s", "process")
    put("trace.overhead_s", statistics.median(traced_wall) - statistics.median(untraced_wall),
        "s", "trace")
    covered = sum(self_s[layer] for layer in MODULE_LAYERS)
    put("trace.module_share", covered / sum(traced_wall), "ratio", "trace")
    return m


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.quick, args.workdir)
    inputs = wl.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, wall, cpu = timed_rounds(wl, inputs, seconds, wl.min_rounds, 0)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"ready": ready, "run_s": wall, "cpu_s": cpu, "peak_rss_mib": peak_mib,
              "environment": environment()}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t_rounds, t_wall, _ = timed_rounds(wl, inputs, seconds, 1, len(rounds), tracer)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer, wl, t_rounds, t_wall, wall, cpu)
        result["unmeasured"] = sorted(tracer.unmeasured)
        result["traced_run_s"] = t_wall
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({"workload": wl.name, "seed": args.seed,
                           "spans": tracer.dump()}, fh)
        rounds += t_rounds
    result["attempted"] = sum(len(outputs) for outputs, _ in rounds)
    result["failed"] = sum(failed for _, failed in rounds)
    result["problems"] = wl.check(inputs, rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
