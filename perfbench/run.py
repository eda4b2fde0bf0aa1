"""Benchmark command for neumann-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick            # all workloads, toy sizes

Each workload runs in a fresh process (``child.py``) that imports the
package from ``src/`` of this checkout.  ``setup_s`` is measured from
process start to the first timed call, as the median over several
processes; ``run_s`` is the median wall time of one round of the
workload body with tracing off; ``peak_rss_mib`` is the workload
process's peak resident memory.  With ``--trace 1`` the same process
then runs traced rounds and reports the per-layer metrics instead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records and span traces go to
``perfbench/out/``.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify_default", "pinned_fine", "manufactured_ladder", "holder_rough")
SETUP_PROBES = 3        # extra set-up-only processes; the median spans probes + main
CHILD_TIMEOUT = 170.0   # seconds; a run must end within 180
# One BLAS thread unless the caller chose otherwise: the package is single
# threaded by default, and a second BLAS thread only adds contention noise.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(args, timeout):
    """Run child.py; returns (parsed last stdout line, spawn time)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    env = dict(os.environ)
    for var in BLAS_THREADS:
        env.setdefault(var, "1")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child timed out after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(args)}")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1]), spawned


def run_workload(name, seed, seconds, trace, quick=False, probes=SETUP_PROBES):
    """One benchmark run of one workload; returns (result, record)."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}_seed{seed}_trace{trace}{'_quick' if quick else ''}"
    workdir = os.path.join(OUT, f"work_{tag}_{os.getpid()}")
    base = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    if quick:
        base.append("--quick")
    setups = []
    try:
        for _ in range(0 if trace else probes):
            probe, spawned = _child(base + ["--setup-only"], 60.0)
            setups.append(probe["ready"] - spawned)
        main_args = base + ["--seconds", repr(float(seconds)), "--trace", str(trace)]
        if trace:
            main_args += ["--trace-file", os.path.join(OUT, f"trace_{tag}.json")]
        child, spawned = _child(main_args, CHILD_TIMEOUT)
        setups.append(child["ready"] - spawned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in child["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(child["run_s"]), "unit": "s"},
            "peak_rss_mib": {"value": child["peak_rss_mib"], "unit": "MiB"},
        }
    result = {"correct": not child["problems"], "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "quick": quick, "setup_s": setups, "round_s": child["run_s"],
              "round_cpu_s": child["cpu_s"], "traced_round_s": child.get("traced_run_s"),
              "unmeasured": child.get("unmeasured", []), "problems": child["problems"],
              "environment": child["environment"], "result": result}
    with open(os.path.join(OUT, f"result_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in child["problems"]:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    if child.get("unmeasured"):
        print(f"unmeasured layers [{name}]: {', '.join(child['unmeasured'])}",
              file=sys.stderr)
    return result, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="run every workload (or --workload) at toy sizes, "
                        "untraced and traced rounds, with every check")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    try:
        if not args.quick:
            result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            names = [args.workload] if args.workload else list(WORKLOADS)
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in names:
                part, record = run_workload(name, args.seed, 0.0, 1, quick=True, probes=0)
                print(f"{name}: " + json.dumps(part))
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"][f"{name}.run_s"] = {
                    "value": statistics.median(record["round_s"]), "unit": "s"}
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
