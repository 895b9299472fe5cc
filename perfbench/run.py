"""ydcheck benchmark: time to a verdict on three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh
process (worker.py), one after another; this process imports no ydcheck
code.  With --trace 0 it prints the end-to-end metrics (times in reference
seconds, see reference.py), with --trace 1 the per-layer metrics of a
traced run.  A run makes a fixed number of rounds (ROUNDS in
workloads.py); `--seconds S` is accepted, as the common benchmark command
line passes it, and changes nothing.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  It exits 1, printing no result, if a workload cannot be run.
See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import REF_S, reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("multiplier-qq", "finite-fp", "dual-cliff")

# fresh interpreters timed per run for setup_s, half before and half after
# the timed worker, so that their median spans the run's machine load
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150
# the work done may depend on the iteration order of hashed str symbols; a
# fixed hash seed keeps it the same from process to process (set
# PYTHONHASHSEED to run under another)
HASH_SEED = os.environ.get("PYTHONHASHSEED", "0")

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _run(cmd, timeout):
    """Run cmd to its end (killing it on timeout); return its last stdout
    line."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (" ".join(cmd[1:]),
                                                      timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with code %d" % (" ".join(cmd[1:]),
                                                     proc.returncode))
    return lines[-1]


def setup_probes(workload, count):
    """Times from a fresh interpreter's start until ydcheck is imported and
    the workload's objects are built, in reference seconds (over the mean
    of the references timed just before and just after, times REF_S)."""
    times = []
    for _ in range(count):
        before = reference()
        t0 = time.perf_counter()
        ready = float(_run([sys.executable, WORKER, "--workload", workload,
                            "--setup-only"], PROBE_TIMEOUT_S))
        dt = ready - t0
        times.append(REF_S * dt / ((before + reference()) / 2))
    return times


def run_workload(workload, seed, trace):
    probes = [] if trace else setup_probes(workload, SETUP_PROBES // 2)
    last = _run([sys.executable, WORKER, "--workload", workload,
                 "--seed", str(seed), "--trace", str(trace)],
                WORKER_TIMEOUT_S)
    try:
        out = json.loads(last)
    except ValueError:
        raise BenchError("%s worker printed no result" % workload)
    if not trace:
        probes += setup_probes(workload, SETUP_PROBES - len(probes))
    for reason in out["failures"]:
        print("%s: FAILED %s" % (workload, reason), file=sys.stderr)
    if trace:
        from layertrace import PER_LAYER
        metrics = {name: {"value": out["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        note = ("untraced %.3f s, traced %.3f s"
                % (out["untraced_verdict_s"], out["traced_verdict_s"]))
    else:
        values = {"verdict_s": out["verdict_s"],
                  "setup_s": statistics.median(probes),
                  "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        note = "%d rounds, %.3f s of wall time" % (out["rounds"],
                                                   out["wall_verdict_s"])
    print("%s: %d operations attempted, %d failed (%s)"
          % (workload, out["attempted"], out["failed"], note))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for cell, t in out.get("cell_s", {}).items():
        print("    %-56s %9.4f s" % (cell, t))
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    # accepted and ignored: the work of a run is fixed, not timed
    p.add_argument("--seconds", type=int, help=argparse.SUPPRESS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.trace)
                   for w in names}
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (w, name): m
                             for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
