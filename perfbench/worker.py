"""Runs one workload in this (fresh, single-threaded) process and prints its
result as one JSON line.  Started by run.py; not meant to be run by hand.

    worker.py --workload W --setup-only
        import ydcheck, build the workload's objects, print the
        time.perf_counter() reading at which that finished
    worker.py --workload W --seed N --trace 0|1
        trace 0: the workload's fixed number of whole rounds of every cell
        (ROUNDS in workloads.py); each cell's time, in reference seconds
        (reference.py), is its median over the timed rounds
        trace 1: one untraced round, then one traced round

Rounds 0 and 1 pass --seed N, so that their reports can be compared byte
for byte; round 1 is not timed into the median, so that the run's own input
counts once.  Round r >= 2 passes the panel seed r - 1, the same in every
run.  A cell's cost depends much on its random samples (yd on dual:grp-S3 at
one sample takes 0.4 s to 5.7 s across seeds), so a median over inputs that
all change from run to run would move with the seed more than the bounds
allow; over a common panel plus the run's own input it moves less.  The
controls run once per run, at N.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from checks import (check_report, parse_table, check_dimension,  # noqa: E402
                    check_associative, check_unit, check_deterministic,
                    check_control)
from workloads import (WORKLOADS, BASE_DIM, ROUNDS, arg,  # noqa: E402
                       cell_name, instances)
from reference import REF_S, reference  # noqa: E402

ANTIPODE_CONTROL_SAMPLES = 100
YD_CONTROL_SAMPLES = 40


def setup(cells):
    """Import ydcheck and build every instance, fixture, automorphism pair
    and double the cells name.  Returns the instances by (name, field) and
    the wall time spent in build_instance."""
    from ydcheck import cli
    from ydcheck.fields import parse_field
    from ydcheck.instances import build_instance, qt_for_cyclic
    from ydcheck.yd import yd_fixtures
    from ydcheck.gyd import identity_pair, gyd_fixtures_at
    from ydcheck.double import DiagonalCrossedProduct, drinfeld_double
    from ydcheck.modalg import default_hq_fixtures

    built, build_s, objects = {}, 0.0, []
    for (name, fspec), uses in instances(cells).items():
        field = parse_field(fspec)
        t = time.perf_counter()
        mha = build_instance(name, field)
        build_s += time.perf_counter() - t
        built[(name, fspec)] = mha
        if {"yd", "centre-equivalence", "double-correspondence"} & set(uses):
            objects.append(yd_fixtures(mha))
        if {"gyd", "t-category"} & set(uses):
            for pair in [identity_pair(mha)] + cli._default_pairs(mha, name):
                objects.append(gyd_fixtures_at(mha, pair))
        if "hq-monoidal" in uses:
            objects.append(default_hq_fixtures(mha))
        if "qt-coaction" in uses:
            n = 2 if name == "grp-Z2" else int(name.split(":")[1])
            objects.append(qt_for_cyclic(n, field, mha=mha))
        for use in uses:
            if use in ("dcp", "double-correspondence"):
                objects.append(drinfeld_double(mha))
            elif use.startswith("dump:"):
                objects.append(DiagonalCrossedProduct(
                    mha, cli.parse_pair(mha, use[5:])))
    return built, build_s


def _antipode_control(mha, seed):
    from ydcheck.mha import check_mha_axioms
    bad = copy.copy(mha)
    two = mha.field.from_int(2)
    antipode = mha._antipode
    bad._antipode = lambda s: antipode(s).scaled(two)
    return check_control(
        check_mha_axioms(bad, ANTIPODE_CONTROL_SAMPLES, seed), "antipode")


def _yd_control(mha, seed):
    from ydcheck.modules import regular_module, coproduct_coaction
    from ydcheck.yd import YDModule, check_yd
    mod = regular_module(mha)
    bad = YDModule(mod, coproduct_coaction(mod), name="regular-bad")
    return check_control(check_yd(bad, YD_CONTROL_SAMPLES, seed), "yd-compat")


CONTROLS = (("antipode", _antipode_control), ("yd", _yd_control))


def run_control(control, mha, seed):
    """A corrupted copy of structure on mha must be caught by its designated
    law with a witness; returns the problem, or None."""
    try:
        return control(mha, seed)
    except Exception as exc:  # a crash is a failed operation, not a stop
        return "%s: %s" % (type(exc).__name__, exc)


def run_controls(ledger, built, seed):
    for (name, fspec), mha in built.items():
        for kind, control in CONTROLS:
            ledger.op("%s/%s %s control" % (name, fspec, kind),
                      run_control(control, mha, seed))


class Ledger:
    """Counts operations attempted and failed, keeping the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, what, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("%s: %s" % (what, problem))


def run_cell(cli_main, cell, seed, path, tracer=None):
    """One CLI call; returns (seconds, exit code or exception text, bytes
    written or None)."""
    argv = list(cell)
    if cell[0] == "check":
        argv += ["--seed", str(seed)]
    argv += ["--out", path]
    if os.path.exists(path):
        os.remove(path)
    sink = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call(cli_main, argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a stop
        rc = "%s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t
    raw = None
    if os.path.exists(path):
        with open(path, "rb") as f:
            raw = f.read()
    return dt, rc, raw


TABLE_CHECKS = ("dimension", "associativity", "unit")


def check_cell(ledger, cell, seed, rc, raw):
    name = cell_name(cell)
    if rc not in (0, 1) or raw is None:
        ledger.op(name + " call", "exit %r, output %s" %
                  (rc, "missing" if raw is None else "written"))
    else:
        ledger.op(name + " call", None)
    if cell[0] == "check":
        problem = ("no report" if raw is None
                   else check_report(raw, rc, cell, seed))
        ledger.op(name + " report", problem)
        return
    base = BASE_DIM[arg(cell, "--instance")]
    try:
        table, n = parse_table(raw)
    except (TypeError, ValueError, KeyError) as exc:
        for what in TABLE_CHECKS:
            ledger.op(name + " " + what, "unreadable table: %s" % exc)
        return
    ledger.op(name + " dimension", check_dimension(n, base))
    ledger.op(name + " associativity", check_associative(table, n))
    ledger.op(name + " unit", check_unit(table, n))


def round_seed(seed, r):
    return seed if r < 2 else r - 1


def run_round(ledger, cli_main, cells, seed, r, outdir, tracer=None):
    """Every cell once at round r's seed, with its output checks, and the
    reference timed before the first cell and after each one.  Returns
    per-cell seconds, each cell's seconds in reference seconds (over the
    mean of the references either side of it, times REF_S), and bytes
    written."""
    times, refs, raws = [], [reference()], []
    for cell in cells:
        path = os.path.join(outdir, cell_name(cell) + ".json")
        dt, rc, raw = run_cell(cli_main, cell, round_seed(seed, r), path,
                               tracer)
        refs.append(reference())
        check_cell(ledger, cell, round_seed(seed, r), rc, raw)
        times.append(dt)
        raws.append(raw)
    scaled = [REF_S * dt / ((a + b) / 2)
              for dt, a, b in zip(times, refs, refs[1:])]
    return times, scaled, raws


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ydcheck", "cli.py")):
        print("no ydcheck sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cells = WORKLOADS[args.workload]
    built, build_s = setup(cells)
    if args.setup_only:
        print(repr(time.perf_counter()))
        return 0

    from ydcheck import cli
    outdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    ledger = Ledger()
    rounds_t, rounds_raw = [], []
    result = {}

    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        plain, _, raws = run_round(ledger, cli.main, cells, args.seed, 0,
                                   outdir)
        traced, _, traced_raws = run_round(ledger, cli.main, cells,
                                           args.seed, 1, outdir, tracer)
        rounds_raw = [raws, traced_raws]
        layers = tracer.metrics()
        layers["instances.build_s"] = build_s
        layers["trace.overhead"] = sum(traced) / sum(plain)
        result["per_layer"] = layers
        result["untraced_verdict_s"] = sum(plain)
        result["traced_verdict_s"] = sum(traced)
    else:
        rounds_wall = []
        for r in range(ROUNDS[args.workload]):
            wall, scaled, raws = run_round(ledger, cli.main, cells,
                                           args.seed, r, outdir)
            rounds_wall.append(wall)
            rounds_t.append(scaled)
            rounds_raw.append(raws)

        def medians(rounds):
            timed = rounds[:1] + rounds[2:]
            return [statistics.median(ts) for ts in zip(*timed)]

        cell_s = medians(rounds_t)
        result["verdict_s"] = sum(cell_s)
        result["wall_verdict_s"] = sum(medians(rounds_wall))
        result["cell_s"] = {cell_name(c): t for c, t in zip(cells, cell_s)}

    for cell, outputs in zip(cells, zip(*rounds_raw[:2])):
        ledger.op(cell_name(cell) + " determinism",
                  check_deterministic(list(outputs)))
    run_controls(ledger, built, args.seed)
    result.update(
        rounds=len(rounds_raw), attempted=ledger.attempted,
        failed=ledger.failed, failures=ledger.reasons,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
