"""The library runs, byte for byte, under the benchmark's per-layer tracer
(perfbench/layertrace.py), and the tracer reads every metric it reports.

The tracer rebinds linear, bilinear, tensor, flip, apply_leg,
apply_pair_legs and Element.map_terms in every ydcheck module, reads the
.terms of their arguments and results and the `cache` cell of each
extension, and counts calls of named functions and methods.  A library
change that a traced run does not survive fails here: a renamed or deleted
name the tracer patches, a cell it reads, or a behaviour that changes
under its wrappers.  Nothing under perfbench/ is changed; the directory
is only put on sys.path."""

import contextlib
import io
import os
import sys

import pytest

import ydcheck.cli as cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layertrace  # noqa: E402

CELLS = [
    ["check", "centre-equivalence", "--instance", "fun-Z", "--samples", "1"],
    ["check", "t-category", "--instance", "grp-S3", "--field", "fp:5",
     "--samples", "2"],
    ["check", "hq-monoidal", "--instance", "sweedler-H4", "--field", "fp:5",
     "--samples", "1"],
    ["check", "double-correspondence", "--instance", "dual:sweedler-H4",
     "--samples", "1"],
    ["dump", "dcp", "--instance", "sweedler-H4", "--pair", "scale:2,3"],
]

# the worker measures these two itself, around the traced calls
NOT_TRACED = {"instances.build_s", "trace.overhead"}


def run(call, argv, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = call(cli.main, argv + ["--out", str(path)])
    return rc, out.getvalue().replace(str(path), "<out>"), path.read_bytes()


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(c[1:4]))
def test_a_cell_runs_the_same_under_the_tracer(cell, tmp_path):
    plain = run(lambda f, argv: f(argv), cell, tmp_path / "plain.json")
    assert plain[0] == 0, plain[1]

    tracer = layertrace.Tracer()
    try:
        traced = run(tracer.call, cell, tmp_path / "traced.json")
    finally:
        # a patch that fails half-way through install is undone here, so
        # it does not leak into later tests
        tracer.uninstall()
    assert traced == plain

    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _, _ in layertrace.PER_LAYER
                            } - NOT_TRACED
    assert metrics["linear.memo_lookups"] > 0
    assert metrics["linear.max_support"] > 0
