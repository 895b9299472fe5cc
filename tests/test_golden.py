"""Golden outputs: exit codes and sha256 of the bytes a panel of CLI cells
writes, and the integrals compute_integrals returns, against the committed
manifest tests/golden.json.

The cells are every suite of cli.SUITES on nine instances (the two
non-unital function algebras, five finite unital ones and two duals) over
QQ and F_5 at --samples 3 --seed 3, and the crossed-product dump of three
finite instances at the identity and at every pair they offer over either
field.  The integrals are phi's coefficients and t on eight finite unital
instances over QQ, F_2, F_3, F_5 and F_7, or the error that refuses one.
No report shows them, so a change that moves them would pass every other
byte-identity check.  After an intended change of outputs, rewrite the
manifest with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from ydcheck import cli
from ydcheck.fields import parse_field
from ydcheck.instances import build_instance, compute_integrals

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")

CELL_INSTANCES = ["fun-Z", "fun-Dinf", "grp-S3", "grp-Z2", "grp-Zn:4",
                  "sweedler-H4", "dual:sweedler-H4", "dual:grp-Z2",
                  "dual:grp-S3"]
DUMP_INSTANCES = ["grp-S3", "sweedler-H4", "dual:sweedler-H4"]
CELL_FIELDS = ["rational", "fp:5"]

INTEGRAL_INSTANCES = ["grp-S3", "grp-Z2", "grp-Zn:3", "grp-Zn:4",
                      "sweedler-H4", "dual:sweedler-H4", "dual:grp-Z2",
                      "dual:grp-S3"]
INTEGRAL_FIELDS = ["rational", "fp:2", "fp:3", "fp:5", "fp:7"]


def cells():
    """The argument lists of the panel, without --out."""
    for suite in cli.SUITES:
        for name in CELL_INSTANCES:
            for field in CELL_FIELDS:
                yield ["check", suite, "--instance", name, "--field", field,
                       "--samples", "3", "--seed", "3"]
    for name in DUMP_INSTANCES:
        offered = {spec: None for field in CELL_FIELDS for spec in
                   build_instance(name, parse_field(field)).pair_specs}
        for pair in ["identity", *offered]:
            for field in CELL_FIELDS:
                yield ["dump", "dcp", "--instance", name, "--pair", pair,
                       "--field", field]


def run_cell(argv, out):
    """Exit code and sha256 of the bytes written to out (None if none)."""
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + ["--out", out])
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    return {"exit": rc, "sha256": digest}


def integrals(name, field):
    """phi's coefficients and t as [repr(symbol), str(coefficient)] lists
    sorted by symbol, or the error that refuses the instance."""
    try:
        data = compute_integrals(build_instance(name, parse_field(field)))
    except Exception as exc:
        return {"refused": "%s: %s" % (type(exc).__name__, exc)}

    def listed(coeffs):
        return sorted([repr(s), str(c)] for s, c in coeffs.items() if c)
    return {"phi": listed(data.phi_coeffs), "t": listed(data.t.terms)}


def current():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        return {
            "cells": {" ".join(argv): run_cell(argv, out) for argv in cells()},
            "integrals": {"%s %s" % (name, field): integrals(name, field)
                          for name in INTEGRAL_INSTANCES
                          for field in INTEGRAL_FIELDS},
        }


def test_outputs_match_the_manifest():
    with open(MANIFEST) as f:
        want = json.load(f)
    got = current()
    assert len(got["cells"]) == 13 * 9 * 2 + 14
    assert list(got["cells"]) == list(want["cells"])
    for key, value in want["cells"].items():
        assert got["cells"][key] == value, key
    assert got["integrals"] == want["integrals"]
    refused = sorted(k for k, v in got["integrals"].items() if "refused" in v)
    assert refused == ["dual:sweedler-H4 fp:2", "sweedler-H4 fp:2"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    with open(MANIFEST, "w") as f:
        json.dump(current(), f, indent=1)
        f.write("\n")
