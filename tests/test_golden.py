"""Golden outputs: the committed manifest tests/golden.json is the panel of
CLI cells that the tests and tools/unreached.py walk, with what each cell
gave, and the integrals compute_integrals returns.

A cell's key is its argument list without --out; its value is its exit
code, the last line it wrote to stderr ("" when none: for a refused cell,
exit 2, the refusal) and the sha256 of the bytes it wrote to --out (None
when none).  The cells are every suite of cli.SUITES on nine instances (the
two non-unital function algebras, five finite unital ones and two duals)
over QQ and F_5 at --samples 3 --seed 3, and the crossed-product dump of
three finite instances at the identity and at every pair they offer over
either field.  A refused cell must be refused before any law is recorded,
and a report's law ids must be unique.  The cells run twice: with a fresh
instance per cell, and with one instance per (name, field) shared by every
cell, so no memo table leaks into a report.

The integrals are phi's coefficients and t on eight finite unital instances
over QQ, F_2, F_3, F_5 and F_7, or the error that refuses one.  No report
shows them, so a change that moves them would pass every other
byte-identity check.  After an intended change of outputs, or after adding
the key of a cell or of an integral to the manifest, rewrite its values
with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

from ydcheck import cli
from ydcheck.fields import parse_field
from ydcheck.instances import build_instance, compute_integrals
from ydcheck.report import Report

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")


def load():
    with open(MANIFEST) as f:
        return json.load(f)


def no_law(*args, **kwargs):
    raise AssertionError("a law was recorded on a refused cell")


def run_cell(argv, out, refused=False):
    """Run one cell in this process: its exit code, the last line it wrote
    to stderr and the sha256 of the bytes it wrote to out (None if none).
    On a refused cell, recording a law raises."""
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        if refused:
            for method in ("law_group", "add"):
                stack.enter_context(mock.patch.object(Report, method, no_law))
        rc = cli.main(argv + ["--out", out])
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as f:
            data = f.read()
        digest = hashlib.sha256(data).hexdigest()
        if argv[0] == "check":
            ids = [law["law"] for law in json.loads(data)["laws"]]
            assert ids and len(ids) == len(set(ids)), " ".join(argv)
    lines = err.getvalue().splitlines()
    return {"exit": rc, "stderr": lines[-1] if lines else "", "sha256": digest}


def run_cells(want):
    """Every cell of the manifest's cells want, run as its key says; a cell
    want records as refused runs with laws forbidden."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        return {key: run_cell(key.split(), out, value.get("exit") == 2)
                for key, value in want.items()}


def integrals(key):
    """phi's coefficients and t as [repr(symbol), str(coefficient)] lists
    sorted by symbol, or the error that refuses the instance, for the key
    "<instance> <field>"."""
    name, field = key.split()
    try:
        data = compute_integrals(build_instance(name, parse_field(field)))
    except Exception as exc:
        return {"refused": "%s: %s" % (type(exc).__name__, exc)}

    def listed(coeffs):
        return sorted([repr(s), str(c)] for s, c in coeffs.items() if c)
    return {"phi": listed(data.phi_coeffs), "t": listed(data.t.terms)}


def differing(want):
    """One line per cell whose outputs differ from the manifest's."""
    got = run_cells(want)
    return ["%s\n  want %s\n  got  %s" % (key, want[key], got[key])
            for key in want if got[key] != want[key]]


def test_outputs_match_the_manifest():
    want = load()
    assert len(want["cells"]) == 13 * 9 * 2 + 14
    assert {key.split()[1] for key in want["cells"]
            if key.startswith("check ")} == set(cli.SUITES)
    diff = differing(want["cells"])
    assert not diff, "%d cells differ:\n%s" % (len(diff), "\n".join(diff))
    assert {key: integrals(key) for key in want["integrals"]} == \
        want["integrals"]
    refused = sorted(k for k, v in want["integrals"].items() if "refused" in v)
    assert refused == ["dual:sweedler-H4 fp:2", "sweedler-H4 fp:2"]


def test_shared_instances_give_the_manifest_cells(monkeypatch):
    shared = functools.cache(
        lambda name, field_name: build_instance(name, parse_field(field_name)))
    monkeypatch.setattr(cli, "build_instance",
                        lambda name, field: shared(name, field.name))
    diff = differing(load()["cells"])
    assert not diff, "%d cells differ:\n%s" % (len(diff), "\n".join(diff))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    manifest = load()
    manifest = {"cells": run_cells(dict.fromkeys(manifest["cells"], {})),
                "integrals": {key: integrals(key)
                              for key in manifest["integrals"]}}
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
