"""The library runs, byte for byte, when linear and bilinear are rebound to
attribute-less wrappers in every ydcheck module, as a per-layer tracer
(perfbench/layertrace.py) rebinds them.

So a caller may rely on nothing but the extension's behaviour: no attribute
hung on the function bilinear or linear returns.  A symbol read goes through
the Memo or Memo2 table the caller built and passed in, and the extension
keeps that same table under its closure name `cache`, where the tracer
counts memo misses."""

import contextlib
import io
import sys

import pytest

import ydcheck.cli as cli
from ydcheck import linear as lin

CELLS = [
    ["check", "centre-equivalence", "--instance", "fun-Z", "--samples", "2"],
    ["check", "module-algebra", "--instance", "fun-Z", "--samples", "2"],
    ["check", "t-category", "--instance", "grp-S3", "--field", "fp:5",
     "--samples", "2"],
    ["check", "hq-monoidal", "--instance", "grp-S3", "--field", "fp:5",
     "--samples", "2"],
    ["check", "double-correspondence", "--instance", "dual:sweedler-H4",
     "--samples", "1"],
    ["check", "centre-equivalence", "--instance", "dual:sweedler-H4",
     "--samples", "1"],
    ["dump", "dcp", "--instance", "dual:sweedler-H4"],
    ["dump", "dcp", "--instance", "sweedler-H4", "--pair", "scale:2,3"],
]


def run(argv, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--out", str(path)])
    return rc, out.getvalue().replace(str(path), "<out>"), path.read_bytes()


def wrap(factory, made):
    """factory's extensions behind plain functions with no attributes."""
    def wrapped(field, f):
        ext = factory(field, f)
        made.append(ext)
        return lambda *args: ext(*args)
    return wrapped


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(c[1:4]))
def test_a_cell_runs_the_same_under_wrapped_extensions(cell, monkeypatch,
                                                       tmp_path):
    plain = run(cell, tmp_path / "plain.json")
    assert plain[0] == 0, plain[1]

    made = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("ydcheck.")]
    rebound = 0
    for factory in (lin.bilinear, lin.linear):
        replacement = wrap(factory, made)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is factory:
                    monkeypatch.setattr(mod, name, replacement)
                    rebound += 1
    assert rebound >= 8  # linear itself, and every module that extends
    wrapped = run(cell, tmp_path / "wrapped.json")
    assert wrapped == plain
    assert made
    for ext in made:
        cell_var = ext.__closure__[ext.__code__.co_freevars.index("cache")]
        assert isinstance(cell_var.cell_contents, dict)
