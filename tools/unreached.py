"""Count the function-body statements of src/ydcheck that no CLI cell runs.

    PYTHONPATH=src python tools/unreached.py [--at-most N] [--list]

The panel is every suite of ydcheck.cli.SUITES on every instance in
INSTANCES over QQ and F_5 at --samples 1, every crossed-product dump of a
finite unital one among them (at the identity and at each pair its
pair_specs offer over QQ) and both list commands, each run in this process
through ydcheck.cli.main.  Cells the CLI rejects (exit 2)
run too: their applicability checks are code the CLI reaches.

A statement counts when it lies in a function body and has code of its
own: the lines of a simple statement, or of a compound statement's header
(an if's test, a for's target and iterable, a def's decorators and
signature), carry bytecode.  It is reached when a line event of
sys.settrace fires on one of those lines.  raise statements and docstrings
are left out.  With --at-most N the exit status is 1 when more than N
statements are unreached; --list prints each as path:line: source.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile

INSTANCES = ["fun-Z", "fun-Dinf", "grp-S3", "grp-Z2", "grp-Zn:4",
             "sweedler-H4", "dual:sweedler-H4", "dual:grp-Z2", "dual:grp-S3"]
FIELDS = ["rational", "fp:5"]


def cells(out):
    """The panel's argument lists.  The dump pairs are read off instances
    built after every check cell has run, outside the traced calls."""
    from ydcheck.cli import SUITES
    from ydcheck.fields import QQ
    from ydcheck.instances import build_instance

    yield ["list", "suites"]
    yield ["list", "instances"]
    for name in INSTANCES:
        for field in FIELDS:
            for suite in SUITES:
                yield ["check", suite, "--instance", name, "--field", field,
                       "--samples", "1", "--out", out]
    for name in INSTANCES:
        mha = build_instance(name, QQ)
        if mha.algebra.basis is None or not mha.algebra.has_unit:
            continue
        for pair in ["identity", *mha.pair_specs]:
            yield ["dump", "dcp", "--instance", name, "--pair", pair,
                   "--out", out]


def _code_lines(code):
    """Every line that carries bytecode in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header(stmt):
    """The lines of stmt that are its own: all of a simple statement, the
    part of a compound one before its body."""
    first = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _body_statements(body):
    """The statements of a function body, nested blocks included, but not
    the bodies of nested functions and classes (each def is visited
    itself), leaving out raise statements."""
    for stmt in body:
        if isinstance(stmt, ast.Raise):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _body_statements(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _body_statements(handler.body)


def statements(path):
    """(first line, header lines) of each counted statement in path."""
    with open(path) as f:
        source = f.read()
    tree = ast.parse(source, path)
    code_lines = _code_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        for stmt in _body_statements(body):
            header = code_lines.intersection(_header(stmt))
            if header:
                out.append((stmt.lineno, header))
    return out


class LineTracer:
    """Records the lines run in the files it watches; a code object stops
    being traced once every line of it has run."""

    def __init__(self, files):
        self.files = set(files)
        self.seen = {f: set() for f in self.files}
        self.todo = {}  # code -> its lines not yet run
        self.done = set()

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if code in self.done or code.co_filename not in self.files:
            return None
        todo = self.todo.get(code)
        if todo is None:
            todo = self.todo[code] = {
                line for _, _, line in code.co_lines() if line is not None}
        seen = self.seen[code.co_filename]

        def local_trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                todo.discard(line)
                if not todo:
                    self.done.add(code)
                    return None
            return local_trace
        return local_trace


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--at-most", type=int)
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    import ydcheck
    import ydcheck.cli as cli
    pkg = os.path.dirname(os.path.abspath(ydcheck.__file__))
    files = sorted(os.path.join(pkg, f) for f in os.listdir(pkg)
                   if f.endswith(".py"))
    tracer = LineTracer(files)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        for argv in cells(out):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(tracer.global_trace)
                try:
                    cli.main(argv)
                finally:
                    sys.settrace(None)

    unreached = []
    for path in files:
        seen = tracer.seen[path]
        with open(path) as f:
            lines = f.read().splitlines()
        for first, header in statements(path):
            if not seen & header:
                unreached.append("%s:%d: %s" % (
                    os.path.relpath(path), first, lines[first - 1].strip()))
    if args.list:
        print("\n".join(unreached))
    print("unreached function-body statements in %s: %d"
          % (os.path.relpath(pkg), len(unreached)))
    if args.at_most is not None and len(unreached) > args.at_most:
        print("more than %d: reach the new code from a CLI cell or remove it"
              % args.at_most)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
