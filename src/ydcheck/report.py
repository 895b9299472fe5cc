"""Law-check reports and deterministic JSON rendering.

A Report is one seeded run of one suite on one subject (an instance, a
module, a crossed product, ...): Report(suite, subject, seed, samples) reads
the subject's name and field, and owns the run's one seeded stream,
rep.rng = random.Random(seed).  Witnesses are rendered as canonical
coefficient/basis-label text so a failing law is reproducible by eye.  The
JSON contains no timestamps: identical configs must produce byte-identical
files.

A sampled law is a check, check(*variables) -> None when the law holds on
those variables or a witness string when it does not, run over an iterable
of variable tuples: rep.draws(*carriers) for seeded samples, zip(xs) or
itertools.product(...) for exhaustive ones.  Report.law records one law and
Report.law_group several on shared tuples.  The first witness is recorded
and ends the law's stream, so no later tuple is drawn.  The draws are lazy
and made from rep.rng in a fixed order, so a witness replays from the
report's seed alone.

A law that is an equation is built by equal(lhs, rhs[, lhs2, rhs2, ...]):
each side is a function of the law's variables, the equations are tried in
order, and the first that fails renders the one witness format,

    [equation k ; ]a=<a> ; b=<b> ; lhs = <lhs> ; rhs = <rhs>

with the variables named by the first side's parameters; Report.check
records a law on two computed sides in the same format, with no variables.
A value that both sides (or several laws of a group) read is derived once
per tuple in the stream, ((a, b, tensor(a, b)) for a, b in
rep.draws(alg, alg)), and is then one more named variable.  Only laws that
are not equations keep a hand-written check and its text: probe scans, an
implication, a second stream read with next(), factorization certificates
and a table scan.
"""

import json
import random


SCHEMA_VERSION = 2  # 2: law ids are unique within a report


def show(names, variables, lhs, rhs):
    """The witness of a failed equation: each variable as name=<value>,
    then both sides."""
    return " ; ".join(["%s=%r" % (n, v) for n, v in zip(names, variables)]
                      + ["lhs = %r" % (lhs,), "rhs = %r" % (rhs,)])


def equal(*sides):
    """The check of a law that is one or more equations, given as sides
    lhs, rhs, lhs2, rhs2, ... over the law's variables: check(*variables)
    evaluates the equations in order and, at the first whose sides differ,
    returns its witness (show, prefixed "equation k ; " when there are
    several), evaluating no later side; None when every equation holds.
    The witness names the variables by the first side's parameters, so
    that side is a lambda or def over them, not a bound method."""
    if not sides or len(sides) % 2:
        raise ValueError("equal takes sides in lhs, rhs pairs")
    code = sides[0].__code__
    names = code.co_varnames[:code.co_argcount]
    pairs = list(zip(sides[::2], sides[1::2]))
    tag = len(pairs) > 1

    def check(*variables):
        for k, (lhs, rhs) in enumerate(pairs, 1):
            left, right = lhs(*variables), rhs(*variables)
            if left != right:
                wit = show(names, variables, left, right)
                return "equation %d ; %s" % (k, wit) if tag else wit
    return check


class LawResult:
    """One law's outcome: its stable id (e.g. "antipode-left"), the
    human-readable form of the law, and its first witness (a string, or
    None when the law held)."""

    __slots__ = ("law", "statement", "witness")

    def __init__(self, law, statement, witness=None):
        self.law = law
        self.statement = statement
        self.witness = witness

    @property
    def ok(self):
        return self.witness is None

    def as_dict(self):
        d = {"law": self.law, "statement": self.statement, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class Report:
    """The laws checked in one seeded run of a suite on a subject (anything
    with a name and a field), in the order they were recorded."""

    def __init__(self, suite, subject, seed, samples):
        self.suite = suite
        self.instance = subject.name
        self.field_name = subject.field.name
        self.seed = seed
        self.samples = samples
        self.rng = random.Random(seed)
        self.laws = []
        self._ids = set()

    def add(self, law, statement, witness=None):
        """Record a law that held (witness None) or failed with witness."""
        if law in self._ids:
            raise ValueError("duplicate law id %r in a %s report"
                             % (law, self.suite))
        self._ids.add(law)
        self.laws.append(LawResult(law, statement, witness))

    def draws(self, *carriers, n=None):
        """mha.draws from this run's stream: n tuples of variables, one per
        carrier (self.samples tuples when n is None; n=0 gives none)."""
        from .mha import draws  # here, since mha imports this module
        return draws(self.rng, self.samples if n is None else n, *carriers)

    def law(self, law, statement, check, samples):
        """Record one sampled law: law_group with one law."""
        self.law_group([(law, statement, check)], samples)

    def law_group(self, laws, samples):
        """Record several laws checked on shared samples.  laws lists
        (law, statement, check); each variable tuple drawn from samples is
        passed as check(*sample) -> None or a witness to every law, in
        order, that has not failed yet.  Each law keeps its first witness,
        and the stream ends once every law has failed."""
        wits = [None] * len(laws)
        for sample in samples:
            for i, (_, _, check) in enumerate(laws):
                if wits[i] is None:
                    wits[i] = check(*sample)
            if None not in wits:
                break
        for (law, statement, _), wit in zip(laws, wits):
            self.add(law, statement, wit)

    def merge(self, sub, tag):
        """Fold a sub-report's laws into this one, in order, with their ids
        tagged as law[tag]."""
        for r in sub.laws:
            self.add("%s[%s]" % (r.law, tag), r.statement, r.witness)

    def check(self, law, statement, lhs, rhs):
        """Record an exact-equality law; on failure render both sides."""
        self.add(law, statement, None if lhs == rhs else show((), (), lhs, rhs))

    @property
    def ok(self):
        return all(r.ok for r in self.laws)

    def failures(self):
        return [r for r in self.laws if not r.ok]

    def as_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "instance": self.instance,
            "field": self.field_name,
            "seed": self.seed,
            "samples": self.samples,
            "ok": self.ok,
            "laws": [r.as_dict() for r in self.laws],
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def summary(self):
        lines = []
        for r in self.laws:
            lines.append("%-4s %s" % ("ok" if r.ok else "FAIL", r.law))
            if r.witness:
                lines.append("     witness: %s" % r.witness)
        return "\n".join(lines)
