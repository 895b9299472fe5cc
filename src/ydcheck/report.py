"""Law-check reports and deterministic JSON rendering.

A Report aggregates per-law results for one (suite, instance, config) run.
Witnesses are rendered as canonical coefficient/basis-label text so a failing
law is reproducible by eye.  The JSON contains no timestamps: identical
configs must produce byte-identical files.

A sampled law is a check, check(*variables) -> None when the law holds on
those variables or a witness string when it does not, run over an iterable
of variable tuples: mha.draws(rng, n, *carriers) for seeded samples, zip(xs)
or itertools.product(...) for exhaustive ones.  Report.law records one law
and Report.law_group several on shared tuples.  The first witness is
recorded and ends the law's stream, so no later tuple is drawn.  The draws
are lazy and made in a fixed order, so a witness replays from the seed
alone.
"""

import json


SCHEMA_VERSION = 2  # 2: law ids are unique within a report


class LawResult:
    """One law's outcome: its stable id (e.g. "antipode-left"), the
    human-readable form of the law, whether it held, and the first witness
    (a string, or None when it held)."""

    __slots__ = ("law", "statement", "ok", "witness")

    def __init__(self, law, statement, ok, witness=None):
        self.law = law
        self.statement = statement
        self.ok = ok
        self.witness = witness

    def as_dict(self):
        d = {"law": self.law, "statement": self.statement, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class Report:
    """The laws checked in one (suite, instance, field, seed, samples) run,
    in the order they were recorded."""

    def __init__(self, suite, instance, field_name, seed, samples):
        self.suite = suite
        self.instance = instance
        self.field_name = field_name
        self.seed = seed
        self.samples = samples
        self.laws = []
        self._ids = set()

    def add(self, law, statement, ok, witness=None):
        if law in self._ids:
            raise ValueError("duplicate law id %r in a %s report"
                             % (law, self.suite))
        self._ids.add(law)
        self.laws.append(LawResult(law, statement, ok, witness))

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
            self.add(law, statement, wit is None, wit)

    def merge(self, sub, tag):
        """Fold a sub-report's laws into this one, in order, with their ids
        tagged as law[tag]."""
        for r in sub.laws:
            self.add("%s[%s]" % (r.law, tag), r.statement, r.ok, r.witness)

    def check(self, law, statement, lhs, rhs):
        """Record an exact-equality law; on failure render both sides."""
        ok = lhs == rhs
        witness = None
        if not ok:
            witness = "lhs = %r ; rhs = %r" % (lhs, rhs)
        self.add(law, statement, ok, witness)
        return ok

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
            if not r.ok and r.witness:
                lines.append("     witness: %s" % r.witness)
        return "\n".join(lines)
