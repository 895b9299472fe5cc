"""A fixed piece of pure-Python work that gauges how fast the machine runs
right now, so that timings taken at different machine speeds compare.

On a shared host the same calls run up to about twice as slowly for
minutes at a time, and every kind of Python work slows by about the same
share.  The benchmark times this reference next to each timed call and
reports the call's time as a multiple of the reference's, converted to
seconds at the nominal speed REF_S.  The reference uses no ydcheck code, so
no change to the program moves it: exact rational arithmetic (the stdlib
`fractions` the program uses over QQ), and the small dicts, tuples and
frozensets and the method calls of its linear-combination layer.
"""

import time
from fractions import Fraction

#: seconds one reference() takes at the nominal machine speed, a round
#: figure for what it took on 2 shared CPUs under Python 3.11.7 (16-25 ms as
#: the host's load varied); a timing divided by the adjacent reference()
#: time and multiplied by REF_S reads in seconds at that speed
REF_S = 0.02


class _Term:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def add(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            c = out.get(key, 0) + c
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return _Term(out)

    def key(self):
        return frozenset(self.coeffs.items())


def _work():
    seen = set()
    for i in range(1, 240):
        if i % 10 == 1:
            acc = _Term({})
        a = Fraction(i % 10 + 1, i % 7 + 3)
        term = _Term({("e", j % 5): a * Fraction(j + 1, 7) - Fraction(1, j + 2)
                      for j in range(6)})
        acc = acc.add(term)
        seen.add(term.key())
    return len(seen), len(acc.coeffs)


def reference():
    """Run the reference work once; return its wall time in seconds."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t
