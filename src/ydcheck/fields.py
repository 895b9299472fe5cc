"""Exact base fields: arbitrary-precision rationals and prime fields F_p.

Over QQ a coefficient is a Python int, and becomes a fractions.Fraction
only when a division has a non-integral quotient; over F_p it is an int in
[0, p).  Sums and products of coefficients are plain +, - and *; the field
owns the reduction mod p, which happens in two places only: field.nonzero,
which filters (and over F_p reduces) the terms of every Element as it is
built, keeping the dict itself when it is clean, and field.reduce, for the
few scalars computed outside an Element.
Over QQ both are the plain filter and the identity, so the linear algebra
layer never needs to know which field it is working over.  Every division
goes through field.div, because int / int would give a float.
"""

from fractions import Fraction

# perfbench/layertrace.py reads this name when it traces a run; F_p scalars
# are ints, so it stands for int until the tracer stops reading it
GF = int


class RationalField:
    name = "rational"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def reduce(self, c):
        return c

    def nonzero(self, terms):
        """The terms with a nonzero coefficient (terms itself if all are)."""
        return terms if 0 not in terms.values() else {
            s: c for s, c in terms.items() if c}

    def div(self, a, b):
        """a / b: an int when the quotient is integral, else a Fraction."""
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def elements(self):
        return None  # infinite

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField:
    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.name = "fp:%d" % p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def reduce(self, c):
        return c % self.p

    def nonzero(self, terms):
        """The terms reduced mod p, zeros dropped (terms itself if clean)."""
        p = self.p
        vals = terms.values()
        if min(vals) > 0 and max(vals) < p:
            return terms
        return {s: r for s, c in terms.items() if (r := c % p)}

    def div(self, a, b):
        if not b % self.p:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return a * pow(b, -1, self.p) % self.p

    def elements(self):
        return list(range(self.p))

    def primitive_root_of_unity(self, n):
        """A primitive n-th root of unity in F_p, or None if there is none."""
        if (self.p - 1) % n != 0:
            return None
        for g in range(1, self.p):
            w = pow(g, (self.p - 1) // n, self.p)
            if all(pow(w, k, self.p) != 1 for k in range(1, n)):
                return w
        return None

    def __repr__(self):
        return "F%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


QQ = RationalField()


def parse_field(spec):
    """Parse a CLI field spec: "rational" or "fp:<p>"."""
    if spec == "rational":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError("unknown field spec %r (want rational or fp:<p>)" % spec)


def parse_scalar(field, text):
    """Read a scalar written as fractions.Fraction reads it (p, p/q or a
    decimal) into field; its reduced denominator must be invertible there."""
    try:
        q = Fraction(text)
        return field.div(field.from_int(q.numerator),
                         field.from_int(q.denominator))
    except ZeroDivisionError:
        raise ValueError("scalar %r has a zero denominator in %s"
                         % (text, field.name)) from None
