"""Exact base fields: arbitrary-precision rationals and prime fields F_p.

Over QQ a coefficient is a Python int, and becomes a fractions.Fraction
only when a division has a non-integral quotient; over F_p it is a GF
element.  Both kinds support +, -, * and exact equality, and are zero
exactly when falsy, so the linear algebra layer never needs to know which
field it is working over.  Every division goes through field.div, because
int / int would give a float.
"""

from fractions import Fraction


class GF:
    """An element of the prime field F_p.  Values are kept reduced mod p."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if type(other) is GF and other.p == self.p:
            return other
        if isinstance(other, int):
            return GF(other, self.p)
        if isinstance(other, GF):
            raise ValueError("mixed prime fields: F_%d vs F_%d" % (self.p, other.p))
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GF(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GF(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GF(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GF(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return GF(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o / self

    def __neg__(self):
        return GF(-self.val, self.p)

    def __eq__(self, other):
        if type(other) is GF:
            return other.val == self.val and other.p == self.p
        if isinstance(other, int):
            return self.val == other % self.p
        return False

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


class RationalField:
    name = "rational"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

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
        self._zero = GF(0, p)
        self._one = GF(1, p)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return GF(n, self.p)

    def div(self, a, b):
        return a / b

    def elements(self):
        return [GF(v, self.p) for v in range(self.p)]

    def primitive_root_of_unity(self, n):
        """A primitive n-th root of unity in F_p, or None if there is none."""
        if (self.p - 1) % n != 0:
            return None
        for g in range(1, self.p):
            w = pow(g, (self.p - 1) // n, self.p)
            if all(pow(w, k, self.p) != 1 for k in range(1, n)):
                return GF(w, self.p)
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
