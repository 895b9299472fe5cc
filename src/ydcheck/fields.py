"""Exact base fields: arbitrary-precision rationals and prime fields F_p.

Over QQ a coefficient is a Python int, and becomes a fractions.Fraction
only when a division has a non-integral quotient; over F_p it is an int in
[0, p).  So 0 and 1 are the literals 0 and 1 in every field, and a field
has no zero() or one().  Sums and products of coefficients are plain +, -
and *; the field owns the reduction mod p, which happens in two places
only: field.nonzero, which filters (and over F_p reduces) the terms of
every Element as it is built, keeping the dict itself when it is clean, and
field.reduce, for the few scalars computed outside an Element.  Over QQ
both are the plain filter and the identity, so the linear algebra layer
never needs to know which field it is working over.  Every division
goes through field.div, because int / int would give a float.

Each field also carries coeff_pool, the coefficients random elements are
drawn from: the nonzero elements of F_p when p <= 11, else -2, -1, 1, 2.
It is built once, with the field, from p alone.  A prime field's p is
certified by a Miller-Rabin test that is exact below MAX_PRIME; a larger p
is refused.
"""

from fractions import Fraction

# perfbench/layertrace.py reads this name when it traces a run; F_p scalars
# are ints, so it stands for int until the tracer stops reading it
GF = int


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# for every n below MAX_PRIME, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 2017); the first 12 alone are fooled
# by 318665857834031151167461 = 399165290221 * 798330580441
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def is_prime(n):
    """Whether n is prime, exactly for n < MAX_PRIME (a ValueError above)."""
    if n >= MAX_PRIME:
        raise ValueError("cannot certify %d as prime: p must be below %d"
                         % (n, MAX_PRIME))
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    name = "rational"
    coeff_pool = (-2, -1, 1, 2)

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

    def primitive_root_of_unity(self, n):
        """A primitive n-th root of unity in QQ: 1 and -1 are the only
        roots of unity there, so None for n > 2."""
        return {1: 1, 2: -1}.get(n)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField:
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.name = "fp:%d" % p
        self.coeff_pool = (tuple(range(1, p)) if p <= 11 else
                           tuple(n % p for n in RationalField.coeff_pool))

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
