"""Finite formal linear combinations over an exact field, tensor products,
exact linear solving and quotient spaces.

An Element is a finite map {basis symbol -> nonzero coefficient}.  The
kernels below accumulate coefficients with plain +, - and * from the
literals 0 and 1; the field filters out the zeros (and over F_p reduces
mod p) once, when the Element is built, in field.nonzero, which keeps the
dict itself when there is nothing to filter.  A basis vector with
coefficient 1 skips that filter: the literal 1 is nonzero and reduced in
every field.  Basis symbols are opaque hashable labels (group elements in
normal form, strings, dual-basis tags, ...).  Tensor legs are kept flat: a
tensor basis symbol is a Ten (a tuple subclass) storing all legs and then a
private tag, read back with legs(sym), so A (x) A (x) A has Ten symbols of
arity 3 and no nested reassociation ever happens.

All values are immutable after construction (nothing writes to .terms
outside __init__ and basis; CI rejects such a write); every function here is
pure.  So the kernels share what they already hold: the memos of linear and
bilinear keep the image Elements themselves, and linear, bilinear,
map_terms and map_legs return the image of a single term with coefficient 1
as it is, without copying it.

Every structure map is the linear extension of a basis formula, and these
kernels carry all of them:

- Element.map_terms(f) sums c * f(s) over the terms c*s of an Element, and
  Element.map_legs(f) sums c * f(*legs) over the legs of each term, or
  c * f(head, rest) with map_legs(f, at) for a module symbol of arity `at`
  ahead of its other legs.  A Sweedler sum such as a_(1) (x) a_(2)b is a
  (nested) map_legs over the slice it is read from,
  mha.delta_r(a, b).map_legs(lambda p, q: ...), never a loop that adds each
  term to a copy of the running sum, and never a callback that unpacks its
  symbol's legs itself;
- apply_legs(x, i, k, f) applies a linear map f to the window of legs
  [i, i+k) of every term and splices the image in place (k = 1, 2, a module
  arity or a quotient arity), running f once per distinct window in a call.

linear and bilinear extend a basis map in the same way, but read the image
of each basis symbol (or pair) from a memo.  All four add c * image in their
own loop, skip zero images and start from a dict() copy of a first image
with c == 1 (it keeps its dict's hashes).  make_sym and tensor (which reads
y's legs once) build a Ten as tuple.__new__(Ten, legs + _TAG), frame-free.

The memo is a table a caller can read by symbol: Memo(f)[s] is f(s), and
Memo2(f)[s, t] is f(s, t), each computed on the first read and kept.
linear(field, memo) and bilinear(field, memo2) extend that same table to
Elements, so a caller that already holds basis symbols reads
alg.mult_basis[a, b] instead of wrapping a and b in basis Elements for
alg.mult, and the two reads share every image (the identical Element).  An
object keeps the table of each structure map it owns next to the map's
extension; a table lives and dies with its object, and an object built from
another basis map starts with an empty one.  The extensions are plain
functions that keep the table under the closure name `cache`, and nothing
is read off them but their values, so a caller may rebind linear and
bilinear to wrappers (perfbench/layertrace.py does, to trace a run).
"""


# frozenset() hashes alike under every PYTHONHASHSEED; no symbol ends in it
_TAG = (frozenset(),)


class Ten(tuple):
    """A flat tensor basis symbol: its legs, then _TAG.  The tag keeps it
    apart from the plain tuple of its legs (a group element represented as a
    tuple) while hashing and equality stay tuple's own C slots.  Iteration,
    len and repr show the legs only; legs(sym) is the accessor."""

    __slots__ = ()

    def __new__(cls, ls):
        return tuple.__new__(cls, tuple(ls) + _TAG)

    def __getnewargs__(self):
        return (self[:-1],)

    def __iter__(self):
        return iter(self[:-1])

    def __len__(self):
        return tuple.__len__(self) - 1

    def __repr__(self):
        return "(" + " (x) ".join(sym_str(s) for s in self[:-1]) + ")"


def sym_str(sym):
    """Canonical printable form of a basis symbol."""
    return repr(sym)


def sym_key(sym):
    """Deterministic total order on symbols of mixed type."""
    return sym_str(sym)


def legs(sym):
    """The tensor legs of a symbol: a Ten without its tag, anything else is
    a single leg."""
    return sym[:-1] if type(sym) is Ten else (sym,)


def make_sym(leg_tuple):
    """Rebuild a symbol from a tuple of legs, unwrapping singletons."""
    return (leg_tuple[0] if len(leg_tuple) == 1
            else tuple.__new__(Ten, leg_tuple + _TAG))


def split_sym(sym, n_left):
    """Split a symbol after its first n_left legs (a module symbol of arity
    n_left followed by the rest), unwrapping singletons on both sides."""
    ls = legs(sym)
    return make_sym(ls[:n_left]), make_sym(ls[n_left:])


class Element:
    """A finite formal linear combination of basis symbols over a field.

    Zero coefficients are never stored, so equality of the term dicts is
    exactly equality of the vectors.  Element(field, terms) takes ownership
    of terms (it may keep the dict itself): never write to it afterwards.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = field.nonzero(terms) if terms else {}

    @classmethod
    def basis(cls, field, sym, coeff=None):
        if coeff is not None:
            return cls(field, {sym: coeff})
        x = object.__new__(cls)
        x.field, x.terms = field, {sym: 1}
        return x

    def is_zero(self):
        return not self.terms

    def coeff(self, sym):
        return self.terms.get(sym, 0)

    def support(self):
        return sorted(self.terms, key=sym_key)

    def __add__(self, other):
        t = dict(self.terms)
        for s, c in other.terms.items():
            t[s] = t.get(s, 0) + c
        return Element(same_field(self, other), t)

    def __sub__(self, other):
        t = dict(self.terms)
        for s, c in other.terms.items():
            t[s] = t.get(s, 0) - c
        return Element(same_field(self, other), t)

    def __neg__(self):
        return Element(self.field, {s: -c for s, c in self.terms.items()})

    def scaled(self, scalar):
        return Element(self.field, {s: scalar * c for s, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Element) and self.terms == other.terms
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def map_terms(self, f):
        """Linear extension: f maps a basis symbol to an Element."""
        acc = {}
        for s, c in self.terms.items():
            img = f(s)
            if c == 1 and not acc:
                if len(self.terms) == 1:
                    return img
                acc = dict(img.terms)
            elif img.terms:
                for si, ci in img.terms.items():
                    acc[si] = acc.get(si, 0) + c * ci
        return Element(self.field, acc)

    def map_legs(self, f, at=None):
        """Linear extension of a formula on legs: f(*legs(s)) for each basis
        symbol s, or f(*split_sym(s, at)) when at is given.  The loop of
        map_terms, with the legs read inline."""
        acc = {}
        for s, c in self.terms.items():
            ls = s[:-1] if type(s) is Ten else (s,)
            if at is None:
                img = f(*ls)
            else:
                img = f(make_sym(ls[:at]), make_sym(ls[at:]))
            if c == 1 and not acc:
                if len(self.terms) == 1:
                    return img
                acc = dict(img.terms)
            elif img.terms:
                for si, ci in img.terms.items():
                    acc[si] = acc.get(si, 0) + c * ci
        return Element(self.field, acc)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for s in self.support():
            bits.append("%s*%s" % (self.terms[s], sym_str(s)))
        return " + ".join(bits)


def same_field(x, y):
    """The field of x and y, which must be the same."""
    if x.field is not y.field and x.field != y.field:
        raise ValueError("mixed fields: %r vs %r" % (x.field, y.field))
    return x.field


def tensor(x, y):
    """Bilinear tensor product; result symbols are flat Ten tuples."""
    acc = {}
    # y's legs and tag (a Ten ends in it), read once unless x is zero
    ys = x.terms and [(sy if type(sy) is Ten else (sy,) + _TAG, cy)
                      for sy, cy in y.terms.items()]
    for sx, cx in x.terms.items():
        lx = sx[:-1] if type(sx) is Ten else (sx,)
        for ly, cy in ys:
            s = tuple.__new__(Ten, lx + ly)
            acc[s] = acc.get(s, 0) + cx * cy
    return Element(same_field(x, y), acc)


class Memo(dict):
    """The images of a pure basis formula f, computed on the first read and
    kept: memo[s] is f(s), a dict lookup once it is known."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, s):
        img = self[s] = self.f(s)
        return img


class Memo2(Memo):
    """Memo for a basis formula of two symbols: memo2[s, t] is f(s, t)."""

    __slots__ = ()

    def __missing__(self, st):
        img = self[st] = self.f(*st)
        return img


def linear(field, f):
    """Extend f(sym) -> Element to a linear map on Elements; the unary twin
    of bilinear.  The image of each basis symbol is memoized (f must be
    pure) in f itself when f is a Memo, else in a new one, and a basis
    vector's image is the memoized Element itself."""
    cache = f if type(f) is Memo else Memo(f)

    def ext(x):
        acc = {}
        for sx, cx in x.terms.items():
            img = cache[sx]
            if cx == 1 and not acc:
                if len(x.terms) == 1:
                    return img
                acc = dict(img.terms)
            elif img.terms:
                for s, c in img.terms.items():
                    acc[s] = acc.get(s, 0) + cx * c
        return Element(field, acc)

    return ext


def bilinear(field, f):
    """Extend f(sym, sym) -> Element to a bilinear map on Elements.  The
    image of each basis pair is memoized (f must be pure, which every
    structure map here is) in f itself when f is a Memo2, else in a new one,
    and the image of a pair of basis vectors is the memoized Element
    itself."""
    cache = f if type(f) is Memo2 else Memo2(f)

    def ext(x, y):
        acc = {}
        for sx, cx in x.terms.items():
            for sy, cy in y.terms.items():
                img = cache[sx, sy]
                c0 = cx * cy
                if c0 == 1 and not acc:
                    if len(x.terms) == len(y.terms) == 1:
                        return img
                    acc = dict(img.terms)
                elif img.terms:
                    for s, c in img.terms.items():
                        acc[s] = acc.get(s, 0) + c0 * c
        return Element(field, acc)

    return ext


def apply_legs(x, i, k, f):
    """Apply the linear map f to legs [i, i+k) of every term of x, splicing
    the image in place.  f runs once per distinct window in a call, on it as
    one basis Element (a Ten when k > 1), so k may be 1, 2, a module arity or
    a quotient arity, and its image may have any number of legs."""
    field = x.field
    acc, images = {}, {}
    for s, c in x.terms.items():
        ls = s[:-1] if type(s) is Ten else (s,)
        w = ls[i:i + k]
        img = images.get(w)
        if img is None:
            img = images[w] = f(Element.basis(field, make_sym(w)))
        head, tail = ls[:i], ls[i + k:]
        for si, ci in img.terms.items():
            new = make_sym(head + legs(si) + tail)
            acc[new] = acc.get(new, 0) + c * ci
    return Element(field, acc)


# perfbench/layertrace.py wraps these two names when it traces a run, so they
# stay as aliases of apply_legs until the tracer wraps apply_legs itself;
# nothing in ydcheck calls them
apply_leg = lambda x, i, f: apply_legs(x, i, 1, f)  # noqa: E731
apply_pair_legs = lambda x, i, f: apply_legs(x, i, 2, f)  # noqa: E731


def flip(x):
    """The flip map tau on arity-2 tensors."""
    return x.map_legs(lambda a, b: Element.basis(x.field, Ten((b, a))))


def _rref(rows, ncols, field):
    """Reduced row echelon form in place.  rows: list of lists of scalars.
    Returns list of pivot column indices."""
    reduce = field.reduce
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [field.div(v, pv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [reduce(vi - f * vr) for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def lin_solve(rows, rhs):
    """Solve the exact linear system given by equation Elements and scalars.

    Each row is an Element whose symbols are the unknowns; row dot x = rhs.
    Returns one exact solution as an Element over the unknown symbols, or
    None if the system is inconsistent.  Free unknowns are set to zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("got %d equations but %d right-hand sides" % (len(rows), len(rhs)))
    if not rows:
        raise ValueError("no equations")
    field = rows[0].field
    syms = sorted({s for r in rows for s in r.terms}, key=sym_key)
    idx = {s: j for j, s in enumerate(syms)}
    n = len(syms)
    mat = []
    for r, b in zip(rows, rhs):
        line = [0] * n + [field.reduce(b)]
        for s, c in r.terms.items():
            line[idx[s]] = c
        mat.append(line)
    pivots = _rref(mat, n, field)
    # inconsistent iff a row is 0 = nonzero
    for line in mat:
        if line[-1] and not any(line[:-1]):
            return None
    sol = {}
    for r, c in enumerate(pivots):
        sol[syms[c]] = mat[r][-1]
    return Element(field, sol)


def kernel_basis(rows, syms):
    """A basis of the kernel of the homogeneous system rows over the unknowns
    syms, from the quotient of their span by rows: per free symbol f, 1 at f
    and, at each pivot, the coefficient of f in that pivot's image."""
    if not rows:
        raise ValueError("no equations")
    quot = QuotientSpace(sorted(syms, key=sym_key), rows)
    images = quot._images.items()
    return [Element(quot.field,
                    {f: 1, **{p: img[f] for p, img in images if f in img}})
            for f in quot.basis]


class QuotientSpace:
    """A quotient of a finite-dimensional space by the span of relators.

    project sends ambient Elements to the quotient (symbols reused from the
    ambient free columns); section embeds quotient basis vectors back, with
    project(section(q)) == q.
    """

    def __init__(self, ambient_basis, relators):
        if not ambient_basis:
            raise ValueError("empty ambient basis")
        field = relators[0].field if relators else None
        self.ambient_basis = list(ambient_basis)
        idx = {s: j for j, s in enumerate(self.ambient_basis)}
        n = len(self.ambient_basis)
        mat = []
        for r in relators:
            line = [0] * n
            for s, c in r.terms.items():
                if s not in idx:
                    raise ValueError("relator symbol %s outside ambient basis" % sym_str(s))
                line[idx[s]] = c
            mat.append(line)
            field = r.field
        self.field = field
        pivots = _rref(mat, n, field) if mat else []
        pivot_set = set(pivots)
        self.basis = [self.ambient_basis[c] for c in range(n) if c not in pivot_set]
        self.rank = len(pivots)
        # pivot ambient vector -> combination of free quotient symbols
        self._images = {}
        for r, pc in enumerate(pivots):
            img = {}
            for c in range(n):
                if c not in pivot_set and mat[r][c]:
                    img[self.ambient_basis[c]] = -mat[r][c]
            self._images[self.ambient_basis[pc]] = img

    def project(self, x):
        def image(s):
            if s in self._images:
                return Element(x.field, self._images[s])
            return Element.basis(x.field, s)
        return x.map_terms(image)

    def section(self, q):
        """Embed a quotient Element (over free symbols) into the ambient."""
        basis = set(self.basis)
        for s in q.terms:
            if s not in basis:
                raise ValueError("symbol %s is not a quotient basis symbol" % sym_str(s))
        return q
