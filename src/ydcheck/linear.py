"""Finite formal linear combinations over an exact field, tensor products,
exact linear solving and quotient spaces.

An Element is a finite map {basis symbol -> nonzero coefficient}.  Basis
symbols are opaque hashable labels (group elements in normal form, strings,
dual-basis tags, ...).  Tensor legs are kept flat: a tensor basis symbol is a
Ten (a tuple subclass) listing all legs, so A (x) A (x) A has Ten symbols of
arity 3 and no nested reassociation ever happens.

All values are immutable after construction; every function here is pure.
"""


class Ten(tuple):
    """A flat tensor basis symbol.  Distinct from plain tuples so that group
    elements represented as tuples can never collide with tensor symbols."""

    def __eq__(self, other):
        return type(other) is Ten and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return tuple.__hash__(self) ^ 0x517CC1B7

    def __repr__(self):
        return "(" + " (x) ".join(sym_str(s) for s in self) + ")"


def sym_str(sym):
    """Canonical printable form of a basis symbol."""
    if type(sym) is Ten:
        return repr(sym)
    return repr(sym)


def sym_key(sym):
    """Deterministic total order on symbols of mixed type."""
    return sym_str(sym)


def legs(sym):
    """The tensor legs of a symbol: a Ten is its own legs, anything else is
    a single leg."""
    return tuple(sym) if type(sym) is Ten else (sym,)


def make_sym(leg_tuple):
    """Rebuild a symbol from legs, unwrapping singletons."""
    return leg_tuple[0] if len(leg_tuple) == 1 else Ten(leg_tuple)


def split_sym(sym, n_left):
    """Split a symbol after its first n_left legs (a module symbol of arity
    n_left followed by the rest), unwrapping singletons on both sides."""
    ls = legs(sym)
    return make_sym(ls[:n_left]), make_sym(ls[n_left:])


class Element:
    """A finite formal linear combination of basis symbols over a field.

    Zero coefficients are never stored, so equality of the term dicts is
    exactly equality of the vectors.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        zero = field.zero()
        self.terms = {s: c for s, c in (terms or {}).items() if c != zero}

    @classmethod
    def basis(cls, field, sym, coeff=None):
        return cls(field, {sym: field.one() if coeff is None else coeff})

    @classmethod
    def zero(cls, field):
        return cls(field)

    def is_zero(self):
        return not self.terms

    def coeff(self, sym):
        return self.terms.get(sym, self.field.zero())

    def support(self):
        return sorted(self.terms, key=sym_key)

    def __add__(self, other):
        t = dict(self.terms)
        for s, c in other.terms.items():
            t[s] = t.get(s, self.field.zero()) + c
        return Element(self.field, t)

    def __sub__(self, other):
        t = dict(self.terms)
        for s, c in other.terms.items():
            t[s] = t.get(s, self.field.zero()) - c
        return Element(self.field, t)

    def __neg__(self):
        return Element(self.field, {s: -c for s, c in self.terms.items()})

    def scaled(self, scalar):
        return Element(self.field, {s: scalar * c for s, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def map_terms(self, f):
        """Linear extension: f maps a basis symbol to an Element."""
        zero = self.field.zero()
        acc = {}
        for s, c in self.terms.items():
            for si, ci in f(s).terms.items():
                acc[si] = acc.get(si, zero) + c * ci
        return Element(self.field, acc)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for s in self.support():
            bits.append("%s*%s" % (self.terms[s], sym_str(s)))
        return " + ".join(bits)


def tensor(x, y):
    """Bilinear tensor product; result symbols are flat Ten tuples."""
    out = Element(x.field)
    t = out.terms
    for sx, cx in x.terms.items():
        lx = legs(sx)
        for sy, cy in y.terms.items():
            s = Ten(lx + legs(sy))
            c = cx * cy
            if s in t:
                c = t[s] + c
            if c != x.field.zero():
                t[s] = c
            else:
                t.pop(s, None)
    return out


def linear(field, f):
    """Extend f(sym) -> Element to a linear map on Elements; the unary twin
    of bilinear.  The image of each basis symbol is memoized (f must be
    pure)."""
    cache = {}
    zero = field.zero()

    def ext(x):
        acc = {}
        for sx, cx in x.terms.items():
            img = cache.get(sx)
            if img is None:
                img = cache[sx] = f(sx).terms
            for s, c in img.items():
                acc[s] = acc.get(s, zero) + c * cx
        return Element(field, acc)

    return ext


def bilinear(field, f):
    """Extend f(sym, sym) -> Element to a bilinear map on Elements.  The
    image of each basis pair is memoized (f must be pure, which every
    structure map here is)."""
    cache = {}
    zero = field.zero()

    def ext(x, y):
        acc = {}
        for sx, cx in x.terms.items():
            for sy, cy in y.terms.items():
                key = (sx, sy)
                img = cache.get(key)
                if img is None:
                    img = cache[key] = f(sx, sy).terms
                c0 = cx * cy
                for s, c in img.items():
                    acc[s] = acc.get(s, zero) + c * c0
        return Element(field, acc)

    return ext


def apply_leg(x, i, f):
    """Apply the linear map f (Element of arity 1 -> Element) to leg i."""
    zero = x.field.zero()
    acc = {}
    for s, c in x.terms.items():
        ls = legs(s)
        img = f(Element.basis(x.field, ls[i]))
        for si, ci in img.terms.items():
            new = make_sym(ls[:i] + legs(si) + ls[i + 1:])
            acc[new] = acc.get(new, zero) + c * ci
    return Element(x.field, acc)


def apply_pair_legs(x, i, f):
    """Apply f (arity-2 Element -> arity-2 Element) to legs (i, i+1) of x,
    keeping all other legs fixed."""
    zero = x.field.zero()
    acc = {}
    for s, c in x.terms.items():
        ls = legs(s)
        window = Element.basis(x.field, Ten(ls[i:i + 2]))
        img = f(window)
        for si, ci in img.terms.items():
            new = make_sym(ls[:i] + legs(si) + ls[i + 2:])
            acc[new] = acc.get(new, zero) + c * ci
    return Element(x.field, acc)


def flip(x):
    """The flip map tau on arity-2 tensors."""
    def swap(s):
        a, b = legs(s)
        return Element.basis(x.field, Ten((b, a)))
    return x.map_terms(swap)


def _rref(rows, ncols, field):
    """Reduced row echelon form in place.  rows: list of lists of scalars.
    Returns list of pivot column indices."""
    zero, one = field.zero(), field.one()
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != one:
            rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
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
        line = [field.zero()] * n + [b]
        for s, c in r.terms.items():
            line[idx[s]] = c
        mat.append(line)
    pivots = _rref(mat, n, field)
    # inconsistent iff a row is 0 = nonzero
    zero = field.zero()
    for line in mat:
        if line[-1] != zero and all(v == zero for v in line[:-1]):
            return None
    sol = {}
    for r, c in enumerate(pivots):
        sol[syms[c]] = mat[r][-1]
    return Element(field, sol)


def kernel_basis(rows, syms=None):
    """A basis of the kernel of the homogeneous system given by rows.

    syms optionally fixes the unknown set (and order source); otherwise the
    union of supports is used.
    """
    if not rows:
        return []
    field = rows[0].field
    if syms is None:
        syms = sorted({s for r in rows for s in r.terms}, key=sym_key)
    else:
        syms = sorted(syms, key=sym_key)
    idx = {s: j for j, s in enumerate(syms)}
    n = len(syms)
    mat = []
    for r in rows:
        line = [field.zero()] * n
        for s, c in r.terms.items():
            line[idx[s]] = c
        mat.append(line)
    pivots = _rref(mat, n, field)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = {syms[fc]: field.one()}
        for r, pc in enumerate(pivots):
            v = mat[r][fc]
            if v != field.zero():
                vec[syms[pc]] = -v
        basis.append(Element(field, vec))
    return basis


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
            line = [r.field.zero()] * n
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
                if c not in pivot_set and (mat[r][c] != field.zero() if field else False):
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
        for s in q.terms:
            if s not in set(self.basis):
                raise ValueError("symbol %s is not a quotient basis symbol" % sym_str(s))
        return Element(q.field, dict(q.terms))


def quotient_space(ambient_basis, relators):
    return QuotientSpace(ambient_basis, relators)
