"""Concrete desk-scale instances.

Registry names (used by the CLI):
  fun-Z        finitely supported functions on Z (commutative, non-unital)
  fun-Dinf     finitely supported functions on the infinite dihedral group
  grp-S3       group algebra of S3 (cocommutative, unital)
  grp-Z2       group algebra of Z2
  grp-Zn:<n>   group algebra of Z/n
  sweedler-H4  Sweedler's 4-dimensional Hopf algebra (S^2 != id)
  dual:<name>  dual of a finite-dimensional unital instance
"""

import random

from .linear import (Element, Ten, Memo, tensor, legs, make_sym, apply_legs,
                     flip, kernel_basis, linear, bilinear)
from .mha import Space, Algebra, MultiplierHopfAlgebra, below, probe_elements
from .report import equal


class ConstructionError(Exception):
    """An instance ingredient failed its defining laws at construction."""


# -- discrete groups --------------------------------------------------------

class DiscreteGroup:
    """A group given by normal forms: elements are hashable labels that are
    unique per group element.  space is the Space of those labels, which
    is the carrier of the group algebra and of the function algebra;
    group.elements reads its basis (None for an infinite group)."""

    def __init__(self, name, identity, mul, inv, space, *, abelian=False,
                 cyclic_order=None):
        self.name = name
        self.cyclic_order = cyclic_order  # n for Z/n, else None
        self.identity = identity
        self.mul = mul
        self.inv = inv
        self.space = space
        self.elements = space.basis
        self.abelian = abelian


def group_Z():
    return DiscreteGroup("Z", 0, lambda a, b: a + b, lambda a: -a,
                         Space(sample=lambda rng: -5 + below(rng, 11)),
                         abelian=True)


def group_Zn(n):
    return DiscreteGroup("Z%d" % n, 0, lambda a, b: (a + b) % n,
                         lambda a: (-a) % n, Space(range(n)),
                         abelian=True, cyclic_order=n)


def group_S3():
    # permutations of {0,1,2} as image tuples; (p*q)(i) = p(q(i))
    els = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        out = [0, 0, 0]
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    return DiscreteGroup("S3", (0, 1, 2), mul, inv, Space(els))


def group_Dinf():
    # presentation <r, s | s^2 = e, s r s = r^-1>, normal form r^k s^e as (k, e)

    def mul(a, b):
        k, e = a
        l, f = b
        return (k + (l if e == 0 else -l), (e + f) % 2)

    def inv(a):
        k, e = a
        return ((-k if e == 0 else k), e)

    return DiscreteGroup("Dinf", (0, 0), mul, inv, Space(
        sample=lambda rng: (-4 + below(rng, 9), below(rng, 2))))


# -- K(G): finitely supported functions on G --------------------------------

def function_algebra(group, field, name=None):
    """K(G) with basis {delta_g} for an infinite group G: pointwise product,
    Delta(f)(p,q) = f(pq), commutative and non-unital, with the local unit
    the indicator of a support.  A finite G raises ValueError: its K(G) is
    the dual of the group algebra, built by dual_hopf (dual:grp-...).
    """
    if group.elements is not None:
        raise ValueError("K(G) needs an infinite group; for the finite "
                         "group %s build dual_hopf of its group algebra"
                         % group.name)
    name = name or ("fun-" + group.name)
    g = group

    def mult_basis(a, b):
        return Element.basis(field, a) if a == b else Element(field)

    def support_union(elems):
        syms = set()
        for x in elems:
            syms.update(x.terms)
        return syms

    def local_unit(elems):
        return Element(field, {s: 1 for s in support_union(elems)})

    alg = Algebra(field, mult_basis, g.space, local_unit=local_unit,
                  name=name)

    # Delta(delta_g)(1 (x) delta_h) = delta_{g h^-1} (x) delta_h
    def delta_r(a, b):
        return Element.basis(field, Ten((g.mul(a, g.inv(b)), b)))

    # (delta_a (x) 1)Delta(delta_b) = delta_a (x) delta_{a^-1 b}
    def delta_l(a, b):
        return Element.basis(field, Ten((a, g.mul(g.inv(a), b))))

    # Delta(delta_g)(delta_b (x) 1) = delta_b (x) delta_{b^-1 g}
    def delta_r2(a, b):
        return Element.basis(field, Ten((b, g.mul(g.inv(b), a))))

    # (1 (x) delta_a)Delta(delta_b) = delta_{b a^-1} (x) delta_a
    def delta_l2(a, b):
        return Element.basis(field, Ten((g.mul(b, g.inv(a)), a)))

    def counit(a):
        return 1 if a == g.identity else 0

    def antipode(a):
        return Element.basis(field, g.inv(a))

    def delta_cover(xs, ys):
        # Delta(c)(x (x) y) = x (x) y iff c is 1 on supp(x) * supp(y)
        prods = {g.mul(p, q) for p in support_union(xs) for q in support_union(ys)}
        return Element(field, {s: 1 for s in prods})

    return MultiplierHopfAlgebra(
        alg, delta_r=delta_r, delta_l=delta_l, delta_r2=delta_r2,
        delta_l2=delta_l2, counit=counit, antipode=antipode,
        antipode_inv=antipode, delta_cover=delta_cover,
        eps_one=Element.basis(field, g.identity),
        commutative=True, cocommutative=group.abelian, name=name)


# -- unital instances from a materialized coproduct --------------------------

def unital_slices(alg, coproduct_basis):
    """The four slices of a unital instance, as keyword arguments of
    MultiplierHopfAlgebra.  Each multiplies one leg of the materialized
    coproduct of a basis symbol by the other symbol, reading the product
    table, and leaves the other leg as it is:

        Delta(a)(1 (x) b) = a_(1) (x) a_(2)b     leg 2 times b
        (a (x) 1)Delta(b) = ab_(1) (x) b_(2)     a times leg 1
        Delta(a)(b (x) 1) = a_(1)b (x) a_(2)     leg 1 times b
        (1 (x) a)Delta(b) = b_(1) (x) ab_(2)     a times leg 2

    The 1 of a slice is a multiplier that fixes its leg, so the unit is
    never multiplied (it has one term per basis symbol on a dual of a
    group algebra)."""
    mult, cop, el = alg.mult_basis, coproduct_basis, alg.el

    def delta_r(a, b):
        return cop(a).map_legs(lambda p, q: tensor(el(p), mult[q, b]))

    def delta_l(a, b):
        return cop(b).map_legs(lambda p, q: tensor(mult[a, p], el(q)))

    def delta_r2(a, b):
        return cop(a).map_legs(lambda p, q: tensor(mult[p, b], el(q)))

    def delta_l2(a, b):
        return cop(b).map_legs(lambda p, q: tensor(el(p), mult[a, q]))

    return dict(delta_r=delta_r, delta_l=delta_l, delta_r2=delta_r2,
                delta_l2=delta_l2)


def from_unital_coproduct(alg, coproduct_basis, counit, antipode_basis,
                          antipode_inv_basis, *, commutative, cocommutative,
                          name):
    """A unital instance from its materialized coproduct."""
    return MultiplierHopfAlgebra(
        alg, **unital_slices(alg, coproduct_basis), counit=counit,
        antipode=antipode_basis, antipode_inv=antipode_inv_basis,
        coproduct=coproduct_basis, commutative=commutative,
        cocommutative=cocommutative, name=name)


def group_algebra(group, field, name=None):
    """KG on the group's Space (finite or sampled), with the grouplike
    coproduct g -> g (x) g."""
    name = name or ("grp-" + group.name)
    g = group

    def mult_basis(a, b):
        return Element.basis(field, g.mul(a, b))

    unit = Element.basis(field, g.identity)
    alg = Algebra(field, mult_basis, g.space, unit=unit, name=name)
    mha = from_unital_coproduct(
        alg,
        lambda s: Element.basis(field, Ten((s, s))),
        lambda s: 1,
        lambda s: Element.basis(field, g.inv(s)),
        lambda s: Element.basis(field, g.inv(s)),
        commutative=g.abelian, cocommutative=True, name=name)
    mha.cyclic_order = g.cyclic_order
    return mha


# -- Sweedler's 4-dimensional Hopf algebra -----------------------------------

_H4_SYMS = {(0, 0): "1", (1, 0): "g", (0, 1): "x", (1, 1): "gx"}
_H4_EXPS = {v: k for k, v in _H4_SYMS.items()}


def sweedler_h4(field, name="sweedler-H4"):
    """Basis {1, g, x, gx}; g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g(x)g,
    Delta(x) = x(x)1 + g(x)x; S(g) = g, S(x) = -gx, so S^2 != id."""
    if field.from_int(2) == 0:
        raise ValueError("Sweedler H4 needs characteristic != 2")

    def mult_basis(a, b):
        i, j = _H4_EXPS[a]
        k, l = _H4_EXPS[b]
        if j + l >= 2:
            return Element(field)  # x^2 = 0
        sign = field.from_int(-1) if (j and k) else 1  # x g = -g x
        return Element.basis(field, _H4_SYMS[((i + k) % 2, j + l)], sign)

    basis = ["1", "g", "x", "gx"]
    unit = Element.basis(field, "1")
    alg = Algebra(field, mult_basis, Space(basis), unit=unit, name=name)

    def e(s, c=None):
        return Element.basis(field, s, c)

    minus = field.from_int(-1)
    cop = {
        "1": tensor(e("1"), e("1")),
        "g": tensor(e("g"), e("g")),
        "x": tensor(e("x"), e("1")) + tensor(e("g"), e("x")),
        # Delta(gx) = Delta(g)Delta(x) = gx (x) g + 1 (x) gx
        "gx": tensor(e("gx"), e("g")) + tensor(e("1"), e("gx")),
    }
    counit = {"1": 1, "g": 1, "x": 0, "gx": 0}
    anti = {"1": e("1"), "g": e("g"), "x": e("gx", minus), "gx": e("x")}
    anti_inv = {"1": e("1"), "g": e("g"), "x": e("gx"), "gx": e("x", minus)}

    return from_unital_coproduct(
        alg, lambda s: cop[s], lambda s: counit[s],
        lambda s: anti[s], lambda s: anti_inv[s],
        commutative=False, cocommutative=False, name=name)


# -- dual of a finite-dimensional unital instance -----------------------------

def dual_sym(s):
    return ("^", s)


def transpose(field, domain, f):
    """The transpose of a linear map given on the basis symbols `domain` by
    f(a) -> Element, as a basis map on functionals:
    transpose(field, domain, f)(k^) = sum_a f(a)[k] a^.  Symbols are
    dualized legwise, so a functional on a tensor power is a tensor of dual
    symbols.  The first read of any column evaluates f once per domain
    symbol and files each coefficient f(a)[k] into the row of k, so n
    columns cost n evaluations of f, not n^2; a column is its row, not a
    copy (no row is written after that pass), and an unreached column is 0.
    Memoize the columns in the one table that reads them."""
    rows = None

    def column(k):
        nonlocal rows
        if rows is None:
            rows = {}
            for a in domain:
                da = make_sym(tuple(map(dual_sym, legs(a))))
                for s, c in f(a).terms.items():
                    rows.setdefault(s, {})[da] = c
        return Element(field, rows.get(make_sym(tuple(p[1] for p in legs(k)))))
    return column


class DualHopf(MultiplierHopfAlgebra):
    """The dual Hopf algebra on the dual basis, with the canonical pairing
    and the two coregular actions (a |> p)(x) = p(xa), (p <| a)(x) = p(ax).

    Every structure map, and both actions, is the transpose of a base map:
    the product transposes Delta, the coproduct m, the antipode and its
    inverse S and S^-1, and a |> . and . <| a right and left multiplication
    by a (one transpose per symbol a, read per pair).  Each transpose is
    filled in one pass over its base map, and each column is memoized in
    the one table that reads it, which assumes the base's structure maps
    are pure.  The basis maps passed on remain the instance's own closures,
    so a copy.copy whose _antipode is replaced sees its replacement.
    """

    def __init__(self, base, name):
        if base.algebra.basis is None or not base.algebra.has_unit:
            raise ValueError("dual requires a finite-dimensional unital instance")
        field = base.field
        self.base = base
        bsyms = base.algebra.basis
        mult = base.algebra.mult_basis

        # (pq)(a) = (p (x) q)(Delta(a)),  <Delta(p), a (x) b> = p(ab),
        # S(p) = p o S,  S^-1(p) = p o S^-1; the base's maps are read when
        # a column is first needed
        product = transpose(field, bsyms, lambda a: base._coproduct(a))
        # the one memo of the coproduct, read by all four slices
        coproduct = Memo(transpose(
            field, [Ten((a, b)) for a in bsyms for b in bsyms],
            lambda t: mult[legs(t)])).__getitem__
        dual_s = transpose(field, bsyms, lambda a: base._antipode(a))
        dual_s_inv = transpose(field, bsyms, lambda a: base._antipode_inv(a))

        unit = Element(field, {dual_sym(a): base.counit(base.el(a)) for a in bsyms})
        alg = Algebra(field, lambda p, q: product(Ten((p, q))),
                      Space(map(dual_sym, bsyms)), unit=unit, name=name)

        def counit(p):  # eps(p) = p(1)
            return base.algebra.unit.coeff(p[1])

        # named, so that perfbench/layertrace.py can count dual antipode calls
        def anti(p):
            return dual_s(p)

        def anti_inv(p):
            return dual_s_inv(p)

        # a |> p = p o (. a), x -> p(xa), and p <| a = p o (a .),
        # x -> p(ax): one transpose per basis symbol a, read per pair
        times_a = Memo(lambda a: transpose(field, bsyms, lambda x: mult[x, a]))
        a_times = Memo(lambda a: transpose(field, bsyms, lambda x: mult[a, x]))
        self.act_left = bilinear(field, lambda a, p: times_a[a](p))
        self.act_right = bilinear(field, lambda p, a: a_times[a](p))

        super().__init__(alg, **unital_slices(alg, coproduct),
                         counit=counit, antipode=anti, antipode_inv=anti_inv,
                         coproduct=coproduct,
                         commutative=base.cocommutative,
                         cocommutative=base.commutative, name=name)

    def pairing(self, p, a):
        """<p, a> for p in the dual, a in the base."""
        return self.field.reduce(
            sum(c * a.coeff(s[1]) for s, c in p.terms.items()))


def dual_hopf(base, name=None):
    return DualHopf(base, name or ("dual:" + base.name))


# -- integrals on finite-dimensional unital instances -------------------------

class IntegralData:
    """A left integral functional phi and a left cointegral t with phi(t)=1."""

    def __init__(self, mha, phi_coeffs, t):
        self.mha = mha
        self.phi_coeffs = phi_coeffs  # basis sym -> scalar
        self.t = t

    def phi(self, x):
        return self.mha.field.reduce(
            sum(c * self.phi_coeffs.get(s, 0) for s, c in x.terms.items()))

    def verify(self):
        """Re-check both defining equations on every basis element, then
        phi(t) = 1; raises ConstructionError, naming the integral, the
        cointegral or phi(t), at the first that fails."""
        mha = self.mha
        for s in mha.algebra.basis:
            a = mha.el(s)
            lhs = mha.coproduct(a).map_legs(  # (i (x) phi)Delta(a)
                lambda l1, l2: mha.el(l1, self.phi_coeffs.get(l2, 0)))
            if lhs != mha.algebra.unit.scaled(self.phi(a)):
                raise ConstructionError("integral equation fails at a=%r" % a)
            if mha.algebra.mult(a, self.t) != self.t.scaled(mha.counit(a)):
                raise ConstructionError("cointegral equation fails at a=%r" % a)
        if self.phi(self.t) != 1:
            raise ConstructionError("phi(t) != 1")


def compute_integrals(mha):
    """Solve the defining linear systems for (phi, t) and normalize phi(t)=1.

    Per basis symbol a, each system is an Element of A (x) X that must
    vanish, X the span of the unknowns phi_s or t_s: (i (x) phi)Delta(a) -
    1 (x) phi_a, and a.T - eps(a)T with T = sum_s s (x) t_s.  Its equations
    are its rows by A-leg, in any order: kernel_basis sorts the unknowns,
    and a reduced row echelon form is unique for that column order.  The
    first kernel pair with phi(t) != 0 is normalized and verified.  Raises
    ConstructionError when no normalized solution exists over the
    configured field.
    """
    if mha.algebra.basis is None or not mha.algebra.has_unit:
        raise ValueError("integrals are computed on finite-dimensional unital instances only")
    field, alg = mha.field, mha.algebra
    bsyms = alg.basis  # the basis of A, and the index set of the unknowns

    def kernel(kind, system):  # the equations of system(a) = 0, every a
        rows = []
        for a in bsyms:
            by_leg = {u: {} for u in bsyms}
            for sym, c in system(a).terms.items():
                u, x = legs(sym)
                by_leg[u][x] = c
            rows.extend(Element(field, r) for r in by_leg.values())
        return kernel_basis(rows, syms=[(kind, s) for s in bsyms])

    phis = kernel("phi", lambda a: mha.coproduct(mha.el(a)).map_legs(
        lambda u, s: mha.el(Ten((u, ("phi", s)))))
        - tensor(alg.unit, mha.el(("phi", a))))
    T = Element(field, {Ten((s, ("t", s))): 1 for s in bsyms})
    ts = kernel("t", lambda a: apply_legs(T, 0, 1, lambda y: alg.mult(mha.el(a), y))
                - T.scaled(mha.counit(mha.el(a))))

    if not phis or not ts:
        raise ConstructionError("no nonzero integral/cointegral over %s" % field.name)

    # pick the first kernel vectors (deterministic order) and normalize
    for phi_vec in phis:
        for t_vec in ts:
            phi_coeffs = {s[1]: c for s, c in phi_vec.terms.items()}
            t = Element(field, {s[1]: c for s, c in t_vec.terms.items()})
            data = IntegralData(mha, phi_coeffs, t)
            norm = data.phi(t)
            if norm != 0:
                data.phi_coeffs = {s: field.div(c, norm) for s, c in phi_coeffs.items()}
                data.verify()
                return data
    raise ConstructionError("phi(t) = 0 for every kernel pair; cannot normalize")


# -- Hopf algebra automorphisms ----------------------------------------------

class Identity:
    """The identity automorphism, one object for every instance: applying
    it, inverting it or composing with it is one call that returns its
    argument (it is not a HopfAutomorphism, whose application costs two).
    Code that twists by an automorphism tests `aut is ID` where the
    untwisted case reads a table instead."""

    name = "id"

    def __call__(self, x):
        return x

    def inverse(self, x):
        return x

    def inverted(self):
        return self

    def composed(self, other):
        return other


ID = Identity()


class HopfAutomorphism:
    """A Hopf automorphism of mha as the two maps it stores: fwd and its
    inverse inv, linear maps on Elements.  It checks nothing: automorphism
    builds one from basis formulas and checks it there.  inverted() swaps
    the two maps, so it shares their tables, and composed() is the
    composition of its factors' maps, not a table of its own: a pair
    product builds fresh composites that are read only a few times each,
    where filling a table would cost more than it saves.  A composite with
    ID is the automorphism itself."""

    def __init__(self, mha, fwd, inv, name):
        self.mha = mha
        self._fwd = fwd  # Element -> Element
        self._inv = inv
        self.name = name

    def __call__(self, x):
        return self._fwd(x)

    def inverse(self, x):
        return self._inv(x)

    def inverted(self):
        return HopfAutomorphism(self.mha, self._inv, self._fwd,
                                self.name + "^-1")

    def composed(self, other):
        """self o other."""
        if other is ID:
            return self
        return HopfAutomorphism(
            self.mha, lambda x: self._fwd(other._fwd(x)),
            lambda x: other._inv(self._inv(x)),
            "%s.%s" % (self.name, other.name))


def automorphism(mha, fwd_basis, inv_basis, name):
    """The Hopf automorphism whose map and inverse are the linear
    extensions of the basis formulas fwd_basis and inv_basis, each read
    from a table (as the structure maps are), so two reads of one symbol
    give the identical Element.  It is checked here, on 24 probe elements
    (every basis vector of a finite carrier) and 24 products drawn from a
    stream seeded at 0: raises ConstructionError unless it is a bijection,
    an algebra map and respects the coproduct on them."""
    aut = HopfAutomorphism(mha, linear(mha.field, fwd_basis),
                           linear(mha.field, inv_basis), name)
    rng = random.Random(0)
    probe = probe_elements(rng, mha.algebra, 24)
    for a in probe:
        if aut.inverse(aut(a)) != a or aut(aut.inverse(a)) != a:
            raise ConstructionError("%s: not a bijection at a=%r" % (name, a))
    for _ in range(24):
        a = probe[below(rng, len(probe))]
        b = probe[below(rng, len(probe))]
        if aut(mha.algebra.mult(a, b)) != mha.algebra.mult(aut(a), aut(b)):
            raise ConstructionError(
                "%s: not an algebra map at a=%r b=%r" % (name, a, b))
        # sliced form of (Delta o alpha) = (alpha (x) alpha) o Delta
        image = mha.delta_r(aut(a), aut(b))
        if image != apply_legs(apply_legs(mha.delta_r(a, b), 0, 1, aut), 1, 1, aut):
            raise ConstructionError(
                "%s: does not respect the coproduct at a=%r b=%r" % (name, a, b))
    return aut


class AutoPair:
    """An element (alpha, beta) of the twisted square of the automorphism
    group, with product (a, b)#(c, d) = (ac, d c^-1 b c)."""

    def __init__(self, alpha, beta, name=None):
        if ID not in (alpha, beta) and alpha.mha is not beta.mha:
            raise ValueError("automorphisms over different instances")
        self.alpha = alpha
        self.beta = beta
        self.name = name or ("(%s,%s)" % (alpha.name, beta.name))

    def product(self, other):
        a, b = self.alpha, self.beta
        c, d = other.alpha, other.beta
        return AutoPair(a.composed(c),
                        d.composed(c.inverted()).composed(b).composed(c),
                        name="%s#%s" % (self.name, other.name))

    def inverse(self):
        a, b = self.alpha, self.beta
        return AutoPair(a.inverted(),
                        a.composed(b.inverted()).composed(a.inverted()),
                        name="%s^-1" % self.name)

    def agrees_with(self, other, probes):
        return all(self.alpha(x) == other.alpha(x)
                   and self.beta(x) == other.beta(x) for x in probes)


#: the identity pair (ID, ID): one object for every instance
IDENTITY_PAIR = AutoPair(ID, ID, name="(i,i)")


def group_map_automorphism(mha, phi, phi_inv, name):
    """Lift a group automorphism to K(G) or KG (both have group-element
    basis symbols)."""
    return automorphism(mha, lambda s: mha.el(phi(s)),
                        lambda s: mha.el(phi_inv(s)), name)


def inner_automorphism(mha, g):
    """Conjugation by a group element on a group algebra: x -> g x S(g),
    with inverse x -> S(g) x g; the antipode of g is taken once."""
    alg = mha.algebra
    ge = mha.el(g)
    sg = mha.antipode(ge)
    return automorphism(mha, lambda s: alg.mult(alg.mult(ge, alg.el(s)), sg),
                        lambda s: alg.mult(alg.mult(sg, alg.el(s)), ge),
                        "conj:%r" % (g,))


def h4_scaling_automorphism(mha, lam):
    """g -> g, x -> lam * x on Sweedler H4 (lam invertible)."""
    if mha.algebra.basis != ["1", "g", "x", "gx"]:
        raise ValueError("scaling pairs need the basis 1, g, x, gx of "
                         "Sweedler's H4, not %s's" % mha.name)
    if lam == 0:
        raise ConstructionError("scaling parameter must be invertible")
    lam_inv = mha.field.div(1, lam)
    return automorphism(
        mha, lambda s: mha.el(s, lam if "x" in s else None),
        lambda s: mha.el(s, lam_inv if "x" in s else None), "scale:%s" % lam)


# -- quasitriangular structures ----------------------------------------------

class QTStructure:
    """An invertible R in A (x) A (materialized; finite unital instances).

    check records its five axioms in the report it is given (the fusion
    identities read materialized coproducts)."""

    def __init__(self, mha, r, r_inv):
        self.mha = mha
        self.r = r
        self.r_inv = r_inv

    def check(self, report):
        mha = self.mha
        alg = mha.algebra
        unit2 = tensor(alg.unit, alg.unit)
        report.check("qt-invertible", "R R^-1 = R^-1 R = 1 (x) 1",
                     alg.mult_tensor(self.r, self.r_inv), unit2)
        report.check("qt-invertible-2", "R^-1 R = 1 (x) 1",
                     alg.mult_tensor(self.r_inv, self.r), unit2)

        # on each basis symbol a, with d = Delta(a)
        report.law("qt-intertwine", "Delta^cop(a) R = R Delta(a)",
                   equal(lambda a, d: alg.mult_tensor(flip(d), self.r),
                         lambda a, d: alg.mult_tensor(self.r, d)),
                   ((s, mha.coproduct(mha.el(s))) for s in alg.basis))

        r12 = tensor(self.r, alg.unit)
        r23 = tensor(alg.unit, self.r)
        r13 = apply_legs(self.r, 0, 1, lambda a: tensor(a, alg.unit))
        r13_23 = alg.mult_tensor(r13, r23)
        lhs = apply_legs(self.r, 0, 1, mha.coproduct)
        report.check("qt-fusion-left", "(Delta (x) i)R = R13 R23", lhs, r13_23)
        r13_12 = alg.mult_tensor(r13, r12)
        lhs = apply_legs(self.r, 1, 1, mha.coproduct)
        report.check("qt-fusion-right", "(i (x) Delta)R = R13 R12", lhs, r13_12)


def qt_for_cyclic(n, field, mha=None):
    """R = n^-1 sum_ij w^(ij) g^i (x) g^j on the group algebra of Z/n, where
    w is a primitive n-th root of unity in the field."""
    mha = mha or group_algebra(group_Zn(n), field)
    w = field.primitive_root_of_unity(n)
    if w is None:
        raise ConstructionError("no primitive %d-th root of unity in %s" % (n, field.name))
    n_inv = field.div(1, field.from_int(n))

    def build(root):
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * root)
        return Element(field, {Ten((i, j)): powers[(i * j) % n] * n_inv
                               for i in range(n) for j in range(n)})

    w_inv = field.div(1, w)
    return QTStructure(mha, build(w), build(w_inv))


# -- registry -----------------------------------------------------------------

def _cyclic(field, name):
    n = name.partition(":")[2]
    if not n.isdecimal() or int(n) < 1:
        raise ValueError("grp-Zn:<n> needs a whole number n >= 1, not %r" % n)
    if n != str(int(n)):  # one name per group, as in grp-Zn:4
        raise ValueError("grp-Zn:<n> needs n in ASCII digits with no leading "
                         "zero, as in grp-Zn:%d, not %r" % (int(n), n))
    return group_algebra(group_Zn(int(n)), field, name)


#: listed name -> (build(field, name), pairs(field) -> the --pair specs of the
#: twisted automorphism pairs offered, or None).  A family's listed name ends
#: in a placeholder for what follows the ":", as in grp-Zn:4 or dual:grp-S3.
INSTANCES = {
    "fun-Z": (lambda f, name: function_algebra(group_Z(), f, name), None),
    "fun-Dinf": (lambda f, name: function_algebra(group_Dinf(), f, name), None),
    # conjugation by (1, 0, 2) and by (1, 2, 0), basis entries 2 and 3
    "grp-S3": (lambda f, name: group_algebra(group_S3(), f, name),
               lambda f: ("inner:2,3", "inner:3,2")),
    "grp-Z2": (lambda f, name: group_algebra(group_Zn(2), f, name), None),
    "grp-Zn:<n>": (_cyclic, None),
    "sweedler-H4": (sweedler_h4, lambda f: ("scale:2,3", "scale:3,2")
                    if f.name == "rational" else ()),
    "dual:<name>": (lambda f, name: dual_hopf(
        build_instance(name.partition(":")[2], f), name), None),
}

INSTANCE_NAMES = list(INSTANCES)


def build_instance(name, field):
    """Construct a registered instance by name, with the pairs it offers."""
    head, sep, _ = name.partition(":")
    for listed, (build, pairs) in INSTANCES.items():
        if listed.partition(":")[:2] == (head, sep):
            mha = build(field, name)
            mha.pair_specs = pairs(field) if pairs else ()
            return mha
    raise KeyError("unknown instance %r" % name)


#: the five core instances exercised by every suite
CORE_INSTANCES = ["fun-Z", "fun-Dinf", "grp-S3", "grp-Z2", "sweedler-H4"]
