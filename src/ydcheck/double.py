"""Diagonal crossed products of a finite-dimensional unital instance with its
dual, Drinfel'd doubles, the correspondence between twisted Yetter-Drinfel'd
modules and modules over the crossed product, and smash products.

The crossed product at a pair (alpha, beta) is the dual and the base glued
by one exchange rule, for q in the dual and a in the base:

    (1 >< a)(q >< 1) = alpha(a_(1)) |> q <| S^-1(beta(a_(3))) >< a_(2)

with the coregular actions (a |> p)(x) = p(xa) and (p <| a)(x) = p(ax):
alpha(a_(1)) acts on the left of q and S^-1(beta(a_(3))) on its right (the
standard orientation, which the correspondence round trips certify).  The
rule is evaluated once per basis pair (a, q), and every product reads it:

    (p >< a)(q >< b) = (p >< 1)(1 >< a)(q >< 1)(1 >< b)
        = p (alpha(a_(1)) |> q <| S^-1(beta(a_(3)))) >< a_(2) b

check_dcp proves associativity over every basis triple when the base has
dimension <= 4, but evaluates only the triples the product table's support
leaves live.  With T the table and right[k] = {z : T[k, z] != 0},

    (xy)z = sum_{k in xy} c_k T[k, z],   x(yz) = sum_{m in yz} c_m T[x, m],

so both sides are exactly 0 unless z lies in right[y] or in right[k] for a
term k of xy.  Every other triple holds, and the live ones are walked in
the dense order, so a failure has the dense scan's witness.  Each side is
read off table rows, never through the product of a wrapped basis symbol.
"""

import random

from .linear import (Element, Ten, Memo, Memo2, tensor, legs, make_sym,
                     sym_str, apply_legs, bilinear)
from .mha import Space, Algebra, draws
from .modules import UnitalModule, Coaction
from .yd import YDModule, split_sym, canonical_yd
from .gyd import check_gyd, trivial_gyd
from .report import Report
from .instances import dual_hopf, dual_sym, compute_integrals, identity_pair


class DiagonalCrossedProduct:
    """The crossed-product algebra on basis symbols (p_s >< t), together
    with the coalgebra structure used by smash products.

    The exchange rule is a table per basis pair (a, q), and it reads
    a_(1) (x) a_(2) (x) a_(3) from a table per basis symbol a, so Delta^2(a)
    is computed n times for a base of dimension n, not n^2."""

    def __init__(self, base, pair=None, name=None):
        if base.algebra.basis is None or not base.algebra.has_unit:
            raise ValueError("the crossed product needs a finite-dimensional "
                             "unital instance")
        self.base = base
        self.dual = dual_hopf(base)
        self.pair = pair if pair is not None else identity_pair(base)
        self.field = base.field
        self.name = name or ("%s><%s@%s" % (self.dual.name, base.name,
                                            self.pair.name))
        alpha, beta = self.pair.alpha, self.pair.beta
        dual, field = self.dual, self.field
        # a_(1) (x) a_(2) (x) a_(3), once per basis symbol a
        sweedler3 = Memo(lambda a: base.sweedler(base.el(a), 3))

        def exchange_basis(a, q):  # (1 >< a)(q >< 1)
            def term(s):
                a1, a2, a3 = legs(s)
                moved = dual.act_right(
                    dual.act_left(alpha(base.el(a1)), dual.el(q)),
                    base.antipode_inv(beta(base.el(a3))))
                return tensor(moved, base.el(a2))
            return sweedler3[a].map_terms(term)

        exchange = Memo2(exchange_basis)
        dual_mult, base_mult = dual.algebra.mult_basis, base.algebra.mult_basis

        def mult_basis(s1, s2):  # (p >< 1)(1 >< a)(q >< 1)(1 >< b)
            p, a = legs(s1)
            q, b = legs(s2)

            def term(s):
                r, c = legs(s)
                return tensor(dual_mult[p, r], base_mult[c, b])
            return exchange[a, q].map_terms(term)

        basis = [Ten((dual_sym(s), t)) for s in base.algebra.basis
                 for t in base.algebra.basis]
        unit = tensor(dual.algebra.unit, base.algebra.unit)
        self.algebra = Algebra(field, mult_basis, Space(basis), unit=unit,
                               name=self.name)

    def element(self, p, a):
        """p >< a for p in the dual and a in the base (Elements)."""
        return tensor(p, a)

    def counit(self, d):
        """eps(p >< a) = p(1) eps(a)."""
        def eps(s):
            p, a = legs(s)
            return (self.dual.counit(self.dual.el(p))
                    * self.base.counit(self.base.el(a)))
        return self.field.reduce(sum(c * eps(s) for s, c in d.terms.items()))

    def coproduct(self, d):
        """Delta(p >< a) = (p_(2) >< a_(1)) (x) (p_(1) >< a_(2)): the dual
        leg carries the opposite coproduct."""
        def regroup(s):  # p_(1) (x) p_(2) (x) a_(1) (x) a_(2)
            p1, p2, a1, a2 = legs(s)
            return Element.basis(self.field, Ten((Ten((p2, a1)), Ten((p1, a2)))))

        def term(s):
            p, a = legs(s)
            return tensor(self.dual.coproduct(self.dual.el(p)),
                          self.base.coproduct(self.base.el(a))).map_terms(regroup)
        return d.map_terms(term)

    def structure_constants(self):
        """The full multiplication table, JSON-ready and deterministic."""
        labels = [sym_str(s) for s in self.algebra.basis]
        table = []
        index = {s: i for i, s in enumerate(self.algebra.basis)}
        mult = self.algebra.mult_basis
        for i, s1 in enumerate(self.algebra.basis):
            for j, s2 in enumerate(self.algebra.basis):
                prod = mult[s1, s2]
                entries = sorted((index[s], str(c))
                                 for s, c in prod.terms.items())
                if entries:
                    table.append([i, j, [[k, c] for k, c in entries]])
        return {"name": self.name, "convention": "standard",
                "basis": labels, "table": table}


def drinfeld_double(base, name=None):
    """The crossed product at the identity pair."""
    return DiagonalCrossedProduct(base, identity_pair(base),
                                  name=name or ("D(%s)" % base.name))


def check_dcp_suite(mha, samples=200, seed=0):
    """check_dcp on the Drinfeld double, at no fewer than 200 samples."""
    return check_dcp(drinfeld_double(mha), samples=max(samples, 200),
                     seed=seed)


def check_dcp(dcp, samples=500, seed=0, suite="dcp"):
    """Associativity (exhaustive on small bases, sampled otherwise) and the
    unit law.

    A triple sums T[k, z] over the terms k of xy against T[x, m] over the
    terms m of yz, reading rows of the product table T.  The exhaustive pass
    evaluates only live triples: with right[k] = {z : T[k, z] != 0}, both
    sides are exactly 0 unless z lies in right[y] or in right[k] for a term
    k of xy.  Every skipped triple holds and the live ones keep the dense
    order, so the witness is the dense scan's first failing triple."""
    alg = dcp.algebra
    basis = alg.basis
    n = len(dcp.base.algebra.basis)
    rep = Report(suite, dcp.name, dcp.field.name, seed, samples)
    rng = random.Random(seed)
    mult = alg.mult_basis

    if n <= 4:
        mode = "exhaustive over %d basis triples" % len(basis) ** 3
        right = {k: {z for z in basis if mult[k, z].terms} for k in basis}

        def live():
            for x in basis:
                for y in basis:
                    reach = right[y].union(*map(right.get, mult[x, y].terms))
                    for z in basis:
                        if z in reach:
                            yield x, y, z
        triples = live()
    else:
        sample = alg.space.sample
        triples = ((sample(rng), sample(rng), sample(rng))
                   for _ in range(samples))
        mode = "sampled over %d basis triples" % samples

    def check(x, y, z):
        if (mult[x, y].map_terms(lambda k: mult[k, z])
                != mult[y, z].map_terms(lambda m: mult[x, m])):
            return "x=%r y=%r z=%r" % (x, y, z)
    rep.law("dcp-assoc", "(xy)z = x(yz), " + mode, check, triples)

    def check(x):
        ex = alg.el(x)
        if alg.mult(alg.unit, ex) != ex or alg.mult(ex, alg.unit) != ex:
            return "x=%r" % (x,)
    rep.law("dcp-unit", "eps >< 1 is a two-sided unit", check, zip(alg.basis))
    return rep


# -- modules over the crossed product -------------------------------------------

class DcpModule:
    """A left module over a crossed product on a finite carrier Space,
    given by its action on basis symbols of both sides, memoized per basis
    pair and read by symbol as M.act_basis[d_sym, m_sym]."""

    def __init__(self, dcp, act_basis, space, name=None):
        self.dcp = dcp
        self.field = dcp.field
        self.act_basis = Memo2(act_basis)
        self._act = bilinear(self.field, self.act_basis)
        self.space = space
        self.basis = space.basis
        self.name = name or "dcp-module"

    def el(self, sym, coeff=None):
        return Element.basis(self.field, sym, coeff)

    def act(self, d, m):
        return self._act(d, m)


def check_dcp_module(M, samples=60, seed=0, suite="dcp"):
    """Module associativity and the unit law over the crossed product."""
    dcp = M.dcp
    alg = dcp.algebra
    rep = Report(suite, "%s/%s" % (dcp.name, M.name), dcp.field.name, seed, samples)
    rng = random.Random(seed)

    def check(d, dp, m):
        if M.act(alg.mult(d, dp), m) != M.act(d, M.act(dp, m)):
            return "d=%r d'=%r m=%r" % (d, dp, m)
    rep.law("dcp-module-assoc", "(dd').m = d.(d'.m)", check,
            draws(rng, samples, (alg, None), (alg, None), (M, None)))

    def check(s):
        if M.act(alg.unit, M.el(s)) != M.el(s):
            return "m=%r" % (s,)
    rep.law("dcp-module-unit", "(eps >< 1).m = m", check, zip(M.basis))
    return rep


def regular_dcp_module(dcp, name=None):
    """The crossed product acting on itself by left multiplication."""
    mult = dcp.algebra.mult_basis
    return DcpModule(dcp, lambda d, m: mult[d, m], dcp.algebra.space,
                     name=name or (dcp.name + ":regular"))


def yd_to_dcp_module(V, dcp=None):
    """A twisted YD module as a module over the crossed product:
    (p >< a).m = p((a.m)_(1)) (a.m)_(0)."""
    base = V.mha
    if dcp is None:
        dcp = DiagonalCrossedProduct(base, V.pair)
    dual = dcp.dual
    if V.module.basis is None:
        raise ValueError("the correspondence needs a finite-dimensional carrier")

    def act_basis(dsym, msym):
        p, a = legs(dsym)

        def pair_leg(s):  # m_(0) p(m_(1))
            m0, m1 = split_sym(s, V.module.arity)
            return V.module.el(m0, dual.pairing(dual.el(p), base.el(m1)))

        def term(s):  # (a.m)_(0) p((a.m)_(1))
            return V.coaction.slice_r(V.module.el(s),
                                      base.algebra.unit).map_terms(pair_leg)
        return V.module.act_basis[a, msym].map_terms(term)

    return DcpModule(dcp, act_basis, V.module.space,
                     name=V.name + ":as-dcp-module")


def dcp_module_to_yd(M, integrals=None, name=None):
    """A module over the crossed product as a twisted YD module:
    a.m = (eps >< a).m and the coaction
    m_(0) (x) m_(1) = (phi(. t_(2)) >< 1).m (x) S^-1(t_(1))."""
    dcp = M.dcp
    base = dcp.base
    dual = dcp.dual
    field = dcp.field
    if integrals is None:
        integrals = compute_integrals(base)

    def act_basis(asym, msym):
        d = tensor(dual.algebra.unit, base.el(asym))
        return M.act(d, M.el(msym))

    # carrier symbols may themselves be tensors (e.g. the regular module of
    # the crossed product); track their leg count so slices split correctly
    ar = len(legs(M.basis[0]))
    mod = UnitalModule(base, act_basis, M.space, arity=ar,
                       name=(name or M.name) + ":as-yd")

    # materialize the coaction once per carrier basis symbol
    cop_t = base.coproduct(integrals.t)
    phi = Element(field, {dual_sym(s): c for s, c in integrals.phi_coeffs.items()})

    def coaction_of(msym):
        def term(s):
            t1, t2 = legs(s)  # phi(. t_(2)) = t_(2) |> phi
            moved = M.act(tensor(dual.act_left(base.el(t2), phi),
                                 base.algebra.unit), M.el(msym))
            return tensor(moved, base.antipode_inv(base.el(t1)))
        return cop_t.map_terms(term)

    coact = {msym: coaction_of(msym) for msym in M.basis}

    def slice_r(msym, asym):
        return apply_legs(coact[msym], ar, 1,
                          lambda m1: base.algebra.mult(m1, base.el(asym)))

    coa = Coaction(mod, slice_r, name=mod.name + ":coact")
    return YDModule(mod, coa, dcp.pair, name=mod.name)


def check_double_correspondence(mha, gyds, samples=40, seed=0,
                                suite="double-correspondence"):
    """Both round trips of the correspondence, module validity of the
    forward image, and GYD validity of the backward image (including the
    regular crossed-product module)."""
    rep = Report(suite, mha.name, mha.field.name, seed, samples)
    rng = random.Random(seed)
    integrals = compute_integrals(mha)

    for V in gyds:
        dcp = DiagonalCrossedProduct(mha, V.pair)
        M = yd_to_dcp_module(V, dcp)
        rep.merge(check_dcp_module(M, samples=samples, seed=seed, suite=suite),
                  V.name)

        back = dcp_module_to_yd(M, integrals)

        # a' is drawn only once the actions agree
        more = draws(rng, samples, mha.algebra)

        def check(a, v):
            if back.module.act(a, v) != V.module.act(a, v):
                return "action differs at a=%r v=%r" % (a, v)
            ap, = next(more)
            if back.coaction.slice_r(v, ap) != V.coaction.slice_r(v, ap):
                return ("coaction differs at v=%r a'=%r: %r vs %r"
                        % (v, ap, back.coaction.slice_r(v, ap),
                           V.coaction.slice_r(v, ap)))
        rep.law("yd-roundtrip[%s]" % V.name,
                "dcpModuleToYd(ydToDcpModule(V)) = V extensionally", check,
                draws(rng, samples, mha.algebra, (V.module, 3)))

    # the other direction, from the regular crossed-product module
    dcp = DiagonalCrossedProduct(mha, gyds[0].pair if gyds else None)
    R = regular_dcp_module(dcp)
    W = dcp_module_to_yd(R, integrals)
    rep.merge(check_gyd(W, samples=samples, seed=seed, suite=suite), "regular")
    M2 = yd_to_dcp_module(W, dcp)
    alg = dcp.algebra

    def check(d, m):
        if M2.act(d, m) != R.act(d, m):
            return "d=%r m=%r" % (d, m)
    rep.law("module-roundtrip",
            "ydToDcpModule(dcpModuleToYd(M)) = M extensionally", check,
            draws(rng, samples, (alg, None), (R, None)))
    return rep


def check_double_correspondence_suite(mha, samples=40, seed=0):
    """check_double_correspondence on the trivial and the canonical YD module."""
    return check_double_correspondence(
        mha, [trivial_gyd(mha), canonical_yd(mha)], samples, seed)


# -- smash products ---------------------------------------------------------------

def smash_product(dcp, carrier, act, samples=40, seed=0, name=None):
    """The smash product of a unital module algebra over the crossed
    product: (h # d)(h' # d') = h (d_(1).h') # d_(2) d'.

    `carrier` is a unital Algebra and `act(d, h)` the action; the
    module-algebra law d.(hh') = (d_(1).h)(d_(2).h') and the unit laws are
    verified on samples and violations are rejected.
    """
    field = dcp.field
    alg = dcp.algebra
    rng = random.Random(seed)

    for d, h, hp in draws(rng, samples, (alg, None), (carrier, None),
                          (carrier, None)):
        lhs = act(d, carrier.mult(h, hp))

        def term(s):
            d1, d2 = legs(s)
            return carrier.mult(act(alg.el(d1), h), act(alg.el(d2), hp))
        rhs = dcp.coproduct(d).map_terms(term)
        if lhs != rhs:
            raise ValueError(
                "not a module algebra over %s: d.(hh') != (d_(1).h)(d_(2).h') "
                "at d=%r h=%r h'=%r" % (dcp.name, d, h, hp))
        if act(d, carrier.unit) != carrier.unit.scaled(dcp.counit(d)):
            raise ValueError(
                "not a module algebra over %s: d.1 != eps(d)1 at d=%r"
                % (dcp.name, d))

    # symbols are flattened h-legs followed by crossed-product legs
    ha = len(legs(carrier.basis[0]))

    def mult_basis(s1, s2):
        ls1, ls2 = legs(s1), legs(s2)
        h, d = make_sym(ls1[:ha]), make_sym(ls1[ha:])
        hp, dp = make_sym(ls2[:ha]), make_sym(ls2[ha:])

        def term(s):
            d1, d2 = legs(s)
            moved = act(alg.el(d1), carrier.el(hp))
            return tensor(carrier.mult(carrier.el(h), moved),
                          alg.mult_basis[d2, dp])
        return dcp.coproduct(alg.el(d)).map_terms(term)

    unit = tensor(carrier.unit, alg.unit)
    return Algebra(field, mult_basis, carrier.space.tensor(alg.space),
                   unit=unit, name=name or ("%s#%s" % (carrier.name, dcp.name)))
