"""Diagonal crossed products of a finite-dimensional unital instance with its
dual, Drinfel'd doubles, and the correspondence between twisted
Yetter-Drinfel'd modules and modules over the crossed product.

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

from .linear import Element, Ten, Memo, Memo2, tensor, legs, apply_legs
from .mha import Space, Algebra
from .modules import UnitalModule, Coaction
from .yd import YDModule, canonical_yd
from .gyd import check_gyd, trivial_gyd
from .report import Report, equal
from .instances import dual_hopf, dual_sym, compute_integrals, identity_pair


class DiagonalCrossedProduct:
    """The crossed-product algebra on basis symbols (p_s >< t), all that the
    dump and the correspondence with twisted YD modules read.

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
            def term(a1, a2, a3):
                moved = dual.act_right(
                    dual.act_left(alpha(base.el(a1)), dual.el(q)),
                    base.antipode_inv(beta(base.el(a3))))
                return tensor(moved, base.el(a2))
            return sweedler3[a].map_legs(term)

        exchange = Memo2(exchange_basis)
        dual_mult, base_mult = dual.algebra.mult_basis, base.algebra.mult_basis

        def mult_basis(s1, s2):  # (p >< 1)(1 >< a)(q >< 1)(1 >< b)
            p, a = legs(s1)
            q, b = legs(s2)

            return exchange[a, q].map_legs(
                lambda r, c: tensor(dual_mult[p, r], base_mult[c, b]))

        basis = [Ten((dual_sym(s), t)) for s in base.algebra.basis
                 for t in base.algebra.basis]
        unit = tensor(dual.algebra.unit, base.algebra.unit)
        self.algebra = Algebra(field, mult_basis, Space(basis), unit=unit,
                               name=self.name)

    def structure_constants(self):
        """The full multiplication table, JSON-ready and deterministic."""
        labels = list(map(repr, self.algebra.basis))
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


def drinfeld_double(base):
    """The crossed product at the identity pair."""
    return DiagonalCrossedProduct(base, identity_pair(base),
                                  name="D(%s)" % base.name)


def check_dcp_suite(mha, samples=200, seed=0):
    """check_dcp on the Drinfeld double, at no fewer than 200 samples."""
    return check_dcp(drinfeld_double(mha), samples=max(samples, 200), seed=seed)


def check_dcp(dcp, samples=500, seed=0):
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
    rep = Report("dcp", dcp, seed, samples)
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
        sample, rng = alg.space.sample, rep.rng
        triples = ((sample(rng), sample(rng), sample(rng))
                   for _ in range(samples))
        mode = "sampled over %d basis triples" % samples

    def check(x, y, z):
        if (mult[x, y].map_terms(lambda k: mult[k, z])
                != mult[y, z].map_terms(lambda m: mult[x, m])):
            return "x=%r y=%r z=%r" % (x, y, z)
    rep.law("dcp-assoc", "(xy)z = x(yz), " + mode, check, triples)

    rep.law("dcp-unit", "eps >< 1 is a two-sided unit", equal(
        lambda x: alg.mult(alg.unit, x), lambda x: x,
        lambda x: alg.mult(x, alg.unit), lambda x: x), zip(map(alg.el, basis)))
    return rep


# -- modules over the crossed product -------------------------------------------

def check_dcp_module(M, samples=60, seed=0):
    """Module associativity and the unit law over the crossed product M.mha."""
    alg = M.mha.algebra
    rep = Report("dcp", M, seed, samples)

    rep.law("dcp-module-assoc", "(dd').m = d.(d'.m)",
            equal(lambda d, dp, m: M.act(alg.mult(d, dp), m),
                  lambda d, dp, m: M.act(d, M.act(dp, m))),
            rep.draws((alg, None), (alg, None), (M, None)))
    rep.law("dcp-module-unit", "(eps >< 1).m = m",
            equal(lambda m: M.act(alg.unit, m), lambda m: m),
            zip(map(M.el, M.basis)))
    return rep


def regular_dcp_module(dcp):
    """The crossed product acting on itself by left multiplication."""
    mult = dcp.algebra.mult_basis
    return UnitalModule(dcp, lambda d, m: mult[d, m], dcp.algebra.space,
                        arity=2, name=dcp.name + ":regular")


def yd_to_dcp_module(V, dcp):
    """A twisted YD module as a module over dcp, the crossed product at its
    pair: (p >< a).m = p((a.m)_(1)) (a.m)_(0)."""
    base = V.mha
    dual = dcp.dual
    if V.module.basis is None:
        raise ValueError("the correspondence needs a finite-dimensional carrier")

    def act_basis(dsym, msym):
        p, a = legs(dsym)

        def pair_leg(m0, m1):  # m_(0) p(m_(1))
            return V.module.el(m0, dual.pairing(dual.el(p), base.el(m1)))

        def term(s):  # (a.m)_(0) p((a.m)_(1))
            gamma = V.coaction.slice_r(V.module.el(s), base.algebra.unit)
            return gamma.map_legs(pair_leg, at=V.module.arity)
        return V.module.act_basis[a, msym].map_terms(term)

    return UnitalModule(dcp, act_basis, V.module.space,
                        arity=V.module.arity, name=V.name + ":as-dcp-module")


def dcp_module_to_yd(M, integrals):
    """A module over the crossed product as a twisted YD module:
    a.m = (eps >< a).m and the coaction
    m_(0) (x) m_(1) = (phi(. t_(2)) >< 1).m (x) S^-1(t_(1)), with phi and t
    read from integrals."""
    dcp = M.mha
    base = dcp.base
    dual = dcp.dual
    field = dcp.field

    def act_basis(asym, msym):
        d = tensor(dual.algebra.unit, base.el(asym))
        return M.act(d, M.el(msym))

    mod = UnitalModule(base, act_basis, M.space, arity=M.arity,
                       name=M.name + ":as-yd")

    # materialize the coaction once per carrier basis symbol
    cop_t = base.coproduct(integrals.t)
    phi = Element(field, {dual_sym(s): c for s, c in integrals.phi_coeffs.items()})

    def coaction_of(msym):
        def term(t1, t2):  # phi(. t_(2)) = t_(2) |> phi
            moved = M.act(tensor(dual.act_left(base.el(t2), phi),
                                 base.algebra.unit), M.el(msym))
            return tensor(moved, base.antipode_inv_basis[t1])
        return cop_t.map_legs(term)

    coact = {msym: coaction_of(msym) for msym in M.basis}

    def slice_r(msym, asym):
        return apply_legs(coact[msym], M.arity, 1,
                          lambda m1: base.algebra.mult(m1, base.el(asym)))

    coa = Coaction(mod, slice_r, name=mod.name + ":coact")
    return YDModule(mod, coa, dcp.pair, name=mod.name)


def check_double_correspondence(mha, gyds, samples=40, seed=0):
    """Both round trips of the correspondence, module validity of the
    forward image, and GYD validity of the backward image (including the
    regular crossed-product module)."""
    rep = Report("double-correspondence", mha, seed, samples)
    integrals = compute_integrals(mha)

    for V in gyds:
        dcp = DiagonalCrossedProduct(mha, V.pair)
        M = yd_to_dcp_module(V, dcp)
        rep.merge(check_dcp_module(M, samples=samples, seed=seed), V.name)

        back = dcp_module_to_yd(M, integrals)

        # a' is drawn only once the actions agree
        more = rep.draws(mha.algebra)

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
                rep.draws(mha.algebra, (V.module, 3)))

    # the other direction, from the regular crossed-product module
    dcp = DiagonalCrossedProduct(mha, gyds[0].pair if gyds else None)
    R = regular_dcp_module(dcp)
    W = dcp_module_to_yd(R, integrals)
    rep.merge(check_gyd(W, samples=samples, seed=seed), "regular")
    M2 = yd_to_dcp_module(W, dcp)
    alg = dcp.algebra

    rep.law("module-roundtrip",
            "ydToDcpModule(dcpModuleToYd(M)) = M extensionally",
            equal(lambda d, m: M2.act(d, m), R.act),
            rep.draws((alg, None), (R, None)))
    return rep


def check_double_correspondence_suite(mha, samples=40, seed=0):
    """check_double_correspondence on the trivial and the canonical YD module."""
    return check_double_correspondence(
        mha, [trivial_gyd(mha), canonical_yd(mha)], samples, seed)
