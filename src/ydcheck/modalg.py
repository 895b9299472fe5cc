"""Module algebras, comodule algebras, their compatibility, coactions induced
by a quasitriangular structure, mixed (H, A)-modules, and the balanced tensor
product over a module algebra with its monoidal laws.

The laws checked here, in Sweedler legs:

    a.(xx')          = (a_(1).x)(a_(2).x')              [module algebra]
    (a.x)x'          = a_(1).(x (S(a_(2)).x'))          [extension, left]
    x(a.x')          = a_(2).((S^-1(a_(1)).x) x')       [extension, right]
    Gamma(xy)        = Gamma(x)Gamma(y)                 [comodule algebra]
    xy               = y_(0)(y_(1).x)                   [A-commutativity]
    rho(h)           = tau(R)(h (x) 1)                  [induced coaction]
    a.(h -> m)       = (a_(1).h) -> (a_(2).m)           [mixed action]
    rho(h -> m)(1 (x) a') = h_(0) -> m_(0) (x) m_(1) h_(1) a'   [mixed coaction]
    m <- h           = h_(0) -> (h_(1).m)               [right H-action]

Everything is evaluated through slice maps; coproducts are only materialized
where an instance carries one.  Balanced tensor products quotient by the
relators (m <- h) (x) n - m (x) (h -> n); well-definedness of the descended
structures is tested (relator stability), never assumed.
"""

from .linear import (Element, Memo2, tensor, apply_legs, bilinear,
                     QuotientSpace)
from .mha import Space, Algebra
from .modules import (UnitalModule, Coaction, check_comodule, counit_module,
                      adjoint_module, regular_module, trivial_module,
                      coproduct_coaction, trivial_coaction)
from .yd import (YDModule, check_yd, braiding_c, trivial_yd, tensor_module,
                 tensor_coaction)
from .report import Report, equal
from .instances import group_Zn, qt_for_cyclic


# -- module algebras -----------------------------------------------------------

class ModuleAlgebra:
    """An algebra R whose carrier is also a unital A-module; the joint laws
    are verified by check_module_algebra.  With a coaction on the same
    module it is a YD module algebra, an algebra object of the YD
    category, whose further laws check_yd_module_algebra verifies."""

    def __init__(self, alg, module, coaction=None, name=None):
        if coaction is not None and coaction.module is not module:
            raise ValueError("coaction built on a different carrier")
        self.alg = alg
        self.module = module
        self.coaction = coaction
        self.mha = module.mha
        self.field = module.field
        self.name = name or module.name


def counit_module_algebra(mha):
    """R = A with the counit action a.x = eps(a) x."""
    return ModuleAlgebra(mha.algebra, counit_module(mha),
                         name=mha.name + ":counit-modalg")


def adjoint_module_algebra(mha):
    """R = A with the twisted adjoint action a.x = a_(2) x S^-1(a_(1));
    a module algebra on cocommutative instances."""
    return ModuleAlgebra(mha.algebra, adjoint_module(mha),
                         name=mha.name + ":adjoint-modalg")


def regular_module_algebra(mha):
    """R = A with the left regular action: NOT a module algebra in general;
    kept as the standard negative control."""
    return ModuleAlgebra(mha.algebra, regular_module(mha),
                         name=mha.name + ":regular-modalg")


def translation_module_algebra(mha, group):
    """Functions on a finite group under pointwise product, with the group
    algebra acting by right translation: (g.f)(x) = f(xg), so g.d_y =
    d_{y g^-1}.  Translation is an algebra automorphism, hence a module
    algebra action."""
    field = mha.field
    unit = Element(field, {x: 1 for x in group.elements})
    fun = Algebra(field,
                  lambda a, b: Element.basis(field, a) if a == b else Element(field),
                  group.space, unit=unit, name="fun(%s)" % mha.name)
    mod = UnitalModule(
        mha, lambda g, y: Element.basis(field, group.mul(y, group.inv(g))),
        group.space, name=mha.name + ":translation")
    return ModuleAlgebra(fun, mod, name=mha.name + ":translation")


def check_module_algebra(ma, samples=40, seed=0):
    """The product law, both extension laws (where a coproduct is
    materialized) and the unit law."""
    mha = ma.mha
    alg = mha.algebra
    act = ma.module.act
    rep = Report("module-algebra", ma, seed, samples)

    def rhs(a, x, xp):
        def term(p, q):
            return ma.alg.mult(act(alg.el(p), x), act(alg.el(q), xp))
        return mha.delta_r(a, ma.module.local_unit([xp])).map_legs(term)
    rep.law("modalg-product", "a.(xx') = (a_(1).x)(a_(2).x')",
            equal(lambda a, x, xp: act(a, ma.alg.mult(x, xp)), rhs),
            rep.draws(alg, (ma.module, 3), (ma.module, 3)))

    if mha.materializes_coproduct:
        # both laws read da = Delta(a)
        def extend_left(a, x, xp, da):
            return da.map_legs(lambda a1, a2: act(alg.el(a1), ma.alg.mult(
                x, act(mha.antipode_basis[a2], xp))))

        def extend_right(a, x, xp, da):
            return da.map_legs(lambda a1, a2: act(alg.el(a2), ma.alg.mult(
                act(mha.antipode_inv_basis[a1], x), xp)))

        rep.law_group([
            ("modalg-extend-left", "(a.x)x' = a_(1).(x (S(a_(2)).x'))",
             equal(lambda a, x, xp, da: ma.alg.mult(act(a, x), xp),
                   extend_left)),
            ("modalg-extend-right", "x(a.x') = a_(2).((S^-1(a_(1)).x) x')",
             equal(lambda a, x, xp, da: ma.alg.mult(x, act(a, xp)),
                   extend_right))],
            ((a, x, xp, mha.coproduct(a)) for a, x, xp in rep.draws(
                alg, (ma.module, 3), (ma.module, 3))))

    if ma.alg.has_unit:
        rep.law("modalg-unit", "a.1 = eps(a) 1",
                equal(lambda a: act(a, ma.alg.unit),
                      lambda a: ma.alg.unit.scaled(mha.counit(a))),
                rep.draws(alg))
    return rep


# -- comodule algebras ---------------------------------------------------------

def check_comodule_algebra(alg, coaction, samples=40, seed=0):
    """All comodule laws plus multiplicativity of the coaction, through
    slices.  Finiteness of the slice outputs holds by construction (slices
    return finite sums); the counit law doubles as injectivity."""
    mha = coaction.mha
    mod = coaction.module
    rep = Report("module-algebra", coaction, seed + 1, samples)
    rep.merge(check_comodule(coaction, samples, seed), "comodule")

    def rhs(x, y, a):
        def term(y0, m):  # y_(0) (x) y_(1)a -> x_(0)y_(0) (x) x_(1)y_(1)a
            return apply_legs(coaction.slice_r(x, mha.el(m)), 0, mod.arity,
                              lambda x0: alg.mult(x0, mod.el(y0)))
        return coaction.slice_r(y, a).map_legs(term, at=mod.arity)
    rep.law("comodalg-multiplicative",
            "Gamma(xy)(1 (x) a) = Gamma(x)Gamma(y)(1 (x) a)",
            equal(lambda x, y, a: coaction.slice_r(alg.mult(x, y), a), rhs),
            rep.draws((mod, 3), (mod, 3), mha.algebra))

    if coaction.has_slice_l:
        def rhs(x, y, a):
            def term(x0, m):  # x_(0) (x) ax_(1) -> x_(0)y_(0) (x) ax_(1)y_(1)
                return apply_legs(coaction.slice_l(y, mha.el(m)), 0, mod.arity,
                                  lambda y0: alg.mult(mod.el(x0), y0))
            return coaction.slice_l(x, a).map_legs(term, at=mod.arity)
        rep.law("comodalg-multiplicative-left",
                "(1 (x) a)Gamma(xy) = ((1 (x) a)Gamma(x))Gamma(y)",
                equal(lambda x, y, a: coaction.slice_l(alg.mult(x, y), a), rhs),
                rep.draws((mod, 3), (mod, 3), mha.algebra))
    return rep


# -- Yetter-Drinfel'd module algebras ------------------------------------------

def trivial_yd_module_algebra(mha):
    """The base field as a YD module algebra (one-dimensional carrier)."""
    field = mha.field
    alg = Algebra(field, lambda a, b: Element.basis(field, "*"),
                  Space(["*"]), unit=Element.basis(field, "*"), name="K")
    mod = trivial_module(mha)
    return ModuleAlgebra(alg, mod, trivial_coaction(mod), name="K")


def counit_yd_module_algebra(mha):
    """R = A with the counit action and the trivial coaction; valid over any
    instance, and A-commutative exactly when A is commutative."""
    mod = counit_module(mha)
    return ModuleAlgebra(mha.algebra, mod, trivial_coaction(mod),
                         name=mha.name + ":counit-trivial")


def adjoint_trivial_yd_module_algebra(mha):
    """R = A with the twisted adjoint action and the trivial coaction; a YD
    module algebra on cocommutative instances (a_(2) (x) a_(3)S^-1(a_(1))
    collapses to a (x) 1)."""
    if not mha.cocommutative:
        raise ValueError("the adjoint/trivial pair needs a cocommutative instance")
    mod = adjoint_module(mha)
    return ModuleAlgebra(mha.algebra, mod, trivial_coaction(mod),
                         name=mha.name + ":adjoint-trivial")


def canonical_yd_module_algebra(mha):
    """R = A with the twisted adjoint action and Gamma = Delta; the product
    law needs cocommutativity."""
    mod = adjoint_module(mha)
    return ModuleAlgebra(mha.algebra, mod, coproduct_coaction(mod),
                         name=mha.name + ":adjoint-delta")


def subgroup_yd_module_algebra(mha, syms):
    """The span of a multiplicatively closed set of basis symbols (containing
    the unit), with the counit action and trivial coaction."""
    mult = mha.algebra.mult_basis
    sub = Algebra(mha.field,
                  lambda a, b: mult[a, b],
                  Space(syms), unit=mha.algebra.unit,
                  name=mha.name + ":sub")
    mod = counit_module(mha, mha.name + ":sub", sub.space)
    return ModuleAlgebra(sub, mod, trivial_coaction(mod),
                         name=mha.name + ":sub")


def cyclic_subgroup_syms(alg):
    """Basis symbols of a cyclic unital subalgebra, of order at most 12,
    generated by a non-unit basis symbol whose powers stay single basis
    vectors, or None."""
    if alg.basis is None or not alg.has_unit or len(alg.unit.terms) != 1:
        return None
    (us, uc), = alg.unit.terms.items()
    if uc != 1:
        return None
    for s in alg.basis:
        if s == us:
            continue
        powers = []
        cur = alg.el(s)
        for _ in range(12):
            if len(cur.terms) != 1 or next(iter(cur.terms.values())) != 1:
                powers = None
                break
            cs = next(iter(cur.terms))
            if cs == us:
                return [us] + powers
            if cs in powers:
                powers = None
                break
            powers.append(cs)
            cur = alg.mult_basis[cs, s]
    return None


def check_a_commutative(H, samples=40, seed=0):
    """xy = y_(0)(y_(1).x), with y_(1) acting through a local unit of x."""
    mha = H.mha
    rep = Report("module-algebra", H, seed, samples)

    def rhs(x, y):
        def term(y0, m):
            return H.alg.mult(H.module.el(y0), H.module.act(mha.el(m), x))
        return H.coaction.slice_r(y, H.module.local_unit([x])).map_legs(
            term, at=H.module.arity)
    rep.law("a-commutative", "xy = y_(0)(y_(1).x)",
            equal(lambda x, y: H.alg.mult(x, y), rhs),
            rep.draws((H.module, 3), (H.module, 3)))
    return rep


def yd_module_algebra_parts(H, samples=30, seed=0):
    """check_yd_module_algebra's sub-reports by tag, in their one order."""
    return {"modalg": check_module_algebra(H, samples, seed),
            "comodalg": check_comodule_algebra(H.alg, H.coaction, samples, seed),
            "yd": check_yd(H, samples, seed)}


def check_yd_module_algebra(H, samples=30, seed=0, parts=None):
    """Module algebra + comodule algebra + the YD compatibility on one
    carrier: its yd_module_algebra_parts, or the parts given, merged."""
    rep = Report("module-algebra", H, seed, samples)
    for tag, sub in (parts or yd_module_algebra_parts(H, samples, seed)).items():
        rep.merge(sub, tag)
    return rep


# -- coactions induced by a quasitriangular structure --------------------------

def coaction_from_qt(module, qt):
    """rho(h) = tau(R)(h (x) 1): sliceR(h, a) = (r_(2).h) (x) r_(1)a and
    sliceL(h, a) = (r_(2).h) (x) a r_(1), summed over the materialized R."""
    act, mult = module.act_basis, module.mha.algebra.mult_basis

    def slice_r(vsym, asym):
        return qt.r.map_legs(lambda i, j: tensor(act[j, vsym], mult[i, asym]))

    def slice_l(vsym, asym):
        return qt.r.map_legs(lambda i, j: tensor(act[j, vsym], mult[asym, i]))

    return Coaction(module, slice_r, slice_l,
                    name=module.name + ":qt-coaction")


def check_qt_coaction(ma, qt, samples=30, seed=0):
    """End to end: the quasitriangular axioms, the module-algebra laws, the
    induced coaction's comodule-algebra and YD laws, and the induced braiding
    C(m (x) n) = tau(R)(n (x) m) against the categorical braiding."""
    mha = ma.mha
    alg = mha.algebra
    rep = Report("qt-coaction", ma, seed + 2, samples)
    qt.check(rep)
    rep.merge(check_module_algebra(ma, samples, seed), "modalg")
    coa = coaction_from_qt(ma.module, qt)
    rep.merge(check_comodule_algebra(ma.alg, coa, samples, seed), "comodalg")
    yd = YDModule(ma.module, coa, name=ma.name + ":qt")
    rep.merge(check_yd(yd, samples, seed + 1), "yd")

    def direct(m, n):
        return qt.r.map_legs(lambda i, j: tensor(ma.module.act(alg.el(j), n),
                                                 ma.module.act(alg.el(i), m)))
    rep.law("qt-braiding",
            "C(m (x) n) = tau(R)(n (x) m) through the induced coaction",
            equal(direct, lambda m, n: braiding_c(ma.module, yd, tensor(m, n))),
            rep.draws((ma.module, 3), (ma.module, 3)))
    return rep


def check_qt_coaction_suite(mha, samples=30, seed=0):
    """check_qt_coaction on Z/n's translation and counit module algebras,
    with one R, whose axioms are evaluated once and head both sub-reports."""
    n = mha.cyclic_order
    qt = qt_for_cyclic(n, mha.field, mha=mha)
    rep = Report("qt-coaction", mha, seed, samples)
    rep.merge(check_qt_coaction(translation_module_algebra(mha, group_Zn(n)),
                                qt, samples, seed), "translation")
    rep.merge(check_qt_coaction(counit_module_algebra(mha), qt, samples, seed),
              "counit")
    return rep


# -- mixed (H, A)-modules -------------------------------------------------------

class HAModule:
    """A carrier with a unital A-action, an A-coaction, and a left action of
    a YD module algebra H over the same A, tied by the mixed compatibility
    laws (verified by check_ha_module).  The H-action is memoized per basis
    pair and read by symbol as M.h_act_basis[h_sym, m_sym]; M.h_act is the
    bilinear extension of that table, called as M.h_act(h, m)."""

    def __init__(self, H, module, coaction, h_act_basis, r_act=None, name=None):
        self.H = H
        self.module = module
        self.coaction = coaction
        self.mha = module.mha
        self.field = module.field
        self.h_act_basis = Memo2(h_act_basis)
        self.h_act = bilinear(self.field, self.h_act_basis)
        self._r_act = r_act
        self.name = name or module.name

    def r_act_formula(self, m, h):
        """m <- h = h_(0) -> (h_(1).m), h_(1) split against a local unit of
        m under the A-action."""
        mha = self.mha
        e = self.module.local_unit([m])

        def term(h0, k):
            return self.h_act(self.H.alg.el(h0), self.module.act(mha.el(k), m))
        return self.H.coaction.slice_r(h, e).map_legs(
            term, at=self.H.module.arity)

    def r_act(self, m, h):
        if self._r_act is not None:
            return self._r_act(m, h)
        return self.r_act_formula(m, h)


def h_unit_ha_module(H):
    """M = H acting on itself by multiplication."""
    mult = H.alg.mult_basis
    return HAModule(H, H.module, H.coaction, lambda hs, ms: mult[hs, ms],
                    name=H.name + ":unit-object")


def mult_ha_module(H):
    """M = A with the counit action and trivial coaction, H acting by left
    multiplication inside A (H's carrier symbols must be A basis symbols)."""
    mha = H.mha
    mod = counit_module(mha)
    mult = mha.algebra.mult_basis
    return HAModule(H, mod, trivial_coaction(mod),
                    lambda hs, ms: mult[hs, ms],
                    name=mha.name + ":mult-over-" + H.name)


def collapse_ha_module(H, yd):
    """H = K acting by scalars on a plain YD module: the mixed laws collapse
    to the YD laws."""
    if H.alg.basis != ["*"]:
        raise ValueError("collapse fixture needs the one-dimensional H")
    return HAModule(H, yd.module, yd.coaction,
                    lambda hs, ms: yd.module.el(ms),
                    name=yd.name + ":collapse")


def check_ha_module(M, samples=30, seed=0):
    """The left H-module law and both mixed compatibilities, plus the YD laws
    of the underlying A-structure when both slices are available."""
    mha = M.mha
    H = M.H
    rep = Report("hq-monoidal", M, seed, samples)

    rep.law("ha-left-module", "(hh') -> m = h -> (h' -> m)",
            equal(lambda h, hp, m: M.h_act(H.alg.mult(h, hp), m),
                  lambda h, hp, m: M.h_act(h, M.h_act(hp, m))),
            rep.draws((H.alg, 2), (H.alg, 2), (M.module, 3)))

    # the right side applies -> to the diagonal action on h (x) m
    pair = tensor_module(H.module, M.module)
    rep.law("ha-action-compat", "a.(h -> m) = (a_(1).h) -> (a_(2).m)",
            equal(lambda a, h, m: M.module.act(a, M.h_act(h, m)),
                  lambda a, h, m: pair.act(a, tensor(h, m)).map_legs(
                      lambda h0, m0: M.h_act_basis[h0, m0],
                      at=H.module.arity)),
            rep.draws(mha.algebra, (H.alg, 2), (M.module, 3)))

    def rhs(h, m, ap):
        def term(h0, k):  # h_(0) (x) h_(1)a' -> h_(0) -> m_(0) (x) m_(1)h_(1)a'
            return apply_legs(M.coaction.slice_r(m, mha.el(k)), 0,
                              M.module.arity,
                              lambda m0: M.h_act(H.alg.el(h0), m0))
        return H.coaction.slice_r(h, ap).map_legs(term, at=H.module.arity)
    rep.law("ha-coaction-compat",
            "rho(h -> m)(1 (x) a') = h_(0) -> m_(0) (x) m_(1) h_(1) a'",
            equal(lambda h, m, ap: M.coaction.slice_r(M.h_act(h, m), ap), rhs),
            rep.draws((H.alg, 2), (M.module, 3), mha.algebra))

    if M.coaction.has_slice_l:
        rep.merge(check_yd(YDModule(M.module, M.coaction, name=M.name),
                           samples, seed), "yd")
    return rep


def check_h_bimodule(M, samples=40, seed=0):
    """m <- h together with -> makes M an H-bimodule: right-module law and
    the interchange law on samples."""
    H = M.H
    rep = Report("hq-monoidal", M, seed, samples)

    rep.law_group([
        ("ha-right-module", "m <- (hh') = (m <- h) <- h'",
         equal(lambda h, hp, m: M.r_act(m, H.alg.mult(h, hp)),
               lambda h, hp, m: M.r_act(M.r_act(m, h), hp))),
        ("ha-bimodule-interchange", "(h -> m) <- h' = h -> (m <- h')",
         equal(lambda h, hp, m: M.r_act(M.h_act(h, m), hp),
               lambda h, hp, m: M.h_act(h, M.r_act(m, hp))))],
        rep.draws((H.alg, 2), (H.alg, 2), (M.module, 3)))
    return rep


# -- the balanced tensor product -----------------------------------------------

class BalancedTensor:
    """M (x)_H N: the quotient of M (x) N by the balancing relators
    (m <- h) (x) n - m (x) (h -> n), carrying the diagonal A-action and the
    composite coaction m_(0) (x) n_(0) (x) n_(1) m_(1) a' of the ambient
    amb = yd.tensor_module(M, N) with its tensor_coaction, and the H-actions
    h -> (m (x) n) = (h -> m) (x) n and (m (x) n) <- h = m (x) (n <- h)."""

    def __init__(self, M, N):
        if M.H is not N.H:
            raise ValueError("balanced tensor needs a common H")
        H = M.H
        if not H.alg.has_unit:
            raise ValueError("balanced tensor needs a unital H")
        if (M.module.basis is None or N.module.basis is None
                or H.alg.basis is None):
            raise ValueError("balanced tensor needs finite carriers")
        self.M, self.N, self.H = M, N, H
        self.mha = M.mha
        self.field = M.field
        self.am = M.module.arity
        self.an = N.module.arity
        self.arity = self.am + self.an
        self.name = "%s(x)_H%s" % (M.name, N.name)
        self.amb = tensor_module(M.module, N.module)
        self.amb_coaction = tensor_coaction(self.amb, M, N)
        rels = []
        for ms in M.module.basis:
            m = M.module.el(ms)
            for hs in H.alg.basis:
                mh = M.r_act(m, H.alg.el(hs))
                for ns in N.module.basis:
                    r = (tensor(mh, N.module.el(ns))
                         - tensor(m, N.h_act_basis[hs, ns]))
                    if not r.is_zero():
                        rels.append(r)
        self.relators = rels
        self.quot = QuotientSpace(self.amb.basis, rels)
        am, an = self.am, self.an
        # the H-actions on the ambient M (x) N, closed over M and N only
        self.h_amb = lambda h, x: apply_legs(
            x, 0, am, lambda m: M.h_act(h, m))
        self.r_amb = lambda x, h: apply_legs(
            x, am, an, lambda n: N.r_act(n, h))
        self.ham = self._descend()

    def _descend(self):
        # the descended maps read locals, never self: self.ham holds them,
        # so a closure over self would make every balanced tensor a cycle
        mha, q, field, H = self.mha, self.quot, self.field, self.H
        h_amb, r_amb, arity = self.h_amb, self.r_amb, self.arity
        amb, ac = self.amb, self.amb_coaction
        # quotient symbols are ambient symbols: the ambient local unit rule
        # serves the quotient
        mod = UnitalModule(
            mha,
            lambda asym, qsym: q.project(amb.act_basis[asym, qsym]),
            Space(q.basis), arity=arity, local_unit=amb.local_unit,
            name=self.name)
        coa = Coaction(
            mod,
            lambda qsym, asym: apply_legs(
                ac.slice_r_basis[qsym, asym], 0, arity, q.project),
            (None if not ac.has_slice_l else
             lambda qsym, asym: apply_legs(
                 ac.slice_l_basis[qsym, asym], 0, arity, q.project)),
            name=self.name + ":coaction")
        return HAModule(
            H, mod, coa,
            lambda hsym, qsym: q.project(
                h_amb(H.alg.el(hsym), Element.basis(field, qsym))),
            r_act=lambda m, h: q.project(r_amb(m, h)),
            name=self.name)


def check_balanced_tensor(T, samples=20, seed=0):
    """Relator stability of every descended structure (exact span-membership
    through the quotient projection), the mixed-module laws on the quotient,
    and agreement of the descended right action with the one recomputed from
    the quotient coaction."""
    mha = T.mha
    rep = Report("hq-monoidal", T, seed, samples)
    rels = T.relators
    if len(rels) > 60:
        rels = rep.rng.sample(rels, 60)

    zero = Element(mha.field)
    rep.law_group([
        ("tensor-relator-action", "the diagonal A-action preserves the "
         "balancing relators", equal(
             lambda rel, a, h, ap: T.quot.project(T.amb.act(a, rel)),
             lambda *_: zero)),
        ("tensor-relator-h-action", "h -> (.) preserves the balancing "
         "relators", equal(
             lambda rel, a, h, ap: T.quot.project(T.h_amb(h, rel)),
             lambda *_: zero)),
        ("tensor-relator-r-action", "(.) <- h preserves the balancing "
         "relators", equal(
             lambda rel, a, h, ap: T.quot.project(T.r_amb(rel, h)),
             lambda *_: zero)),
        ("tensor-relator-coaction", "the composite coaction preserves the "
         "balancing relators", equal(
             lambda rel, a, h, ap: apply_legs(T.amb_coaction.slice_r(rel, ap),
                                              0, T.arity, T.quot.project),
             lambda *_: zero))],
        ((rel,) + drawn for rel, drawn in zip(rels, rep.draws(
            mha.algebra, (T.H.alg, 2), mha.algebra, n=len(rels)))))

    rep.merge(check_ha_module(T.ham, samples, seed), "tensor")

    rep.law("tensor-right-action",
            "(m (x) n) <- h = m (x) (n <- h) matches h_(0) -> (h_(1).(m (x) n))",
            equal(lambda m, h: T.ham.r_act(m, h), T.ham.r_act_formula),
            rep.draws((T.ham.module, 2), (T.H.alg, 2),
                      n=samples if T.quot.basis else 0))
    return rep


def _image_rank(images, ambient_basis):
    nz = [im for im in images if not im.is_zero()]
    if not nz:
        return 0
    return QuotientSpace(ambient_basis, nz).rank


def check_unit_laws(M, samples=15, seed=0):
    """M (x)_H H = M = H (x)_H M: dimensions match and the canonical maps
    m (x) h -> m <- h and h (x) m -> h -> m kill the relators, are bijective,
    and intertwine all three structures."""
    mha = M.mha
    H = M.H
    rep = Report("hq-monoidal", M, seed, samples)
    RH = h_unit_ha_module(H)
    dim_m = len(M.module.basis)

    for side, T, mapper in [
            ("right", BalancedTensor(M, RH),
             lambda ms, hs: M.r_act(M.module.el(ms), H.alg.el(hs))),
            ("left", BalancedTensor(RH, M),
             lambda hs, ms: M.h_act_basis[hs, ms])]:
        am = T.am

        def psi(x, _am=am, _mapper=mapper):
            return x.map_legs(_mapper, at=_am)

        dim_t = len(T.quot.basis)
        rep.add("tensor-unit-dim-%s" % side,
                "dim(M (x)_H H) = dim(M) (%s unit law)" % side,
                None if dim_t == dim_m else "dim %d != %d" % (dim_t, dim_m))
        rep.add("tensor-unit-welldef-%s" % side,
                "the canonical unit map kills the balancing relators",
                None if all(psi(rel).is_zero() for rel in T.relators)
                else "some relator has a nonzero image")
        images = [psi(Element.basis(M.field, b)) for b in T.quot.basis]
        rk = _image_rank(images, M.module.basis)
        rep.add("tensor-unit-bijective-%s" % side,
                "the canonical unit map is bijective",
                None if rk == dim_t == dim_m else
                "image rank %d, dims %d/%d" % (rk, dim_t, dim_m))

        # each equation reads m = psi(c), c being its own flat lift
        rep.law("tensor-unit-structure-%s" % side,
                "the canonical unit map intertwines action, H-action and "
                "coaction", equal(
                    lambda c, m, a, h: psi(T.ham.module.act(a, c)),
                    lambda c, m, a, h: M.module.act(a, m),
                    lambda c, m, a, h: psi(T.ham.h_act(h, c)),
                    lambda c, m, a, h: M.h_act(h, m),
                    # coaction: map the carrier legs, keep the A-leg
                    lambda c, m, a, h: apply_legs(T.ham.coaction.slice_r(c, a),
                                                  0, T.arity, psi),
                    lambda c, m, a, h: M.coaction.slice_r(m, a)),
                ((c, psi(c), a, h) for c, a, h in rep.draws(
                    (T.ham.module, 2), mha.algebra, (H.alg, 2),
                    n=samples if T.quot.basis else 0)))
    return rep


def bracketing(tree, built):
    """A bracketing of balanced tensors: tree is an HAModule leaf or a pair
    (left, right) of bracketings.  Returns (T, arity, project) for a pair:
    T = left (x)_H right, arity the leg count of the flat tensor of the
    leaves, and project the map from that flat tensor onto T's quotient.
    Sub-bracketings already in the dict built are shared, not rebuilt."""
    if tree not in built:
        def part(sub):
            if not isinstance(sub, tuple):
                return sub, sub.module.arity, None
            S, arity, project = bracketing(sub, built)
            return S.ham, arity, project

        (L, al, pl), (R, ar, pr) = map(part, tree)
        T = BalancedTensor(L, R)

        def project(flat):
            if pl is not None:
                flat = apply_legs(flat, 0, al, pl)
            if pr is not None:
                flat = apply_legs(flat, al, ar, pr)
            return T.quot.project(flat)
        built[tree] = T, al + ar, project
    return built[tree]


def check_associator(X, Y, Z, samples=15, seed=0):
    """The rebracketing map phi from TL = (X (x)_H Y) (x)_H Z to
    TR = X (x)_H (Y (x)_H Z) is well-defined (it agrees with the flat
    projections on every representative), invertible, and linear over A and
    H on samples.  Both bracketings come from bracketing, with to_l and to_r
    the projections of the flat X (x) Y (x) Z onto them; a quotient element
    is its own flat lift, so phi is to_r and its inverse is to_l."""
    mha = X.mha
    rep = Report("hq-monoidal", X, seed, samples)
    built = {}
    TL, _, to_l = bracketing(((X, Y), Z), built)
    TR, _, to_r = bracketing((X, (Y, Z)), built)

    dims = len(TL.quot.basis), len(TR.quot.basis)
    rep.add("assoc-dim", "both bracketings have the same dimension",
            None if dims[0] == dims[1] else "%d != %d" % dims)

    flats = X.module.space.tensor(Y.module.space).tensor(Z.module.space).basis
    probe = flats if len(flats) <= 60 else rep.rng.sample(flats, 60)

    def el(sym):
        return Element.basis(mha.field, sym)

    # on each flat t, with l and r its projections to the two bracketings
    rep.law("assoc-canonical", "the rebracketing map agrees with the flat "
            "projections on every representative",
            equal(lambda t, l, r: to_r(l), lambda t, l, r: r,
                  lambda t, l, r: to_l(r), lambda t, l, r: l),
            ((t, to_l(t), to_r(t)) for t in map(el, probe)))

    # on the basis of each bracketing, the map there and its inverse back
    maps = {"left": (to_r, to_l), "right": (to_l, to_r)}
    rep.law("assoc-invertible", "the rebracketing map is invertible",
            equal(lambda side, c: maps[side][1](maps[side][0](c)),
                  lambda side, c: c),
            [("left", el(b)) for b in TL.quot.basis]
            + [("right", el(b)) for b in TR.quot.basis])

    # both equations read phi(c) = to_r(c)
    rep.law("assoc-linear", "the rebracketing map is A-linear and H-linear",
            equal(lambda c, pc, a, h: to_r(TL.ham.module.act(a, c)),
                  lambda c, pc, a, h: TR.ham.module.act(a, pc),
                  lambda c, pc, a, h: to_r(TL.ham.h_act(h, c)),
                  lambda c, pc, a, h: TR.ham.h_act(h, pc)),
            ((c, to_r(c), a, h) for c, a, h in rep.draws(
                (TL.ham.module, 2), mha.algebra, (X.H.alg, 2),
                n=samples if TL.quot.basis else 0)))
    return rep


def check_pentagon(X, Y, Z, W, seed=0):
    """Both composite rebracketing paths from (((X (x) Y) (x) Z) (x) W) to
    (X (x) (Y (x) (Z (x) W))) agree on every basis class.  Each stop of a
    path is a bracketing with its projection from the flat
    X (x) Y (x) Z (x) W; a quotient element is its own flat lift, so a path
    applies the projections of its stops in turn."""
    mha = X.mha
    rep = Report("hq-monoidal", X, seed, 0)
    built = {}
    (o1, _, _), o5, o4, o2, o3 = (bracketing(tree, built) for tree in [
        (((X, Y), Z), W), ((X, Y), (Z, W)), (X, (Y, (Z, W))),
        ((X, (Y, Z)), W), (X, ((Y, Z), W))])

    def path(flat, *stops):
        for _, _, project in stops:
            flat = project(flat)
        return flat

    rep.law("pentagon", "the two composite rebracketing paths agree",
            equal(lambda flat: path(flat, o5, o4),
                  lambda flat: path(flat, o2, o3, o4)),
            ((Element.basis(mha.field, b),) for b in o1.quot.basis))
    return rep


# -- suite drivers ---------------------------------------------------------------

def check_module_algebra_suite(mha, samples=30, seed=0):
    """Module-algebra, comodule-algebra, A-commutativity and joint YD-algebra
    laws over the standard fixtures available on an instance.  The counit
    action with the trivial coaction is checked once, and its module- and
    comodule-algebra laws are read under two tags each."""
    rep = Report("module-algebra", mha, seed, samples)
    ct = counit_yd_module_algebra(mha)
    parts = yd_module_algebra_parts(ct, samples, seed)
    rep.merge(parts["modalg"], "counit")
    if mha.cocommutative and mha.materializes_coproduct:
        rep.merge(check_module_algebra(adjoint_module_algebra(mha),
                                       samples, seed), "adjoint")

    rep.merge(check_comodule_algebra(mha.algebra, coproduct_coaction(
        ct.module), samples, seed), "delta")
    rep.merge(parts["comodalg"], "trivial")

    k = trivial_yd_module_algebra(mha)
    rep.merge(check_yd_module_algebra(k, samples, seed), "K")
    rep.merge(check_a_commutative(k, samples, seed), "K")

    rep.merge(check_yd_module_algebra(ct, samples, seed, parts), "counit-trivial")
    if mha.commutative:
        rep.merge(check_a_commutative(ct, samples, seed), "counit-trivial")
    if mha.cocommutative and mha.materializes_coproduct:
        rep.merge(check_yd_module_algebra(
            adjoint_trivial_yd_module_algebra(mha), samples, seed),
            "adjoint-trivial")
        rep.merge(check_yd_module_algebra(canonical_yd_module_algebra(mha),
                                          samples, seed), "adjoint-delta")
    return rep


def default_hq_fixtures(mha):
    """The mixed-module fixtures available on an instance: always the
    one-dimensional collapse, plus a cyclic-subalgebra battery on finite
    unital instances."""
    out = []
    k = trivial_yd_module_algebra(mha)
    out.append(("K", k, [collapse_ha_module(k, trivial_yd(mha))]))
    syms = cyclic_subgroup_syms(mha.algebra)
    if syms is not None:
        sub = subgroup_yd_module_algebra(mha, syms)
        out.append(("sub", sub, [h_unit_ha_module(sub), mult_ha_module(sub)]))
    return out


def check_hq_monoidal(mha, samples=10, seed=0):
    """Mixed-module laws, bimodule laws, balanced tensor products with
    relator stability, unit laws, associator and one pentagon sample over
    the default fixtures, at no more than 15 samples."""
    samples = min(samples, 15)
    rep = Report("hq-monoidal", mha, seed, samples)
    for tag, H, mods in default_hq_fixtures(mha):
        rep.merge(check_yd_module_algebra(H, samples, seed), tag)
        rep.merge(check_a_commutative(H, samples, seed), tag)
        for M in mods:
            mtag = "%s:%s" % (tag, M.name)
            rep.merge(check_ha_module(M, samples, seed), mtag)
            rep.merge(check_h_bimodule(M, samples, seed), mtag)
            if M.module.basis is not None:
                T = BalancedTensor(M, M)
                rep.merge(check_balanced_tensor(T, samples, seed), mtag)
                rep.merge(check_unit_laws(M, samples, seed), mtag)
        small = min(mods, key=lambda m: len(m.module.basis or [0]))
        if small.module.basis is not None:
            rep.merge(check_associator(mods[-1], small, small, samples, seed), tag)
            rep.merge(check_pentagon(small, small, small, small, seed=seed), tag)
    return rep
