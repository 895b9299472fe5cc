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

import random

from .linear import (Element, Memo2, tensor, legs, apply_legs, bilinear,
                     QuotientSpace)
from .mha import Space, Algebra, draws
from .modules import (UnitalModule, Coaction, check_comodule, counit_module,
                      adjoint_module, regular_module, trivial_module,
                      coproduct_coaction, trivial_coaction)
from .yd import (YDModule, check_yd, split_sym, braiding_c, trivial_yd,
                 tensor_module, tensor_coaction)
from .report import Report
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


def counit_module_algebra(mha, name=None):
    """R = A with the counit action a.x = eps(a) x."""
    return ModuleAlgebra(mha.algebra, counit_module(mha),
                         name=name or (mha.name + ":counit-modalg"))


def adjoint_module_algebra(mha, name=None):
    """R = A with the twisted adjoint action a.x = a_(2) x S^-1(a_(1));
    a module algebra on cocommutative instances."""
    return ModuleAlgebra(mha.algebra, adjoint_module(mha),
                         name=name or (mha.name + ":adjoint-modalg"))


def regular_module_algebra(mha, name=None):
    """R = A with the left regular action: NOT a module algebra in general;
    kept as the standard negative control."""
    return ModuleAlgebra(mha.algebra, regular_module(mha),
                         name=name or (mha.name + ":regular-modalg"))


def translation_module_algebra(mha, group, name=None):
    """Functions on a finite group under pointwise product, with the group
    algebra acting by right translation: (g.f)(x) = f(xg), so g.d_y =
    d_{y g^-1}.  Translation is an algebra automorphism, hence a module
    algebra action."""
    field = mha.field
    unit = Element(field, {x: field.one() for x in group.elements})
    fun = Algebra(field,
                  lambda a, b: Element.basis(field, a) if a == b else Element(field),
                  group.space, unit=unit, name="fun(%s)" % mha.name)
    mod = UnitalModule(
        mha, lambda g, y: Element.basis(field, group.mul(y, group.inv(g))),
        group.space, name=(name or (mha.name + ":translation")))
    return ModuleAlgebra(fun, mod, name=name or (mha.name + ":translation"))


def check_module_algebra(ma, samples=40, seed=0, suite="module-algebra"):
    """The product law, both extension laws (where a coproduct is
    materialized) and the unit law."""
    mha = ma.mha
    alg = mha.algebra
    act = ma.module.act
    rep = Report(suite, "%s/%s" % (mha.name, ma.name), mha.field.name,
                 seed, samples)
    rng = random.Random(seed)

    def check(a, x, xp):
        lhs = act(a, ma.alg.mult(x, xp))
        e = ma.module.local_unit([xp])

        def term(s):
            p, q = legs(s)
            return ma.alg.mult(act(alg.el(p), x), act(alg.el(q), xp))
        rhs = mha.delta_r(a, e).map_terms(term)
        if lhs != rhs:
            return "a=%r x=%r x'=%r lhs=%r rhs=%r" % (a, x, xp, lhs, rhs)
    rep.law("modalg-product", "a.(xx') = (a_(1).x)(a_(2).x')", check,
            draws(rng, samples, alg, (ma.module, 3), (ma.module, 3)))

    if mha.materializes_coproduct:
        def extend_left(a, x, xp):
            lhs = ma.alg.mult(act(a, x), xp)

            def term(s):
                a1, a2 = legs(s)
                return act(alg.el(a1), ma.alg.mult(
                    x, act(mha.antipode(alg.el(a2)), xp)))
            rhs = mha.coproduct(a).map_terms(term)
            if lhs != rhs:
                return "a=%r x=%r x'=%r" % (a, x, xp)

        def extend_right(a, x, xp):
            lhs = ma.alg.mult(x, act(a, xp))

            def term(s):
                a1, a2 = legs(s)
                return act(alg.el(a2), ma.alg.mult(
                    act(mha.antipode_inv(alg.el(a1)), x), xp))
            rhs = mha.coproduct(a).map_terms(term)
            if lhs != rhs:
                return "a=%r x=%r x'=%r" % (a, x, xp)

        rep.law_group([
            ("modalg-extend-left", "(a.x)x' = a_(1).(x (S(a_(2)).x'))",
             extend_left),
            ("modalg-extend-right", "x(a.x') = a_(2).((S^-1(a_(1)).x) x')",
             extend_right)],
            draws(rng, samples, alg, (ma.module, 3), (ma.module, 3)))

    if ma.alg.has_unit:
        def check(a):
            if act(a, ma.alg.unit) != ma.alg.unit.scaled(mha.counit(a)):
                return "a=%r" % a
        rep.law("modalg-unit", "a.1 = eps(a) 1", check,
                draws(rng, samples, alg))
    return rep


# -- comodule algebras ---------------------------------------------------------

def check_comodule_algebra(alg, coaction, samples=40, seed=0,
                           suite="module-algebra"):
    """All comodule laws plus multiplicativity of the coaction, through
    slices.  Finiteness of the slice outputs holds by construction (slices
    return finite sums); the counit law doubles as injectivity."""
    mha = coaction.mha
    mod = coaction.module
    rep = Report(suite, "%s/%s" % (mha.name, coaction.name),
                 mha.field.name, seed, samples)
    rep.merge(check_comodule(coaction, samples, seed, suite), "comodule")
    rng = random.Random(seed + 1)

    def check(x, y, a):
        lhs = coaction.slice_r(alg.mult(x, y), a)

        def term(s):  # y_(0) (x) y_(1)a -> x_(0)y_(0) (x) x_(1)y_(1)a
            y0, m = split_sym(s, mod.arity)
            return apply_legs(coaction.slice_r(x, mha.el(m)), 0, mod.arity,
                              lambda x0: alg.mult(x0, mod.el(y0)))
        rhs = coaction.slice_r(y, a).map_terms(term)
        if lhs != rhs:
            return "x=%r y=%r a=%r lhs=%r rhs=%r" % (x, y, a, lhs, rhs)
    rep.law("comodalg-multiplicative",
            "Gamma(xy)(1 (x) a) = Gamma(x)Gamma(y)(1 (x) a)", check,
            draws(rng, samples, (mod, 3), (mod, 3), mha.algebra))

    if coaction.has_slice_l:
        def check(x, y, a):
            lhs = coaction.slice_l(alg.mult(x, y), a)

            def term(s):  # x_(0) (x) ax_(1) -> x_(0)y_(0) (x) ax_(1)y_(1)
                x0, m = split_sym(s, mod.arity)
                return apply_legs(coaction.slice_l(y, mha.el(m)), 0, mod.arity,
                                  lambda y0: alg.mult(mod.el(x0), y0))
            rhs = coaction.slice_l(x, a).map_terms(term)
            if lhs != rhs:
                return "x=%r y=%r a=%r" % (x, y, a)
        rep.law("comodalg-multiplicative-left",
                "(1 (x) a)Gamma(xy) = ((1 (x) a)Gamma(x))Gamma(y)", check,
                draws(rng, samples, (mod, 3), (mod, 3), mha.algebra))
    return rep


# -- Yetter-Drinfel'd module algebras ------------------------------------------

def trivial_yd_module_algebra(mha, name=None):
    """The base field as a YD module algebra (one-dimensional carrier)."""
    field = mha.field
    alg = Algebra(field, lambda a, b: Element.basis(field, "*"),
                  Space(["*"]), unit=Element.basis(field, "*"), name="K")
    mod = trivial_module(mha)
    return ModuleAlgebra(alg, mod, trivial_coaction(mod), name=name or "K")


def counit_yd_module_algebra(mha, name=None):
    """R = A with the counit action and the trivial coaction; valid over any
    instance, and A-commutative exactly when A is commutative."""
    mod = counit_module(mha)
    return ModuleAlgebra(mha.algebra, mod, trivial_coaction(mod),
                         name=name or (mha.name + ":counit-trivial"))


def adjoint_trivial_yd_module_algebra(mha, name=None):
    """R = A with the twisted adjoint action and the trivial coaction; a YD
    module algebra on cocommutative instances (a_(2) (x) a_(3)S^-1(a_(1))
    collapses to a (x) 1)."""
    if not mha.cocommutative:
        raise ValueError("the adjoint/trivial pair needs a cocommutative instance")
    mod = adjoint_module(mha)
    return ModuleAlgebra(mha.algebra, mod, trivial_coaction(mod),
                         name=name or (mha.name + ":adjoint-trivial"))


def canonical_yd_module_algebra(mha, name=None):
    """R = A with the twisted adjoint action and Gamma = Delta; needs a
    materialized coproduct and cocommutativity for the product law."""
    mod = adjoint_module(mha)
    return ModuleAlgebra(mha.algebra, mod, coproduct_coaction(mod),
                         name=name or (mha.name + ":adjoint-delta"))


def subgroup_yd_module_algebra(mha, syms, name=None):
    """The span of a multiplicatively closed set of basis symbols (containing
    the unit), with the counit action and trivial coaction."""
    mult = mha.algebra.mult_basis
    sub = Algebra(mha.field,
                  lambda a, b: mult[a, b],
                  Space(syms), unit=mha.algebra.unit,
                  name=mha.name + ":sub")
    mod = counit_module(mha, name or (mha.name + ":sub"), sub.space)
    return ModuleAlgebra(sub, mod, trivial_coaction(mod),
                         name=name or (mha.name + ":sub"))


def cyclic_subgroup_syms(alg, cap=12):
    """Basis symbols of a cyclic unital subalgebra generated by a non-unit
    basis symbol whose powers stay single basis vectors, or None."""
    if alg.basis is None or not alg.has_unit or len(alg.unit.terms) != 1:
        return None
    (us, uc), = alg.unit.terms.items()
    if uc != alg.field.one():
        return None
    for s in alg.basis:
        if s == us:
            continue
        powers = []
        cur = alg.el(s)
        for _ in range(cap):
            if len(cur.terms) != 1 or next(iter(cur.terms.values())) != alg.field.one():
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


def check_a_commutative(H, samples=40, seed=0, suite="module-algebra"):
    """xy = y_(0)(y_(1).x), with y_(1) acting through a local unit of x."""
    mha = H.mha
    rep = Report(suite, "%s/%s" % (mha.name, H.name), mha.field.name,
                 seed, samples)
    rng = random.Random(seed)

    def check(x, y):
        lhs = H.alg.mult(x, y)
        e = H.module.local_unit([x])

        def term(s):
            y0, m = split_sym(s, H.module.arity)
            return H.alg.mult(H.module.el(y0), H.module.act(mha.el(m), x))
        rhs = H.coaction.slice_r(y, e).map_terms(term)
        if lhs != rhs:
            return "x=%r y=%r lhs=%r rhs=%r" % (x, y, lhs, rhs)
    rep.law("a-commutative", "xy = y_(0)(y_(1).x)", check,
            draws(rng, samples, (H.module, 3), (H.module, 3)))
    return rep


def check_yd_module_algebra(H, samples=30, seed=0, suite="module-algebra"):
    """Module algebra + comodule algebra + the YD compatibility on one
    carrier."""
    rep = Report(suite, "%s/%s" % (H.mha.name, H.name), H.field.name,
                 seed, samples)
    rep.merge(check_module_algebra(H, samples, seed, suite), "modalg")
    rep.merge(check_comodule_algebra(H.alg, H.coaction, samples, seed, suite),
              "comodalg")
    rep.merge(check_yd(H, samples, seed, suite), "yd")
    return rep


# -- coactions induced by a quasitriangular structure --------------------------

def coaction_from_qt(module, qt, name=None):
    """rho(h) = tau(R)(h (x) 1): sliceR(h, a) = (r_(2).h) (x) r_(1)a and
    sliceL(h, a) = (r_(2).h) (x) a r_(1), summed over the materialized R."""
    act, mult = module.act_basis, module.mha.algebra.mult_basis

    def slice_r(vsym, asym):
        def term(s):
            i, j = legs(s)
            return tensor(act[j, vsym], mult[i, asym])
        return qt.r.map_terms(term)

    def slice_l(vsym, asym):
        def term(s):
            i, j = legs(s)
            return tensor(act[j, vsym], mult[asym, i])
        return qt.r.map_terms(term)

    return Coaction(module, slice_r, slice_l,
                    name=name or (module.name + ":qt-coaction"))


def check_qt_coaction(ma, qt, samples=30, seed=0, suite="qt-coaction"):
    """End to end: the quasitriangular axioms, the module-algebra laws, the
    induced coaction's comodule-algebra and YD laws, and the induced braiding
    C(m (x) n) = tau(R)(n (x) m) against the categorical braiding."""
    mha = ma.mha
    alg = mha.algebra
    rep = Report(suite, "%s/%s" % (mha.name, ma.name), mha.field.name,
                 seed, samples)
    qt.check(rep)
    rep.merge(check_module_algebra(ma, samples, seed, suite), "modalg")
    coa = coaction_from_qt(ma.module, qt)
    rep.merge(check_comodule_algebra(ma.alg, coa, samples, seed, suite),
              "comodalg")
    yd = YDModule(ma.module, coa, name=ma.name + ":qt")
    rep.merge(check_yd(yd, samples, seed + 1, suite), "yd")

    rng = random.Random(seed + 2)

    def check(m, n):
        def term(s):
            i, j = legs(s)
            return tensor(ma.module.act(alg.el(j), n), ma.module.act(alg.el(i), m))
        direct = qt.r.map_terms(term)
        via = braiding_c(ma.module, yd, tensor(m, n))
        if direct != via:
            return "m=%r n=%r direct=%r via=%r" % (m, n, direct, via)
    rep.law("qt-braiding",
            "C(m (x) n) = tau(R)(n (x) m) through the induced coaction",
            check, draws(rng, samples, (ma.module, 3), (ma.module, 3)))
    return rep


def check_qt_coaction_suite(mha, samples=30, seed=0, suite="qt-coaction"):
    """check_qt_coaction on Z/n's translation and counit module algebras."""
    n = mha.cyclic_order
    qt = qt_for_cyclic(n, mha.field, mha=mha)
    rep = Report(suite, mha.name, mha.field.name, seed, samples)
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
    pair and read by symbol as M.h_act_basis[h_sym, m_sym]."""

    def __init__(self, H, module, coaction, h_act_basis, r_act=None, name=None):
        self.H = H
        self.module = module
        self.coaction = coaction
        self.mha = module.mha
        self.field = module.field
        self.h_act_basis = Memo2(h_act_basis)
        self._h_act = bilinear(self.field, self.h_act_basis)
        self._r_act = r_act
        self.name = name or module.name

    def h_act(self, h, m):
        return self._h_act(h, m)

    def r_act_formula(self, m, h):
        """m <- h = h_(0) -> (h_(1).m), h_(1) split against a local unit of
        m under the A-action."""
        mha = self.mha
        e = self.module.local_unit([m])

        def term(s):
            h0, k = split_sym(s, self.H.module.arity)
            return self.h_act(self.H.alg.el(h0), self.module.act(mha.el(k), m))
        return self.H.coaction.slice_r(h, e).map_terms(term)

    def r_act(self, m, h):
        if self._r_act is not None:
            return self._r_act(m, h)
        return self.r_act_formula(m, h)


def h_unit_ha_module(H, name=None):
    """M = H acting on itself by multiplication."""
    mult = H.alg.mult_basis
    return HAModule(H, H.module, H.coaction, lambda hs, ms: mult[hs, ms],
                    name=name or (H.name + ":unit-object"))


def mult_ha_module(H, name=None):
    """M = A with the counit action and trivial coaction, H acting by left
    multiplication inside A (H's carrier symbols must be A basis symbols)."""
    mha = H.mha
    mod = counit_module(mha)
    mult = mha.algebra.mult_basis
    return HAModule(H, mod, trivial_coaction(mod),
                    lambda hs, ms: mult[hs, ms],
                    name=name or (mha.name + ":mult-over-" + H.name))


def collapse_ha_module(H, yd, name=None):
    """H = K acting by scalars on a plain YD module: the mixed laws collapse
    to the YD laws."""
    if H.alg.basis != ["*"]:
        raise ValueError("collapse fixture needs the one-dimensional H")
    return HAModule(H, yd.module, yd.coaction,
                    lambda hs, ms: yd.module.el(ms),
                    name=name or (yd.name + ":collapse"))


def check_ha_module(M, samples=30, seed=0, suite="hq-monoidal"):
    """The left H-module law and both mixed compatibilities, plus the YD laws
    of the underlying A-structure when both slices are available."""
    mha = M.mha
    H = M.H
    rep = Report(suite, "%s/%s" % (mha.name, M.name), mha.field.name,
                 seed, samples)
    rng = random.Random(seed)

    def check(h, hp, m):
        if M.h_act(H.alg.mult(h, hp), m) != M.h_act(h, M.h_act(hp, m)):
            return "h=%r h'=%r m=%r" % (h, hp, m)
    rep.law("ha-left-module", "(hh') -> m = h -> (h' -> m)", check,
            draws(rng, samples, (H.alg, 2), (H.alg, 2), (M.module, 3)))

    def check(a, h, m):
        lhs = M.module.act(a, M.h_act(h, m))
        e = M.module.local_unit([m])

        def term(s):
            p, q = legs(s)
            return M.h_act(H.module.act(mha.el(p), h), M.module.act(mha.el(q), m))
        rhs = mha.delta_r(a, e).map_terms(term)
        if lhs != rhs:
            return "a=%r h=%r m=%r lhs=%r rhs=%r" % (a, h, m, lhs, rhs)
    rep.law("ha-action-compat", "a.(h -> m) = (a_(1).h) -> (a_(2).m)", check,
            draws(rng, samples, mha.algebra, (H.alg, 2), (M.module, 3)))

    def check(h, m, ap):
        lhs = M.coaction.slice_r(M.h_act(h, m), ap)

        def term(s):  # h_(0) (x) h_(1)a' -> h_(0) -> m_(0) (x) m_(1)h_(1)a'
            h0, k = split_sym(s, H.module.arity)
            return apply_legs(M.coaction.slice_r(m, mha.el(k)), 0,
                              M.module.arity,
                              lambda m0: M.h_act(H.alg.el(h0), m0))
        rhs = H.coaction.slice_r(h, ap).map_terms(term)
        if lhs != rhs:
            return "h=%r m=%r a'=%r lhs=%r rhs=%r" % (h, m, ap, lhs, rhs)
    rep.law("ha-coaction-compat",
            "rho(h -> m)(1 (x) a') = h_(0) -> m_(0) (x) m_(1) h_(1) a'",
            check, draws(rng, samples, (H.alg, 2), (M.module, 3), mha.algebra))

    if M.coaction.has_slice_l:
        rep.merge(check_yd(YDModule(M.module, M.coaction, name=M.name),
                           samples, seed, suite), "yd")
    return rep


def right_h_action(M, samples=20, seed=0):
    """The right action m <- h = h_(0) -> (h_(1).m); only defined over an
    A-commutative H (rejected otherwise with the failing pair)."""
    comm = check_a_commutative(M.H, samples, seed)
    if not comm.ok:
        raise ValueError("right action needs an A-commutative H: %s"
                         % comm.failures()[0].witness)
    return lambda m, h: M.r_act(m, h)


def check_h_bimodule(M, samples=40, seed=0, suite="hq-monoidal"):
    """m <- h together with -> makes M an H-bimodule: right-module law and
    the interchange law on samples."""
    mha = M.mha
    H = M.H
    rep = Report(suite, "%s/%s" % (mha.name, M.name), mha.field.name,
                 seed, samples)
    rng = random.Random(seed)

    def right_module(h, hp, m):
        if M.r_act(m, H.alg.mult(h, hp)) != M.r_act(M.r_act(m, h), hp):
            return "h=%r h'=%r m=%r" % (h, hp, m)

    def interchange(h, hp, m):
        if M.r_act(M.h_act(h, m), hp) != M.h_act(h, M.r_act(m, hp)):
            return "h=%r h'=%r m=%r" % (h, hp, m)

    rep.law_group([
        ("ha-right-module", "m <- (hh') = (m <- h) <- h'", right_module),
        ("ha-bimodule-interchange", "(h -> m) <- h' = h -> (m <- h')",
         interchange)],
        draws(rng, samples, (H.alg, 2), (H.alg, 2), (M.module, 3)))
    return rep


# -- the balanced tensor product -----------------------------------------------

class BalancedTensor:
    """M (x)_H N: the quotient of M (x) N by the balancing relators
    (m <- h) (x) n - m (x) (h -> n), carrying the diagonal A-action and the
    composite coaction m_(0) (x) n_(0) (x) n_(1) m_(1) a' of the ambient
    amb = yd.tensor_module(M, N) with its tensor_coaction, and the H-actions
    h -> (m (x) n) = (h -> m) (x) n and (m (x) n) <- h = m (x) (n <- h)."""

    def __init__(self, M, N, name=None):
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
        self.name = name or ("%s(x)_H%s" % (M.name, N.name))
        self.amb = tensor_module(M.module, N.module)
        self.amb_coaction = tensor_coaction(self.amb, M, N)
        rels = []
        for ms in M.module.basis:
            for hs in H.alg.basis:
                for ns in N.module.basis:
                    r = (tensor(M.r_act(M.module.el(ms), H.alg.el(hs)),
                                N.module.el(ns))
                         - tensor(M.module.el(ms), N.h_act_basis[hs, ns]))
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
            r_act=lambda m, h: q.project(r_amb(q.section(m), h)),
            name=self.name)


def check_balanced_tensor(T, samples=20, seed=0, suite="hq-monoidal"):
    """Relator stability of every descended structure (exact span-membership
    through the quotient projection), the mixed-module laws on the quotient,
    and agreement of the descended right action with the one recomputed from
    the quotient coaction."""
    mha = T.mha
    rep = Report(suite, "%s/%s" % (mha.name, T.name), mha.field.name,
                 seed, samples)
    rng = random.Random(seed)
    rels = T.relators
    if len(rels) > 60:
        rels = rng.sample(rels, 60)

    def action(rel, a, h, ap):
        if not T.quot.project(T.amb.act(a, rel)).is_zero():
            return "a=%r rel=%r" % (a, rel)

    def h_action(rel, a, h, ap):
        if not T.quot.project(T.h_amb(h, rel)).is_zero():
            return "h=%r rel=%r" % (h, rel)

    def r_action(rel, a, h, ap):
        if not T.quot.project(T.r_amb(rel, h)).is_zero():
            return "h=%r rel=%r" % (h, rel)

    def coaction(rel, a, h, ap):
        if not apply_legs(T.amb_coaction.slice_r(rel, ap), 0, T.arity,
                          T.quot.project).is_zero():
            return "a'=%r rel=%r" % (ap, rel)

    rep.law_group([
        ("tensor-relator-action", "the diagonal A-action preserves the "
         "balancing relators", action),
        ("tensor-relator-h-action", "h -> (.) preserves the balancing "
         "relators", h_action),
        ("tensor-relator-r-action", "(.) <- h preserves the balancing "
         "relators", r_action),
        ("tensor-relator-coaction", "the composite coaction preserves the "
         "balancing relators", coaction)],
        ((rel,) + drawn for rel, drawn in zip(rels, draws(
            rng, len(rels), mha.algebra, (T.H.alg, 2), mha.algebra))))

    rep.merge(check_ha_module(T.ham, samples, seed, suite), "tensor")

    def check(m, h):
        if T.ham.r_act(m, h) != T.ham.r_act_formula(m, h):
            return "m=%r h=%r" % (m, h)
    rep.law("tensor-right-action",
            "(m (x) n) <- h = m (x) (n <- h) matches h_(0) -> (h_(1).(m (x) n))",
            check, draws(rng, samples if T.quot.basis else 0,
                         (T.ham.module, 2), (T.H.alg, 2)))
    return rep


def _image_rank(images, ambient_basis):
    nz = [im for im in images if not im.is_zero()]
    if not nz:
        return 0
    return QuotientSpace(ambient_basis, nz).rank


def check_unit_laws(M, samples=15, seed=0, suite="hq-monoidal"):
    """M (x)_H H = M = H (x)_H M: dimensions match and the canonical maps
    m (x) h -> m <- h and h (x) m -> h -> m kill the relators, are bijective,
    and intertwine all three structures."""
    mha = M.mha
    H = M.H
    rep = Report(suite, "%s/%s" % (mha.name, M.name), mha.field.name,
                 seed, samples)
    rng = random.Random(seed)
    RH = h_unit_ha_module(H)
    dim_m = len(M.module.basis)

    for side, T, mapper in [
            ("right", BalancedTensor(M, RH),
             lambda ms, hs: M.r_act(M.module.el(ms), H.alg.el(hs))),
            ("left", BalancedTensor(RH, M),
             lambda hs, ms: M.h_act_basis[hs, ms])]:
        am = T.am

        def psi(x, _am=am, _mapper=mapper):
            return x.map_terms(lambda s: _mapper(*split_sym(s, _am)))

        rep.add("tensor-unit-dim-%s" % side,
                "dim(M (x)_H H) = dim(M) (%s unit law)" % side,
                len(T.quot.basis) == dim_m,
                None if len(T.quot.basis) == dim_m else
                "dim %d != %d" % (len(T.quot.basis), dim_m))
        ok = all(psi(rel).is_zero() for rel in T.relators)
        rep.add("tensor-unit-welldef-%s" % side,
                "the canonical unit map kills the balancing relators", ok,
                None if ok else "some relator has a nonzero image")
        images = [psi(T.quot.section(Element.basis(M.field, b)))
                  for b in T.quot.basis]
        rk = _image_rank(images, M.module.basis)
        rep.add("tensor-unit-bijective-%s" % side,
                "the canonical unit map is bijective",
                rk == len(T.quot.basis) == dim_m,
                None if rk == len(T.quot.basis) == dim_m else
                "image rank %d, dims %d/%d" % (rk, len(T.quot.basis), dim_m))

        def check(c, a, h):
            sec = T.quot.section(c)
            if psi(T.quot.section(T.ham.module.act(a, c))) != M.module.act(a, psi(sec)):
                return "A-action at c=%r a=%r" % (c, a)
            if psi(T.quot.section(T.ham.h_act(h, c))) != M.h_act(h, psi(sec)):
                return "H-action at c=%r h=%r" % (c, h)
            # coaction: map the carrier legs, keep the A-leg
            got = apply_legs(T.ham.coaction.slice_r(c, a), 0, T.arity, psi)
            if got != M.coaction.slice_r(psi(sec), a):
                return "coaction at c=%r a=%r" % (c, a)
        rep.law("tensor-unit-structure-%s" % side,
                "the canonical unit map intertwines action, H-action and "
                "coaction", check,
                draws(rng, samples if T.quot.basis else 0, (T.ham.module, 2),
                      mha.algebra, (H.alg, 2)))
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


def associator_maps(X, Y, Z):
    """The two iterated balanced tensors and the rebracketing maps between
    them, realized through projections of the flat X (x) Y (x) Z space."""
    built = {}
    TL, _, to_l = bracketing(((X, Y), Z), built)
    TR, _, to_r = bracketing((X, (Y, Z)), built)

    def phi(c):
        return to_r(TL.quot.section(c))

    def phi_inv(c):
        return to_l(TR.quot.section(c))

    return TL, TR, phi, phi_inv, to_l, to_r


def check_associator(X, Y, Z, samples=15, seed=0, suite="hq-monoidal"):
    """The rebracketing map is well-defined (it agrees with the flat
    projections on every representative), invertible, and linear over A and
    H on samples."""
    mha = X.mha
    rep = Report(suite, "%s/%s,%s,%s" % (mha.name, X.name, Y.name, Z.name),
                 mha.field.name, seed, samples)
    TL, TR, phi, phi_inv, to_l, to_r = associator_maps(X, Y, Z)
    rng = random.Random(seed)

    rep.add("assoc-dim", "both bracketings have the same dimension",
            len(TL.quot.basis) == len(TR.quot.basis),
            None if len(TL.quot.basis) == len(TR.quot.basis) else
            "%d != %d" % (len(TL.quot.basis), len(TR.quot.basis)))

    flats = X.module.space.tensor(Y.module.space).tensor(Z.module.space).basis
    probe = flats if len(flats) <= 60 else rng.sample(flats, 60)

    def check(t):
        ft = Element.basis(mha.field, t)
        if phi(to_l(ft)) != to_r(ft) or phi_inv(to_r(ft)) != to_l(ft):
            return "t=%r" % ft
    rep.law("assoc-canonical", "the rebracketing map agrees with the flat "
            "projections on every representative", check, zip(probe))

    def check(side, b, there, back):
        c = Element.basis(mha.field, b)
        if back(there(c)) != c:
            return "%s basis %r" % (side, c)
    rep.law("assoc-invertible", "the rebracketing map is invertible", check,
            [("left", b, phi, phi_inv) for b in TL.quot.basis]
            + [("right", b, phi_inv, phi) for b in TR.quot.basis])

    def check(c, a, h):
        if phi(TL.ham.module.act(a, c)) != TR.ham.module.act(a, phi(c)):
            return "A-linearity at c=%r a=%r" % (c, a)
        if phi(TL.ham.h_act(h, c)) != TR.ham.h_act(h, phi(c)):
            return "H-linearity at c=%r h=%r" % (c, h)
    rep.law("assoc-linear", "the rebracketing map is A-linear and H-linear",
            check, draws(rng, samples if TL.quot.basis else 0,
                         (TL.ham.module, 2), mha.algebra, (X.H.alg, 2)))
    return rep


def check_pentagon(X, Y, Z, W, suite="hq-monoidal", seed=0):
    """Both composite rebracketing paths from (((X (x) Y) (x) Z) (x) W) to
    (X (x) (Y (x) (Z (x) W))) agree on every basis class."""
    mha = X.mha
    rep = Report(suite, "%s/%s,%s,%s,%s" % (mha.name, X.name, Y.name,
                                            Z.name, W.name),
                 mha.field.name, seed, 0)
    built = {}
    (o1, _, _), o5, o4, o2, o3 = (bracketing(tree, built) for tree in [
        (((X, Y), Z), W), ((X, Y), (Z, W)), (X, (Y, (Z, W))),
        ((X, (Y, Z)), W), (X, ((Y, Z), W))])

    def path(flat, *stops):
        """Rebracket flat through each stop in turn, lifting it back to a
        flat representative between stops."""
        for T, _, project in stops[:-1]:
            flat = T.quot.section(project(flat))
        return stops[-1][2](flat)

    def check(b):
        flat = o1.quot.section(Element.basis(mha.field, b))
        if path(flat, o5, o4) != path(flat, o2, o3, o4):
            return "class %r" % flat
    rep.law("pentagon", "the two composite rebracketing paths agree",
            check, zip(o1.quot.basis))
    return rep


# -- suite drivers ---------------------------------------------------------------

def check_module_algebra_suite(mha, samples=30, seed=0, suite="module-algebra"):
    """Module-algebra, comodule-algebra, A-commutativity and joint YD-algebra
    laws over the standard fixtures available on an instance."""
    rep = Report(suite, mha.name, mha.field.name, seed, samples)
    rep.merge(check_module_algebra(counit_module_algebra(mha),
                                   samples, seed, suite), "counit")
    if mha.cocommutative and mha.materializes_coproduct:
        rep.merge(check_module_algebra(adjoint_module_algebra(mha),
                                       samples, seed, suite), "adjoint")

    carrier = counit_module(mha)
    rep.merge(check_comodule_algebra(mha.algebra,
                                     coproduct_coaction(carrier),
                                     samples, seed, suite), "delta")
    rep.merge(check_comodule_algebra(mha.algebra, trivial_coaction(carrier),
                                     samples, seed, suite), "trivial")

    k = trivial_yd_module_algebra(mha)
    rep.merge(check_yd_module_algebra(k, samples, seed, suite), "K")
    rep.merge(check_a_commutative(k, samples, seed, suite), "K")

    ct = counit_yd_module_algebra(mha)
    rep.merge(check_yd_module_algebra(ct, samples, seed, suite),
              "counit-trivial")
    if mha.commutative:
        rep.merge(check_a_commutative(ct, samples, seed, suite),
                  "counit-trivial")
    if mha.cocommutative and mha.materializes_coproduct:
        rep.merge(check_yd_module_algebra(
            adjoint_trivial_yd_module_algebra(mha), samples, seed, suite),
            "adjoint-trivial")
        rep.merge(check_yd_module_algebra(canonical_yd_module_algebra(mha),
                                          samples, seed, suite),
                  "adjoint-delta")
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


def check_hq_monoidal(mha, samples=10, seed=0, suite="hq-monoidal"):
    """Mixed-module laws, bimodule laws, balanced tensor products with
    relator stability, unit laws, associator and one pentagon sample over
    the default fixtures, at no more than 15 samples."""
    samples = min(samples, 15)
    rep = Report(suite, mha.name, mha.field.name, seed, samples)
    for tag, H, mods in default_hq_fixtures(mha):
        rep.merge(check_yd_module_algebra(H, samples, seed, suite), tag)
        rep.merge(check_a_commutative(H, samples, seed, suite), tag)
        for M in mods:
            mtag = "%s:%s" % (tag, M.name)
            rep.merge(check_ha_module(M, samples, seed, suite), mtag)
            rep.merge(check_h_bimodule(M, samples, seed, suite), mtag)
            if M.module.basis is not None:
                T = BalancedTensor(M, M)
                rep.merge(check_balanced_tensor(T, samples, seed, suite),
                          mtag)
                rep.merge(check_unit_laws(M, samples, seed, suite), mtag)
        small = min(mods, key=lambda m: len(m.module.basis or [0]))
        if small.module.basis is not None:
            rep.merge(check_associator(mods[-1], small, small,
                                       samples, seed, suite), tag)
            rep.merge(check_pentagon(small, small, small, small,
                                     suite=suite, seed=seed), tag)
    return rep
