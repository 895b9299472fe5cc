"""Unital modules over a multiplier Hopf algebra, their twists, and
comodules given by coaction slice maps.  A multiplier f acts on a unital
module by f.x = (fe).x for a local unit e of x, and x embeds in the
extended module as the map rho_x(a) = a.x; check_extended_modules writes
both on the module action, the product and the local unit.

A coaction is never materialized as Gamma(v) on non-unital instances; it is
carried by its right slice sliceR(v, a) = Gamma(v)(1 (x) a) = v_(0) (x) v_(1)a
and, when the coaction is two-sided-multiplier valued, also the left slice
sliceL(v, a) = (1 (x) a)Gamma(v) = v_(0) (x) a v_(1).

A twist is an automorphism called as aut(x) and aut.inverse(x); the
identity is instances.ID, at which the twisted adjoint action reads the
untwisted slice table delta_r and twisted_module is the module itself.
"""

from .linear import (Element, Ten, Memo, Memo2, bilinear, split_sym,
                     apply_legs)
from .mha import Space, probe_elements
from .report import Report, equal
from .instances import ID


class UnitalModule:
    """A unital non-degenerate left module over a multiplier Hopf algebra
    or a crossed product (mha), on a carrier Space.

    act_basis(a_sym, v_sym) gives the action of a basis algebra element on a
    basis module vector; space lists or samples the module's basis symbols,
    and module.basis reads its basis (None when infinite).
    local_unit(velems, aelems) returns e in A with e.v = v for the given
    module elements and ea = ae = a for the given algebra elements: the
    unit on a unital instance, and the module's local_unit rule, which
    non-unital instances require, otherwise.

    The module keeps three kinds of table, each read by basis symbol and
    each assuming the map it memoizes is pure (as bilinear does):

    - act_basis[a_sym, v_sym], the action of a basis pair, which act
      extends bilinearly;
    - local_unit_basis[v_sym], the local unit of el(v_sym) alone, that is
      local_unit([el(v_sym)]);
    - _slice_acts[beta], one per twist, the bilinear extension of the
      table of yd.act_on_slice's per-pair formula at beta (filled there).

    The tables belong to the object: a module built from a different (say,
    corrupted) action map starts cold and never sees this one's images.
    None of them closes over the module, so none makes a reference cycle.
    """

    def __init__(self, mha, act_basis, space, *, local_unit=None, arity=1,
                 name="module"):
        self.mha = mha
        self.field = mha.field
        self.name = name
        self.arity = arity  # how many tensor legs a basis symbol occupies
        self.space = space
        self.basis = space.basis
        self.act_basis = Memo2(act_basis)
        self._act = bilinear(self.field, self.act_basis)
        self._unit = mha.algebra.unit
        if local_unit is None and self._unit is None:
            raise ValueError("non-unital instance: module %s needs a local unit rule" % name)
        self._local_unit = local_unit
        unit, field = self._unit, self.field
        self.local_unit_basis = Memo(
            (lambda s: unit) if unit is not None
            else lambda s: local_unit([Element.basis(field, s)], []))
        self._slice_acts = {}  # beta -> yd.act_on_slice's extension

    def el(self, sym, coeff=None):
        return Element.basis(self.field, sym, coeff)

    def act(self, a, v):
        return self._act(a, v)

    def local_unit(self, velems, aelems=()):
        if self._unit is not None:
            return self._unit
        return self._local_unit(list(velems), list(aelems))


def twisted_module(module, aut, name=None):
    """The module twisted by an automorphism aut: a.v = aut(a).v on the
    same carrier, memoized per basis pair like any action.  Its local unit
    is aut^-1(e) for e = module.local_unit(v's, aut(a)'s): aut(aut^-1(e)).v
    = e.v = v and aut^-1(e)a = aut^-1(e aut(a)) = a.  At aut = ID it is
    module itself, so its action table is read."""
    if aut is ID:
        return module
    alg = module.mha.algebra

    def act(a, v):
        return module.act(aut(alg.el(a)), module.el(v))

    def local_unit(velems, aelems):
        return aut.inverse(module.local_unit(velems, [aut(a) for a in aelems]))

    return UnitalModule(module.mha, act, module.space, local_unit=local_unit,
                        arity=module.arity, name=name or module.name)


# -- coactions ----------------------------------------------------------------

class Coaction:
    """A right coaction on a unital module, carried by slice maps.

    slice_r_basis(v_sym, a_sym) -> Element of V (x) A realizing
    Gamma(v)(1 (x) a); slice_l_basis, when present, realizes (1 (x) a)Gamma(v)
    (two-sided multiplier-valued coactions carry both).

    Each slice is extended bilinearly, and the image of each basis pair
    (v_sym, a_sym) is memoized in this coaction object, which assumes the
    slice maps are pure (as bilinear does): slice_r_basis[v_sym, a_sym] and
    slice_l_basis[v_sym, a_sym] read the memos by symbol.  The memos belong
    to the object: a coaction built from different (say, corrupted) slice
    maps starts cold and never sees this one's images.  So do the braidings
    read through its right and left slices (yd.braiding_c, braiding_c_inv),
    memoized per basis symbol in _braidings."""

    def __init__(self, module, slice_r_basis, slice_l_basis=None,
                 name="coaction"):
        self.module = module
        self.mha = module.mha
        self.field = module.field
        self.name = name
        self.slice_r_basis = Memo2(slice_r_basis)
        self._slice_r = bilinear(self.field, self.slice_r_basis)
        self.slice_l_basis = self._slice_l = None
        if slice_l_basis is not None:
            self.slice_l_basis = Memo2(slice_l_basis)
            self._slice_l = bilinear(self.field, self.slice_l_basis)
        self._braidings = {}  # (kind, X, beta) -> memoized linear map

    @property
    def has_slice_l(self):
        return self._slice_l is not None

    def slice_r(self, v, a):
        return self._slice_r(v, a)

    def slice_l(self, v, a):
        if self._slice_l is None:
            raise ValueError("%s has no left slice" % self.name)
        return self._slice_l(v, a)


# -- standard fixtures ---------------------------------------------------------

def regular_module(mha):
    """A acting on itself by multiplication."""
    alg = mha.algebra
    mult = alg.mult_basis
    return UnitalModule(
        mha, lambda a, v: mult[a, v], alg.space,
        local_unit=lambda velems, aelems: alg.local_unit(velems + aelems),
        name=mha.name + ":regular")


def counit_module(mha, name=None, space=None):
    """A acting through the counit, a.v = eps(a) v, on a carrier Space that
    defaults to A's."""
    alg = mha.algebra
    return UnitalModule(
        mha, lambda a, v: Element.basis(mha.field, v, mha.counit(alg.el(a))),
        alg.space if space is None else space,
        # any e with eps(e) = 1 absorbing the algebra elements works
        local_unit=lambda velems, aelems: alg.local_unit(aelems + [mha.eps_one]),
        name=name or (mha.name + ":counit"))


def trivial_module(mha):
    """The base field as a module: the counit action on the carrier "*"."""
    return counit_module(mha, mha.name + ":trivial", Space(["*"]))


def adjoint_module(mha, alpha=ID, beta=ID, name=None):
    """A acting on itself by the inverse-antipode-twisted adjoint action
    a.v = beta(a_(2)) v alpha(S^-1(a_(1))) at the pair (alpha, beta), read
    from the slice Delta(a)(1 (x) beta^-1(v)) = a_(1) (x) a_(2)beta^-1(v);
    at beta = ID that slice is a read of delta_r's table.  The untwisted
    action a_(2) v S^-1(a_(1)) is the one at alpha = beta = ID.

    The local unit rule comes from the slices too: with u a local unit of
    a basis symbol of v and c a coproduct cover of
    S(alpha^-1(u)) (x) beta^-1(u), memoized per symbol, every e with ec = c
    fixes S(alpha^-1(u))e_(1) (x) e_(2)beta^-1(u) on a commutative A, so
    e.v = e.(uvu) = v.  On K(G) at the identity that is delta_e, the
    counit module's rule."""
    alg = mha.algebra
    delta_r = mha.delta_r_basis
    twisted = Memo(lambda p: alpha(mha.antipode_inv_basis[p]))

    def act(a, v):
        x = (delta_r[a, v] if beta is ID
             else mha.delta_r(alg.el(a), beta.inverse(alg.el(v))))
        return x.map_legs(
            lambda p, q: alg.mult(beta(alg.el(q)), twisted[p]))

    def cover(s):
        u = alg.local_unit([alg.el(s)])
        return mha.delta_cover([mha.antipode(alpha.inverse(u))],
                               [beta.inverse(u)])
    covers = Memo(cover)

    def local_unit(velems, aelems):
        return alg.local_unit([covers[s] for v in velems for s in v.terms]
                              + aelems)

    return UnitalModule(mha, act, alg.space, local_unit=local_unit,
                        name=name or (mha.name + ":adjoint"))


def coproduct_coaction(module):
    """Gamma = Delta on a module whose carrier is A itself; both slices."""
    mha = module.mha
    delta_r, delta_l2 = mha.delta_r_basis, mha.delta_l2_basis
    return Coaction(module,
                    lambda v, a: delta_r[v, a],
                    lambda v, a: delta_l2[a, v],
                    name=module.name + ":delta")


def trivial_coaction(module):
    """Gamma(v) = v (x) 1 through slices (valid without a unit)."""
    field = module.field
    return Coaction(module,
                    lambda v, a: Element.basis(field, Ten((v, a))),
                    lambda v, a: Element.basis(field, Ten((v, a))),
                    name=module.name + ":trivial")


# -- checkers ------------------------------------------------------------------

def check_comodule(coaction, samples=50, seed=0):
    """All comodule laws, evaluated purely through slice compositions."""
    mha = coaction.mha
    alg = mha.algebra
    mod = coaction.module
    rep = Report("comodule", coaction, seed, samples)

    # Gamma(v) is a right-module map: Gamma(v)(1 (x) aa') agrees with
    # right-multiplying the second leg of Gamma(v)(1 (x) a) by a'
    rep.law("coaction-module-map", "Gamma(v)(1(x)aa') = (Gamma(v)(1(x)a))(1(x)a')",
            equal(lambda v, a, ap: coaction.slice_r(v, alg.mult(a, ap)),
                  lambda v, a, ap: apply_legs(coaction.slice_r(v, a), mod.arity,
                                              1, lambda v1: alg.mult(v1, ap))),
            rep.draws((mod, 3), alg, alg))

    # sliced coassociativity:
    #   v_(0) (x) v_(1)(1) x (x) v_(1)(2) y  =  v_(0)(0) (x) v_(0)(1) x (x) v_(1) y
    # LHS: replace the multiplier v_(1) by v_(1)c for a coproduct cover c of
    # (x, y); then Delta(v_(1)c)(x (x) y) = deltaR2(., x) right-multiplied by y.
    def lhs(v, x, y):
        c = mha.delta_cover([x], [y])
        return apply_legs(coaction.slice_r(v, c), mod.arity, 1,
                          lambda w: apply_legs(mha.delta_r2(w, x), 1, 1,
                                               lambda w2: alg.mult(w2, y)))
    rep.law("coaction-coassoc", "sliced coassociativity of Gamma", equal(
        lhs, lambda v, x, y: apply_legs(coaction.slice_r(v, y), 0, mod.arity,
                                        lambda v0: coaction.slice_r(v0, x))),
        rep.draws((mod, 3), alg, alg))

    # counitary
    rep.law("coaction-counit", "(i (x) eps)(Gamma(v)(1(x)a)) = v eps(a)",
            equal(lambda v, a: mha.counit_leg(coaction.slice_r(v, a), mod.arity),
                  lambda v, a: v.scaled(mha.counit(a))),
            rep.draws((mod, 3), alg))

    if coaction.has_slice_l:
        # two-sided multiplier compatibility:
        # (1 (x) a)(Gamma(v)(1 (x) a')) = ((1 (x) a)Gamma(v))(1 (x) a')
        rep.law("coaction-two-sided", "left and right slices agree as a two-sided multiplier",
                equal(lambda v, a, ap: apply_legs(coaction.slice_r(v, ap), mod.arity,
                                                  1, lambda v1: alg.mult(a, v1)),
                      lambda v, a, ap: apply_legs(coaction.slice_l(v, a), mod.arity,
                                                  1, lambda v1: alg.mult(v1, ap))),
                rep.draws((mod, 3), alg, alg))

    return rep


def finite_dim_inclusion(coaction, seed=0):
    """Certify that Gamma(v) factors as a finite sum sum_w w (x) m_w over
    at most dim(V) basis vectors w, for every basis vector v of a
    finite-dimensional carrier, with each m_w a multiplier: its left map
    y |-> (Gamma(v)(1 (x) y))_w and right map x |-> ((1 (x) x)Gamma(v))_w
    satisfy (x m_w) y = x (m_w y) (checked when the coaction has a left
    slice).  The probes are the basis of A (10 seeded elements of an
    infinite one)."""
    mha = coaction.mha
    alg = mha.algebra
    mod = coaction.module
    rep = Report("extended-modules", coaction, seed, 0)
    if mod.basis is None:
        rep.add("finite-dim", "carrier is finite-dimensional",
                "module %s has no finite basis" % mod.name)
        return rep

    probes = probe_elements(rep.rng, alg, 10)

    def component(img, wsym):
        parts = (split_sym(s, mod.arity) + (c,) for s, c in img.terms.items())
        return Element(mha.field, {a: c for w, a, c in parts if w == wsym})

    def components_used(vsym):
        used = set()
        for a in probes:
            for s in coaction.slice_r(mod.el(vsym), a).terms:
                used.add(split_sym(s, mod.arity)[0])
        return vsym, used

    def factorization(vsym, used):
        if len(used) > len(mod.basis):
            return "factorization rank %d exceeds dim %d at v=%r" % (
                len(used), len(mod.basis), mod.el(vsym))

    def multipliers(vsym, used):
        v = mod.el(vsym)
        for wsym in sorted(used, key=repr):
            if coaction.has_slice_l and any(
                    alg.mult(component(coaction.slice_l(v, x), wsym), y)
                    != alg.mult(x, component(coaction.slice_r(v, y), wsym))
                    for x in probes for y in probes):
                return "component at v=%r w=%r" % (vsym, wsym)

    rep.law_group([
        ("finite-dim-factorization",
         "Gamma(v) = sum_i v_i (x) m_i with at most dim(V) components",
         factorization),
        ("finite-dim-multipliers",
         "each factor m_i is a compatible multiplier on probe elements",
         multipliers)], map(components_used, mod.basis))
    return rep


def check_comodule_suite(mha, samples=50, seed=0):
    """check_comodule on Delta (regular module) and trivial (counit module)."""
    rep = Report("comodule", mha, seed, samples)
    rep.merge(check_comodule(coproduct_coaction(regular_module(mha)),
                             samples, seed), "delta")
    rep.merge(check_comodule(trivial_coaction(counit_module(mha)),
                             samples, seed), "trivial")
    return rep


def check_extended_modules(mha, samples=40, seed=0):
    """The regular module's extension to M(A) and its extended module: a
    multiplier f acts by f.x = (fe).x for a local unit e of x, and x
    embeds as the map rho_x(a) = a.x.  Both are written on mod.act,
    alg.mult and mod.local_unit.  On a finite basis also
    finite_dim_inclusion of Gamma = Delta."""
    alg = mha.algebra
    rep = Report("extended-modules", mha, seed, samples)
    mod = regular_module(mha)

    # 1.x = e.x = x, and (ae).x = (ae').x for a second local unit e' of x;
    # the second decomposition is drawn only once 1.x = x holds
    more = rep.draws((mod, 3), alg)

    def check(x):
        e = mod.local_unit([x])
        if mod.act(e, x) != x:
            return "x=%r" % x
        xp, a = next(more)
        e2 = mod.local_unit([x, xp])
        if mod.act(alg.mult(a, e), x) != mod.act(alg.mult(a, e2), x):
            return "decomposition-dependent extension at x=%r" % x
    rep.law("extend-action", "1.x = x and f.x independent of the decomposition",
            check, rep.draws((mod, 3)))

    # for unital algebras the extension is the plain action (Y = X)
    if alg.has_unit:
        rep.law("unital-identity", "extension along A subset M(A) is the plain action",
                equal(lambda a, x: mod.act(alg.mult(a, mod.local_unit([x])), x),
                      lambda a, x: mod.act(a, x)),
                rep.draws(alg, (mod, 3)))

    # rho_x(a) = a.x: rho_x(aa') = a.rho_x(a'), and
    # (a.rho_x)(p) = rho_x(pa) = rho_{a.x}(p) on the probes p = a', a
    def injective(x, a, ap):
        if not x.is_zero() and mod.act(mod.local_unit([x]), x).is_zero():
            return "x=%r killed by its local unit" % x

    rep.law_group([
        ("rho-left-kind", "rho(aa') = a.rho(a') and a.rho_x = rho_{a.x}", equal(
            lambda x, a, ap: mod.act(alg.mult(a, ap), x),
            lambda x, a, ap: mod.act(a, mod.act(ap, x)),
            lambda x, a, ap: [mod.act(alg.mult(p, a), x) for p in (ap, a)],
            lambda x, a, ap: [mod.act(p, mod.act(a, x)) for p in (ap, a)])),
        ("rho-injective", "x != 0 implies rho_x != 0 (witnessed on a local unit)",
         injective)],
        rep.draws((mod, 3), alg, alg))
    if alg.basis is not None:
        rep.merge(finite_dim_inclusion(coproduct_coaction(mod), seed=seed),
                  "delta")
    return rep
