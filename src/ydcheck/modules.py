"""Unital modules, extension of actions to multipliers, extended-module
elements as intensional maps, and comodules given by coaction slice maps.

A coaction is never materialized as Gamma(v) on non-unital instances; it is
carried by its right slice sliceR(v, a) = Gamma(v)(1 (x) a) = v_(0) (x) v_(1)a
and, when the coaction is two-sided-multiplier valued, also the left slice
sliceL(v, a) = (1 (x) a)Gamma(v) = v_(0) (x) a v_(1).

A twist is an automorphism called as aut(x) and aut.inverse(x); the
identity is instances.ID, at which the twisted adjoint action reads the
untwisted product table.
"""

from .linear import Element, Ten, Memo2, bilinear, split_sym, apply_legs
from .mha import Space, Multiplier, probe_elements
from .report import Report, equal
from .instances import ID


class UnitalModule:
    """A unital non-degenerate left module over a multiplier Hopf algebra,
    on a carrier Space.

    act_basis(a_sym, v_sym) gives the action of a basis algebra element on a
    basis module vector; space lists or samples the module's basis symbols,
    and module.basis reads its basis (None when infinite).
    local_unit(velems, aelems) returns e in A with e.v = v for the given
    module elements and ea = ae = a for the given algebra elements: the
    unit on a unital instance, and the module's local_unit rule, which
    non-unital instances require, otherwise.

    The action is extended bilinearly, and the image of each basis pair
    (a_sym, v_sym) is memoized in this module object, which assumes
    act_basis is pure (as bilinear does): module.act_basis[a_sym, v_sym]
    reads the memo by symbol, and act extends the same table.  The memo
    belongs to the object: a module built from a different (say, corrupted)
    action map starts cold and never sees this one's images.
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

    def el(self, sym, coeff=None):
        return Element.basis(self.field, sym, coeff)

    def act(self, a, v):
        return self._act(a, v)

    def local_unit(self, velems, aelems=()):
        if self._unit is not None:
            return self._unit
        return self._local_unit(list(velems), list(aelems))


# -- extension of the action to multipliers ----------------------------------

def extend_action(module, f, x):
    """The action of a multiplier f on x: write x = e.x for a local unit e
    and set f.x = (f e).x, which is independent of the decomposition."""
    e = module.local_unit([x])
    return module.act(f.left(e), x)


class ExtendedElement:
    """An element of the left extended module, kept intensionally as its
    defining map rho: a |-> a.y.  Equality is only ever decided
    extensionally on finitely many probe arguments."""

    def __init__(self, module, rho, label="extended"):
        self.module = module
        self.rho = rho
        self.label = label

    def acted_by(self, a):
        """The left A-action on extended elements: (a.rho)(a') = rho(a'a)."""
        alg = self.module.mha.algebra
        return ExtendedElement(self.module,
                               lambda ap: self.rho(alg.mult(ap, a)),
                               label="%r.%s" % (a, self.label))

    def __repr__(self):
        return self.label


def embed_rho(module, x):
    """The canonical embedding of x as the extended element a |-> a.x."""
    return ExtendedElement(module, lambda a: module.act(a, x),
                           label="rho(%r)" % x)


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
    a.v = beta(a_(2)) v alpha(S^-1(a_(1))) at the pair (alpha, beta); the
    untwisted action a_(2) v S^-1(a_(1)) is the one at alpha = beta = ID,
    where beta(a_(2)) v is a read of the product table.  Needs the
    materialized coproduct."""
    alg = mha.algebra

    mult = alg.mult_basis

    def act(a, v):
        def term(a1, a2):
            left = (mult[a2, v] if beta is ID
                    else alg.mult(beta(alg.el(a2)), alg.el(v)))
            return alg.mult(left, alpha(mha.antipode_inv(alg.el(a1))))
        return mha.coproduct(alg.el(a)).map_legs(term)

    return UnitalModule(mha, act, alg.space,
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
    """Certify that Gamma(v) factors as a finite sum sum_i v_i (x) m_i with
    each m_i a genuine multiplier, for every basis vector of a
    finite-dimensional carrier, probing with the basis of A (10 seeded
    elements of an infinite one)."""
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
            m = Multiplier(
                left=lambda a, ww=wsym: component(coaction.slice_r(v, a), ww),
                right=(None if not coaction.has_slice_l else
                       lambda a, ww=wsym: component(coaction.slice_l(v, a), ww)),
                label="m[%r,%r]" % (vsym, wsym))
            if coaction.has_slice_l and not m.compatible_on(alg, probes, probes):
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
    """Action extension to M(A), the rho embedding, and its module-map law;
    on a finite basis also finite_dim_inclusion of Gamma = Delta."""
    alg = mha.algebra
    rep = Report("extended-modules", mha, seed, samples)
    mod = regular_module(mha)

    # 1.x = x through the extension, and independence of the decomposition;
    # the second decomposition is drawn only once 1.x = x holds
    one = Multiplier(left=lambda y: y, right=lambda y: y, label="1")
    more = rep.draws((mod, 3), alg)

    def check(x):
        if extend_action(mod, one, x) != x:
            return "x=%r" % x
        # same multiplier, two different decompositions x = e.x = e'.x
        xp, a = next(more)
        e2 = mod.local_unit([x, xp])
        f = Multiplier.from_element(alg, a)
        if extend_action(mod, f, x) != mod.act(f.left(e2), x):
            return "decomposition-dependent extension at x=%r" % x
    rep.law("extend-action", "1.x = x and f.x independent of the decomposition",
            check, rep.draws((mod, 3)))

    # for unital algebras the extension is the plain action (Y = X)
    if alg.has_unit:
        rep.law("unital-identity", "extension along A subset M(A) is the plain action",
                equal(lambda a, x: extend_action(
                    mod, Multiplier.from_element(alg, a), x),
                    lambda a, x: mod.act(a, x)),
                rep.draws(alg, (mod, 3)))

    # rho embedding laws, on r = rho_x: rho(aa') = a.rho(a'), and
    # (a.rho_x)(p) = rho_x(pa) = rho_{a.x}(p) on the probes p = a', a
    def injective(x, r, a, ap):
        if not x.is_zero() and r.rho(mod.local_unit([x])).is_zero():
            return "x=%r killed by its local unit" % x

    rep.law_group([
        ("rho-left-kind", "rho(aa') = a.rho(a') and a.rho_x = rho_{a.x}", equal(
            lambda x, r, a, ap: r.rho(alg.mult(a, ap)),
            lambda x, r, a, ap: mod.act(a, r.rho(ap)),
            lambda x, r, a, ap: [r.acted_by(a).rho(p) for p in (ap, a)],
            lambda x, r, a, ap: [embed_rho(mod, mod.act(a, x)).rho(p)
                                 for p in (ap, a)])),
        ("rho-injective", "x != 0 implies rho_x != 0 (witnessed on a local unit)",
         injective)],
        ((x, embed_rho(mod, x), a, ap)
         for x, a, ap in rep.draws((mod, 3), alg, alg)))
    if alg.basis is not None:
        rep.merge(finite_dim_inclusion(coproduct_coaction(mod), seed=seed),
                  "delta")
    return rep
