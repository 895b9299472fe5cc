"""Yetter-Drinfel'd modules, their braided monoidal structure, half-braidings
(centre objects) and the functors realizing the centre equivalence.

A YD module carries the pair (alpha, beta) it sits at, and ordinary YD
modules are the ones at the identity pair (ID, ID) (gyd.py has the twisted
laws).  compat_rhs, yd_tensor, the braiding splice and its inverse each
take the twists and are the only implementation of both cases; every twist
defaults to instances.ID, and where a twist is ID the untwisted action and
product tables are read.  A twisted tensor product is the untwisted
tensor_module of two modules.twisted_module's.  Only the right coaction
slice is required, except by the braiding inverse, which reads the left.

The compatibility law used throughout, written in Sweedler legs, is

    (a.v)_(0) (x) (a.v)_(1) a'  =  a_(2).v_(0) (x) a_(3) v_(1) S^-1(a_(1)) a'

and it is evaluated without ever materializing the coproduct: a leg of a
is read from a slice against the element it multiplies (act_on_slice), or
against a local unit chosen so the spurious factors cancel where there is
no such element.  Each evaluator documents its slice composition.
"""


from .linear import (Element, linear, bilinear, tensor, split_sym,
                     apply_legs)
from .report import Report, equal
from .modules import (UnitalModule, Coaction, trivial_module,
                      trivial_coaction, adjoint_module, regular_module,
                      coproduct_coaction, twisted_module)
from .instances import ID, IDENTITY_PAIR


class YDModule:
    """A unital module with a coaction satisfying the compatibility law at
    the pair it carries, IDENTITY_PAIR by default.  The braiding's
    inverse reads the coaction's left slice, which raises, naming the
    coaction, when it has none."""

    def __init__(self, module, coaction, pair=IDENTITY_PAIR, name=None):
        if coaction.module is not module:
            raise ValueError("coaction built on a different module")
        self.module = module
        self.coaction = coaction
        self.pair = pair
        self.mha = module.mha
        self.field = module.field
        self.name = name or module.name


# -- compatibility evaluators ------------------------------------------------

def act_on_slice(module, a, x, beta=ID):
    """a_(1).v (x) beta(a_(2))m for x = sum v (x) m in V (x) A, such as a
    coaction slice, with no local unit: the bilinear extension of a
    per-pair formula, (a_sym, v (x) m) |-> sum a_(1).v (x) beta(a_(2))m,
    in which a_sym is split against the A-leg m it multiplies, read as
    Delta(a)(1 (x) beta^-1(m)) = a_(1) (x) a_(2)beta^-1(m) (a read of
    delta_r's table at beta = ID), and a pair with a_(1).v = 0 (read from
    the action table) is not tensored.  The formula's images are a table
    kept on the module per twist, module._slice_acts[beta]; the formula
    closes over the action table, never over the module."""
    ext = module._slice_acts.get(beta)
    if ext is None:
        mha, act, arity = module.mha, module.act_basis, module.arity
        delta_r, field = mha.delta_r_basis, module.field

        def formula(asym, tsym):
            v0, m = split_sym(tsym, arity)

            def pair(p, q):
                y = act[p, v0]
                if not y.terms:
                    return y
                return tensor(y, beta(Element.basis(field, q)))
            split = (delta_r[asym, m] if beta is ID else
                     mha.delta_r(Element.basis(field, asym),
                                 beta.inverse(Element.basis(field, m))))
            return split.map_legs(pair)
        ext = module._slice_acts[beta] = bilinear(field, formula)
    return ext(a, x)


def compat_rhs(module, coaction, a, ap, v, alpha=ID, beta=ID):
    """a_(2).v_(0) (x) beta(a_(3)) v_(1) alpha(S^-1(a_(1))) a'.

    Slice composition: with u a left local unit of a', the pairs of
    (S(alpha^-1(u)) (x) 1)Delta(a) are (S(alpha^-1(u))a_(1), a_(2)); applying
    alpha o S^-1 to the first gives alpha(S^-1(a_(1))) u, and u is absorbed
    by a'.  The remaining leg acts on the coaction slice through
    act_on_slice.
    """
    mha = module.mha
    alg = mha.algebra
    u = alg.local_unit([ap])
    b = mha.antipode(alpha.inverse(u))

    def outer(p, q):
        f1 = alg.mult(alpha(mha.antipode_inv_basis[p]), ap)
        return act_on_slice(module, alg.el(q), coaction.slice_r(v, f1), beta)
    return mha.delta_l(b, a).map_legs(outer)


def compat_alt_lhs(module, coaction, a, ap, v):
    """(a_(2).v)_(0) (x) (a_(2).v)_(1) a_(1) a'.

    Slices: Delta(a)(1 (x) u) with u a module local unit of v splits a so
    the second leg acts on v unchanged.
    """
    mha = module.mha
    alg = mha.algebra
    u = module.local_unit([v])

    def term(p, q):
        return coaction.slice_r(module.act(alg.el(q), v),
                                alg.mult(alg.el(p), ap))
    return mha.delta_r(a, u).map_legs(term)


def check_yd(yd, samples=40, seed=0):
    """Both forms of the compatibility law on seeded samples."""
    mha = yd.mha
    rep = Report("yd", yd, seed, samples)
    mod, coa = yd.module, yd.coaction

    rep.law_group([
        ("yd-compat",
         "(a.v)_(0) (x) (a.v)_(1)a' = a_(2).v_(0) (x) a_(3)v_(1)S^-1(a_(1))a'",
         equal(lambda a, ap, v: coa.slice_r(mod.act(a, v), ap),
               lambda a, ap, v: compat_rhs(mod, coa, a, ap, v))),
        ("yd-compat-alt",
         "(a_(2).v)_(0) (x) (a_(2).v)_(1)a_(1)a' = a_(1).v_(0) (x) a_(2)v_(1)a'",
         equal(lambda a, ap, v: compat_alt_lhs(mod, coa, a, ap, v),
               lambda a, ap, v: act_on_slice(mod, a, coa.slice_r(v, ap))))],
        rep.draws(mha.algebra, mha.algebra, (mod, 3)))
    return rep


# -- tensor product of YD modules --------------------------------------------

def tensor_module(V, W):
    """V (x) W with the diagonal action a_(1).v (x) a_(2).w, realized by
    splitting a against the local unit of the W component, read from W's
    table by symbol (W.local_unit_basis), and reading both factors' action
    tables.  A twisted tensor product is this one of two
    modules.twisted_module's.

    One local unit rule serves any two modules: with u, u' local units of
    the V- and W-legs and c a coproduct cover of u (x) u', every e with
    ec = c fixes each v (x) w, since Delta(e)(u (x) u') = u (x) u'.
    """
    mha = V.mha
    alg = mha.algebra
    vact, wact, wunit = V.act_basis, W.act_basis, W.local_unit_basis

    def act(asym, tsym):
        vs, ws = split_sym(tsym, V.arity)

        def term(p, q):
            return tensor(vact[p, vs], wact[q, ws])
        return mha.delta_r(alg.el(asym), wunit[ws]).map_legs(term)

    def local_unit(velems, aelems):
        vlegs, wlegs = [], []
        for x in velems:
            for s in x.terms:
                vs, ws = split_sym(s, V.arity)
                vlegs.append(V.el(vs))
                wlegs.append(W.el(ws))
        c = mha.delta_cover([V.local_unit(vlegs)], [W.local_unit(wlegs)])
        return alg.local_unit([c] + aelems)

    return UnitalModule(mha, act, V.space.tensor(W.space),
                        local_unit=local_unit, arity=V.arity + W.arity,
                        name="%s(x)%s" % (V.name, W.name))


def tensor_coaction(mod, V, W):
    """The coaction of V (x) W on its carrier mod: the right slice
    v_(0) (x) w_(0) (x) w_(1)v_(1)a (note the order), and the left slice
    v_(0) (x) w_(0) (x) a w_(1)v_(1) when both factors carry one."""
    Vm, Wm = V.module, W.module
    va, ca_v, ca_w = Vm.arity, V.coaction, W.coaction

    def slice_r(tsym, asym):
        vs, ws = split_sym(tsym, va)
        x = ca_v.slice_r_basis[vs, asym]  # v0 (x) v1 a
        # v1 a -> w0 (x) w1 v1 a
        return apply_legs(x, va, 1, lambda m: ca_w.slice_r(Wm.el(ws), m))

    def slice_l(tsym, asym):
        vs, ws = split_sym(tsym, va)

        def term(w0, m):  # w0 (x) a w1 -> v0 (x) w0 (x) a w1 v1
            y = ca_v.slice_l_basis[vs, m]
            return apply_legs(y, va, 1, lambda m2: tensor(Wm.el(w0), m2))
        return ca_w.slice_l_basis[ws, asym].map_legs(term, at=Wm.arity)

    both = ca_v.has_slice_l and ca_w.has_slice_l
    return Coaction(mod, slice_r, slice_l if both else None,
                    name=mod.name + ":coact")


def yd_tensor(V, W):
    """V@(a,b) (x) W@(c,d), landing at the pair product: the diagonal
    action c(x_(1)).v (x) c^-1 b c(x_(2)).w and the tensor coaction, whose
    second leg is w_(1)v_(1)a'.  At identity pairs both twists are ID, so
    this is the untwisted tensor product of the YD category."""
    gamma = W.pair.alpha
    theta = gamma.inverted().composed(V.pair.beta).composed(gamma)
    mod = tensor_module(twisted_module(V.module, gamma),
                        twisted_module(W.module, theta))
    return YDModule(mod, tensor_coaction(mod, V, W), V.pair.product(W.pair),
                    name="%s(x)%s" % (V.name, W.name))


# -- the braiding -------------------------------------------------------------

def _memoized(owner, key, field, term):
    """The linear extension of a braiding's per-symbol formula term,
    memoized per basis symbol in owner._braidings[key].  The owner is the
    object whose slice term reads, and key names the other factor X and the
    twist, so the memo lives and dies with the maps it was computed from.
    term reads the slice itself, never the owner, so the memo closes no
    reference cycle and is freed with its owner."""
    ext = owner._braidings.get(key)
    if ext is None:
        ext = owner._braidings[key] = linear(field, term)
    return ext


def _splice(owner, X, arity, slice_r, beta=ID):
    """x (x) v -> v_(0) (x) beta^-1(v_(1)).x for a right slice
    slice_r(v, a) = v_(0) (x) v_(1)a on a carrier of the given arity: the
    slice is taken at beta(e) for the local unit e of the basis vector x,
    read from X.local_unit_basis, so beta^-1 of its A-leg acts on x = e.x.
    Memoized in owner, keyed by (X, beta)."""
    def term(s):
        xs, vs = split_sym(s, X.arity)
        x = X.el(xs)
        e = X.local_unit_basis[xs]
        return apply_legs(slice_r(Element.basis(x.field, vs), beta(e)),
                          arity, 1, lambda m: X.act(beta.inverse(m), x))
    return _memoized(owner, ("c", X, beta), X.field, term)


def braiding_c(X, V, xv, beta=ID):
    """C_{X,V}(x (x) v) = v_(0) (x) beta^-1(v_(1)).x, with v_(1) acting
    through a local unit decomposition of x; the YD braiding is the one at
    beta = ID.  Memoized per basis symbol on V's coaction."""
    coa = V.coaction
    return _splice(coa, X, V.module.arity, coa._slice_r, beta)(xv)


def braiding_c_inv(X, V, vx, beta=ID):
    """C^-1(v (x) x) = beta^-1(S(v_(1))).x (x) v_(0), the mirror of
    braiding_c: the left slice is taken at S^-1(beta(e)) for the local
    unit e of the basis vector x, read from X.local_unit_basis, and
    beta^-1 o S of its A-leg is beta^-1(S(v_(1))beta(e)) =
    beta^-1(S(v_(1)))e, which acts on x = e.x.  Memoized per basis symbol
    on V's coaction, keyed by (X, beta)."""
    mha, mod, coa = V.mha, V.module, V.coaction
    # the bound method raises, naming the coaction, when it has no left slice
    slice_l = coa._slice_l if coa.has_slice_l else coa.slice_l

    def term(s):
        vs, xs = split_sym(s, mod.arity)
        x = X.el(xs)
        e = X.local_unit_basis[xs]

        def leg(v0, m):
            return tensor(X.act(beta.inverse(mha.antipode_basis[m]), x),
                          mod.el(v0))
        return slice_l(mod.el(vs), mha.antipode_inv(beta(e))).map_legs(
            leg, at=mod.arity)
    return _memoized(coa, ("c-inv", X, beta), X.field, term)(vx)


# -- half-braidings and the centre -------------------------------------------

class HalfBraiding:
    """An object of the centre, represented by the component of its natural
    family at the regular module: the attribute cA is the given map,
    cA(a, v) = C_{A,V}(a (x) v) in V (x) A.  Components at any other unital
    module are derived from it through local units and memoized in the
    table braidings (functor_g passes its coaction's)."""

    def __init__(self, module, cA, braidings, name=None):
        self.module = module
        self.mha = module.mha
        self.field = module.field
        self.cA = cA  # (Element of A, Element of V) -> Element of V (x) A
        self.name = name or (module.name + ":half-braiding")
        self._braidings = braidings  # ("c", X, ID) -> memoized component

    def component(self, X, xv):
        """C_{X,V}(x (x) v) = (i (x) xbar) C_{A,V}(e (x) v) for a local unit
        e of x, where xbar(a) = a.x; memoized per basis symbol."""
        cA = self.cA
        return _splice(self, X, self.module.arity,
                       lambda v, e: cA(e, v))(xv)


def functor_g(V):
    """YD module -> centre object: the regular component is the coaction
    right slice read backwards, cA(a, v) = v_(0) (x) v_(1) a.  It shares
    the braiding tables of V's coaction, so H.component(X, .) reads
    braiding_c(X, V, .)'s, and cA closes over the slice, not over V."""
    slice_r = V.coaction._slice_r
    return HalfBraiding(V.module, lambda a, v: slice_r(v, a),
                        V.coaction._braidings, name=V.name + ":G")


def functor_f(H):
    """Centre object -> YD module.  sliceR is cA itself; sliceL is the left
    product (1 (x) a)Gamma(v), recovered from the right slices.

    It has a left slice rule on two classes and raises ValueError on others:

    - unital: Gamma(v) = cA(1, v) is an honest element, multiply its A-leg
      from the left;
    - commutative: left and right products by 1 (x) a coincide on the range
      of the coaction, so sliceL = sliceR.
    """
    mha = H.module.mha
    alg = mha.algebra

    def slice_r(vsym, asym):
        return H.cA(alg.el(asym), H.module.el(vsym))

    if alg.has_unit:
        def slice_l(vsym, asym):
            gamma = H.cA(alg.unit, H.module.el(vsym))
            a = alg.el(asym)
            return apply_legs(gamma, H.module.arity, 1, lambda m: alg.mult(a, m))
    elif mha.commutative:
        slice_l = slice_r
    else:
        raise ValueError("cannot build a two-sided coaction: instance %s is "
                         "neither unital nor commutative" % mha.name)

    coa = Coaction(H.module, slice_r, slice_l, name=H.name + ":F")
    return YDModule(H.module, coa, name=H.name + ":F")


# -- standard fixtures ---------------------------------------------------------

def trivial_yd(mha):
    mod = trivial_module(mha)
    return YDModule(mod, trivial_coaction(mod), name=mha.name + ":yd-trivial")


def canonical_yd(mha):
    """The canonical nontrivial fixture on every instance: A with the
    adjoint action a_(2) v S^-1(a_(1)), read from slices, and Gamma = Delta
    (on a commutative instance the adjoint action is the counit action)."""
    mod = adjoint_module(mha)
    return YDModule(mod, coproduct_coaction(mod), name=mod.name + ":yd")


def yd_fixtures(mha):
    """At least three YD modules per registered instance."""
    out = [trivial_yd(mha), canonical_yd(mha)]
    out.append(yd_tensor(out[1], out[0]))
    if mha.cocommutative and not mha.algebra.has_unit:
        # cocommutativity collapses a_(2) (x) a_(3)S^-1(a_(1)) to a (x) 1, so
        # the regular action is compatible with the trivial coaction
        mod = regular_module(mha)
        out.append(YDModule(mod, trivial_coaction(mod), name=mod.name + ":yd"))
    if mha.algebra.has_unit:
        out.append(yd_tensor(out[0], out[1]))
    return out


# -- suite checkers ------------------------------------------------------------

def check_yd_suite(mha, samples=30, seed=0):
    rep = Report("yd", mha, seed, samples)
    for V in yd_fixtures(mha):
        rep.merge(check_yd(V, samples=samples, seed=seed), V.name)
    return rep


def check_half_braiding(H, reg, samples=30, seed=0):
    """The defining laws of a centre object, at the regular component: the
    regular module reg (check_equivalence passes the one its braidings
    read)."""
    mha = H.mha
    alg = mha.algebra
    rep = Report("centre-equivalence", H, seed, samples)

    # right-module map in the first slot
    rep.law("half-braiding-module-map", "C(ba (x) v) = C(b (x) v)(1 (x) a)",
            equal(lambda a, b, v: H.cA(alg.mult(b, a), v),
                  lambda a, b, v: apply_legs(H.cA(b, v), H.module.arity, 1,
                                             lambda m: alg.mult(m, a))),
            rep.draws(alg, alg, (H.module, 3)))

    # left A-linearity: a.C(x (x) v) = C(a.(x (x) v)), diagonal actions on
    # both sides realized with local-unit splits of a
    def rhs(a, x, v):
        def term(p, q):
            return H.cA(alg.mult(alg.el(p), x), H.module.act(alg.el(q), v))
        return mha.delta_r(a, H.module.local_unit([v], [x])).map_legs(term)
    rep.law("half-braiding-linear", "a.C(x (x) v) = C(a.(x (x) v))",
            equal(lambda a, x, v: act_on_slice(H.module, a, H.cA(x, v)), rhs),
            rep.draws(alg, alg, (H.module, 3)))

    # tensor decomposition at X = Y = A:
    # C_{A (x) A, V} = (C_{A,V} (x) i)(i (x) C_{A,V})
    aa = tensor_module(reg, reg)

    def rhs(x, y, v):
        inner = H.component(reg, tensor(y, v))  # v0 (x) m.y
        return apply_legs(inner, 0, H.module.arity,
                          lambda v0: H.component(reg, tensor(x, v0)))
    rep.law("half-braiding-tensor", "C_{X(x)Y,V} = (C_{X,V}(x)i)(i(x)C_{Y,V}) at X=Y=A",
            equal(lambda x, y, v: H.component(aa, tensor(tensor(x, y), v)), rhs),
            rep.draws(alg, alg, (H.module, 3)))
    # no later law reads the component at A (x) A, so its table goes now
    H._braidings.pop(("c", aa, ID), None)

    # derived-component consistency at X = A
    rep.law("half-braiding-derived", "C_X from local units agrees with cA at X=A",
            equal(lambda x, v: H.component(reg, tensor(x, v)), H.cA),
            rep.draws(alg, (H.module, 3)))
    return rep


def check_equivalence(mha, samples=30, seed=0):
    """Round trips of the two functors, the braided-category laws, and
    morphism transport, on the registered fixtures."""
    rep = Report("centre-equivalence", mha, seed, samples)
    alg = mha.algebra
    reg = regular_module(mha)
    fixtures = yd_fixtures(mha)

    for V in fixtures:
        mod = V.module
        H = functor_g(V)
        back = functor_f(H)

        # F(G(V)) = V: same module by construction, slices compared
        # extensionally
        rep.law("fg-identity[%s]" % V.name, "F(G(V)) = V extensionally", equal(
            lambda v, a: back.coaction.slice_r(v, a), V.coaction.slice_r,
            lambda v, a: back.coaction.slice_l(v, a), V.coaction.slice_l),
            rep.draws((mod, 3), alg))

        # G(F(H)) = H on the regular component
        H2 = functor_g(back)
        rep.law("gf-identity[%s]" % V.name, "G(F(H)) = H extensionally",
                equal(lambda v, a: H2.cA(a, v), lambda v, a: H.cA(a, v)),
                rep.draws((mod, 3), alg))

        # braiding round trips; v (x) x is drawn only once x (x) v round-trips
        more = rep.draws((mod, 3), alg)

        def check(x, v):
            xv = tensor(x, v)
            if braiding_c_inv(reg, V, braiding_c(reg, V, xv)) != xv:
                return "x(x)v=%r" % xv
            vx = tensor(*next(more))
            if braiding_c(reg, V, braiding_c_inv(reg, V, vx)) != vx:
                return "v(x)x=%r" % vx
        rep.law("braiding-invertible[%s]" % V.name,
                "C and C^-1 round-trip on X = A", check,
                rep.draws(alg, (mod, 3)))

        # naturality in X under the right-multiplication module map
        rep.law("braiding-natural[%s]" % V.name,
                "(i (x) .b) C_{A,V} = C_{A,V}(.b (x) i)", equal(
                    lambda x, b, v: braiding_c(reg, V, tensor(alg.mult(x, b), v)),
                    lambda x, b, v: apply_legs(braiding_c(reg, V, tensor(x, v)),
                                               mod.arity, 1,
                                               lambda m: alg.mult(m, b))),
                rep.draws(alg, alg, (mod, 3)))

        rep.merge(check_half_braiding(H, reg, samples, seed), V.name)

    # second hexagon half: C_{X, V(x)W} = (i (x) C_{X,W})(C_{X,V} (x) i)
    V, W = fixtures[0], fixtures[1]
    VW = yd_tensor(V, W)

    def rhs(x, v, w):
        mid = braiding_c(reg, V, tensor(x, v))  # v0 (x) v1.x
        return apply_legs(mid, V.module.arity, 1,
                          lambda m: braiding_c(reg, W, tensor(m, w)))
    rep.law("braiding-hexagon",
            "C_{X,V(x)W} = (i (x) C_{X,W})(C_{X,V} (x) i) at X=A",
            equal(lambda x, v, w: braiding_c(reg, VW, tensor(tensor(x, v), w)), rhs),
            rep.draws(alg, (V.module, 3), (W.module, 3)))

    # morphism transport for a scalar YD morphism
    V = fixtures[1]
    two = mha.field.from_int(2)
    rep.law("morphism-transport", "(f (x) i)C_{X,V} = C_{X,V}(i (x) f) for scalar f",
            equal(lambda x, v: braiding_c(reg, V, tensor(x, v.scaled(two))),
                  lambda x, v: braiding_c(reg, V, tensor(x, v)).scaled(two)),
            rep.draws(alg, (V.module, 3)))
    return rep
