"""Twisted (alpha, beta)-Yetter-Drinfel'd modules and the braided T-category
they form: the twisted automorphism group, twisted tensor products, the
crossing functor, and the pair-graded braiding.

The compatibility law at a pair (alpha, beta), in Sweedler legs:

    (a.v)_(0) (x) (a.v)_(1) a'
        = a_(2).v_(0) (x) beta(a_(3)) v_(1) alpha(S^-1(a_(1))) a'

evaluated by yd.compat_rhs.  The identity pair is not a special case: an
(alpha, beta)-YD module is a yd.YDModule carrying its pair, its tensor
product is yd.yd_tensor, and the twisted braiding and adjoint action are
yd.braiding_c and modules.adjoint_module called with the pair's twists.
The identity pair is (ID, ID), with the one identity instances.ID, so at
it those functions are the untwisted ones and read the untwisted action
and product tables.  Only the right coaction slice is required of these
modules.
"""

import itertools
import random

from .linear import tensor, apply_legs
from .mha import draws
from .modules import (UnitalModule, Coaction, trivial_module,
                      trivial_coaction, counit_module, adjoint_module,
                      coproduct_coaction)
from .yd import (YDModule, compat_rhs, split_sym, yd_tensor, braiding_c,
                 _twisted_act)
from .fields import parse_scalar
from .instances import (ID, AutoPair, identity_pair, group_Z,
                        group_map_automorphism, inner_automorphism,
                        h4_scaling_automorphism)
from .report import Report, equal


def parse_pair(mha, spec):
    """identity | inner:<i>,<j> | scale:<a>,<b> with i, j basis indices and
    a, b scale factors written p, p/q or as decimals."""
    if spec == "identity":
        return None
    kind, _, rest = spec.partition(":")
    parts = rest.split(",")
    if kind == "inner" and len(parts) == 2:
        basis = mha.algebra.basis
        if basis is None:
            raise ValueError("inner pairs need a finite basis")
        i, j = (_index(x) for x in parts)
        if not (0 <= i < len(basis) and 0 <= j < len(basis)):
            raise ValueError("inner pair indices must lie in 0..%d"
                             % (len(basis) - 1))
        return AutoPair(inner_automorphism(mha, basis[i]),
                        inner_automorphism(mha, basis[j]))
    if kind == "scale" and len(parts) == 2:
        return AutoPair(
            h4_scaling_automorphism(mha, parse_scalar(mha.field, parts[0])),
            h4_scaling_automorphism(mha, parse_scalar(mha.field, parts[1])))
    raise ValueError("bad pair spec %r (identity | inner:<i>,<j> | "
                     "scale:<a>,<b>)" % spec)


def _index(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("inner pair indices must be whole numbers, not %r"
                         % text) from None


def check_gyd(gyd, samples=40, seed=0):
    """The twisted compatibility law on seeded samples."""
    mha = gyd.mha
    rep = Report("gyd", gyd, seed, samples)
    mod, coa = gyd.module, gyd.coaction

    rep.law("gyd-compat",
            "(a.v)_(0) (x) (a.v)_(1)a' = "
            "a_(2).v_(0) (x) beta(a_(3))v_(1)alpha(S^-1(a_(1)))a'",
            equal(lambda a, ap, v: coa.slice_r(mod.act(a, v), ap),
                  lambda a, ap, v: compat_rhs(mod, coa, a, ap, v,
                                              alpha=gyd.pair.alpha,
                                              beta=gyd.pair.beta)),
            rep.draws(mha.algebra, mha.algebra, (mod, 3)))
    return rep


# -- fixtures ------------------------------------------------------------------

def _diagonal(mha, sigma):
    """The pair (sigma, sigma), named after sigma, so (id,id) at ID; with no
    sigma given, the identity pair, named (i,i).  Law ids carry both
    names, so None here picks a name, not a twist."""
    return identity_pair(mha) if sigma is None else AutoPair(sigma, sigma)


def trivial_gyd(mha, sigma=None):
    """The base field at a diagonal pair (sigma, sigma): the counit action
    absorbs the twist because beta(a_(2)) alpha(S^-1(a_(1))) collapses to
    eps(a) when alpha = beta."""
    pair = _diagonal(mha, sigma)
    mod = trivial_module(mha)
    return YDModule(mod, trivial_coaction(mod), pair,
                    name=mha.name + ":gyd-trivial@" + pair.name)


def counit_gyd(mha, sigma=None):
    """A with the counit action and Gamma = Delta at a diagonal pair, on
    commutative instances."""
    if not mha.commutative:
        raise ValueError("the counit fixture needs a commutative instance")
    pair = _diagonal(mha, sigma)
    mod = counit_module(mha)
    return YDModule(mod, coproduct_coaction(mod), pair,
                    name=mod.name + ":gyd@" + pair.name)


def twisted_adjoint_gyd(mha, pair):
    """A acting on itself by a.v = beta(a_(2)) v alpha(S^-1(a_(1))) with
    Gamma = Delta, at the pair (alpha, beta); needs the materialized
    coproduct."""
    if not mha.materializes_coproduct:
        raise ValueError("the twisted adjoint fixture needs a materialized "
                         "coproduct on %s" % mha.name)
    mod = adjoint_module(mha, pair.alpha, pair.beta,
                         name=mha.name + ":tw-adjoint@" + pair.name)
    return YDModule(mod, coproduct_coaction(mod), pair, name=mod.name)


def stretch_gyd(mha):
    """On the delta-function instance over the integers: the action
    a.delta_m = a(2m) delta_m with Gamma = Delta sits at the pair
    (negation, identity) -- a twisted fixture on a non-unital instance."""
    if mha.name != "fun-Z":
        raise ValueError("the stretch fixture is specific to fun-Z")
    alg = mha.algebra
    neg = group_map_automorphism(mha, group_Z(), lambda n: -n, lambda n: -n,
                                 name="neg")
    pair = AutoPair(neg, ID)

    def act(a, v):
        return alg.el(v, alg.el(a).coeff(2 * v))

    def lu(velems, aelems):
        doubled = [alg.el(2 * s) for x in velems for s in x.terms]
        return alg.local_unit(doubled + list(aelems))

    mod = UnitalModule(mha, act, alg.space, local_unit=lu,
                       name=mha.name + ":stretch")
    delta_r = mha.delta_r_basis
    coa = Coaction(mod, lambda v, a: delta_r[v, a],
                   name=mod.name + ":delta")
    return YDModule(mod, coa, pair, name=mod.name)


# -- the crossing functor -------------------------------------------------------

def crossed_functor(p, W):
    """phi_p(W) for p = (alpha, beta) and W at (gamma, delta): same carrier,
    action a -> gamma^-1 beta gamma alpha^-1(a). and coaction
    w_(0) (x) alpha beta^-1(w_(1)) a', landing at p # (gamma, delta) # p^-1.
    The functor is the identity on morphisms."""
    mha = W.mha
    alg = mha.algebra
    alpha, beta = p.alpha, p.beta
    gamma = W.pair.alpha
    theta = (gamma.inverted().composed(beta).composed(gamma)
             .composed(alpha.inverted()))
    coat = alpha.composed(beta.inverted())  # applied to the coaction A-leg
    Wm = W.module

    def act(asym, wsym):
        return _twisted_act(Wm, theta, asym, wsym)

    def lu(velems, aelems):
        # theta(e).w = w and theta(e)theta(a) = theta(a)
        return theta.inverse(Wm.local_unit(velems, [theta(a) for a in aelems]))

    mod = UnitalModule(mha, act, Wm.space, local_unit=lu, arity=Wm.arity,
                       name="%s>%s" % (p.name, W.name))

    def slice_r(wsym, asym):
        # Gamma(w)(1 (x) a') = w0 (x) coat(w1) a': slice against
        # coat^-1(e) for e a left local unit of a', then retwist
        ap = alg.el(asym)
        e = alg.local_unit([ap])
        x = W.coaction.slice_r(Wm.el(wsym), coat.inverse(e))
        return apply_legs(x, Wm.arity, 1, lambda m: alg.mult(coat(m), ap))

    coa = Coaction(mod, slice_r, name=mod.name + ":coact")
    target = p.product(W.pair).product(p.inverse())
    return YDModule(mod, coa, target, name=mod.name)


# -- the graded braiding ---------------------------------------------------------

def gyd_braiding(V, W, vw):
    """C_{V,W}(v (x) w) = w_(0) (x) beta^-1(w_(1)).v into phi_V(W) (x) V,
    with beta from V's pair: yd's braiding splice at that beta."""
    return braiding_c(V.module, W, vw, V.pair.beta)


def gyd_braiding_inv(V, W, wv):
    """C^-1(w (x) v) = beta^-1(S(w_(1))).v (x) w_(0), solved with S and beta
    and certified by stabilization within 4 rounds: the acting leg is
    produced against S^-1(beta(e)) where e is a module local unit fixing
    both v and the previous round's output legs."""
    mha = V.mha
    alg = mha.algebra
    beta = V.pair.beta
    Vm, Wm = V.module, W.module

    def attempt(extra):
        def term(ws, vs):
            v = Vm.el(vs)
            e = Vm.local_unit([v] + extra)

            def leg(w0, m):
                return tensor(Vm.act(beta.inverse(mha.antipode(alg.el(m))), v),
                              Wm.el(w0))
            gamma = W.coaction.slice_r(Wm.el(ws), mha.antipode_inv(beta(e)))
            return gamma.map_legs(leg, at=Wm.arity)
        return wv.map_legs(term, at=Wm.arity)

    prev = attempt([])
    for _ in range(4):
        extra = [Vm.el(split_sym(s, Vm.arity)[0]) for s in prev.terms]
        cur = attempt(extra)
        if cur == prev:
            return cur
        prev = cur
    raise ValueError("braiding inverse did not stabilize on %s (x) %s"
                     % (W.name, V.name))


# -- the T-category suite ---------------------------------------------------------

def gyd_fixtures_at(mha, pair):
    """Fixtures living exactly at the given pair."""
    out = []
    rng = random.Random(1)
    probes = [x for x, in draws(rng, 8, mha.algebra)]
    diagonal = all(pair.alpha(x) == pair.beta(x) for x in probes)
    if diagonal:
        out.append(trivial_gyd(mha, pair.alpha))
        if mha.commutative:
            out.append(counit_gyd(mha, pair.alpha))
    if mha.materializes_coproduct:
        out.append(twisted_adjoint_gyd(mha, pair))
    if not out:
        raise ValueError("no fixture available at pair %s on %s"
                         % (pair.name, mha.name))
    return out


def check_t_category(mha, pairs, samples=30, seed=0):
    """The graded-category laws over the given automorphism pairs: the
    twisted group structure, compatibility of every constructed object at
    its declared pair, functoriality and monoidality of the crossing, and
    A-linearity, invertibility, naturality and crossing-compatibility of
    the braiding."""
    rep = Report("t-category", mha, seed, samples)
    alg = mha.algebra
    probes = [x for x, in rep.draws(alg, n=12)]
    pairs = list(pairs)
    idp = identity_pair(mha)

    # group laws of the twisted square
    def check(p, q, r):
        lhs, rhs = p.product(q).product(r), p.product(q.product(r))
        if not lhs.agrees_with(rhs, probes):
            return "pairs %s,%s,%s" % (p.name, q.name, r.name)
    rep.law("pair-assoc", "(p#q)#r = p#(q#r)", check,
            itertools.product(pairs, repeat=3))

    def check(p):
        if not (p.product(p.inverse()).is_identity_on(probes)
                and p.inverse().product(p).is_identity_on(probes)
                and idp.product(p).agrees_with(p, probes)
                and p.product(idp).agrees_with(p, probes)):
            return "pair %s" % p.name
    rep.law("pair-inverse-unit", "p#p^-1 = p^-1#p = (i,i); (i,i) is a unit",
            check, zip(pairs))

    fixtures = []
    for p in pairs:
        fixtures.extend(gyd_fixtures_at(mha, p))

    for V in fixtures:
        rep.merge(check_gyd(V, samples=samples, seed=seed), V.name)

    # tensor lands at the product pair
    for i, V in enumerate(fixtures):
        W = fixtures[(i + 1) % len(fixtures)]
        sub = check_gyd(yd_tensor(V, W), samples=max(4, samples // 3), seed=seed)
        rep.add("tensor-pair[%s,%s]" % (V.name, W.name),
                "V (x) W passes at the product pair",
                next((r.witness for r in sub.failures()), None))

    # crossing lands at the conjugated pair; identity pair is inert
    for p in pairs:
        for W in fixtures[:3]:
            C = crossed_functor(p, W)
            sub = check_gyd(C, samples=max(4, samples // 3), seed=seed)
            rep.add("crossed-pair[%s>%s]" % (p.name, W.name),
                    "phi_p(W) passes at p # pair(W) # p^-1",
                    next((r.witness for r in sub.failures()), None))

    W0 = fixtures[-1]
    C0 = crossed_functor(idp, W0)

    def agree(X, Y):
        return equal(lambda a, w: X.module.act(a, w),
                     lambda a, w: Y.module.act(a, w),
                     lambda a, w: X.coaction.slice_r(w, a),
                     lambda a, w: Y.coaction.slice_r(w, a))
    rep.law("crossed-identity", "phi_(i,i) leaves objects unchanged",
            agree(C0, W0), rep.draws(alg, (W0.module, 3)))

    # functoriality on sampled elements
    if len(pairs) >= 2:
        p, q = pairs[0], pairs[1]
        lhs = crossed_functor(p, crossed_functor(q, W0))
        rhs = crossed_functor(p.product(q), W0)
        rep.law("crossed-functorial", "phi_p o phi_q = phi_(p#q) on samples",
                agree(lhs, rhs), rep.draws(alg, (W0.module, 3)))

    # monoidality of the crossing on one sampled pair of objects, at
    # w = v (x) w'
    V, W = fixtures[0], fixtures[-1]
    p = pairs[-1]
    try:
        rep.law("crossed-monoidal",
                "phi_p(V (x) W) = phi_p(V) (x) phi_p(W) on samples",
                agree(crossed_functor(p, yd_tensor(V, W)),
                      yd_tensor(crossed_functor(p, V), crossed_functor(p, W))),
                ((a, tensor(v, w)) for a, v, w in rep.draws(
                    alg, (V.module, 3), (W.module, 3))))
    except ValueError as exc:
        rep.add("crossed-monoidal",
                "phi_p(V (x) W) = phi_p(V) (x) phi_p(W) on samples", str(exc))

    # braiding: A-linearity, round trips, naturality, crossing compatibility,
    # each at t = v (x) w
    two = mha.field.from_int(2)
    for i, V in enumerate(fixtures):
        W = fixtures[(i + 1) % len(fixtures)]
        name = "%s,%s" % (V.name, W.name)
        src = yd_tensor(V, W)
        tgt = yd_tensor(crossed_functor(V.pair, W), V)
        rep.law_group([
            ("braiding-linear[%s]" % name, "C(a.(v (x) w)) = a.C(v (x) w)", equal(
                lambda a, v, w, t: gyd_braiding(V, W, src.module.act(a, t)),
                lambda a, v, w, t: tgt.module.act(a, gyd_braiding(V, W, t)))),
            ("braiding-invertible[%s]" % name,
             "C^-1 o C = id, inverse solved with S and beta", equal(
                 lambda a, v, w, t: gyd_braiding_inv(V, W, gyd_braiding(V, W, t)),
                 lambda a, v, w, t: t)),
            # naturality under the scalar morphism w -> 2w on W
            ("braiding-natural[%s]" % name,
             "C transports the scalar morphism on W", equal(
                 lambda a, v, w, t: gyd_braiding(V, W, tensor(v, w.scaled(two))),
                 lambda a, v, w, t: gyd_braiding(V, W, t).scaled(two)))],
            ((a, v, w, tensor(v, w)) for a, v, w in rep.draws(
                alg, (V.module, 3), (W.module, 3))))

    # crossing the braiding: phi_p(C_{V,W}) = C_{phi_p V, phi_p W}
    V, W = fixtures[0], fixtures[-1]
    p = pairs[0]
    pV, pW = crossed_functor(p, V), crossed_functor(p, W)
    rep.law("braiding-crossing",
            "the braiding commutes with the crossing on samples",
            equal(lambda t: gyd_braiding(V, W, t),
                  lambda t: gyd_braiding(pV, pW, t)),
            ((tensor(v, w),) for v, w in rep.draws((V.module, 3), (W.module, 3))))
    return rep


def check_gyd_suite(mha, samples=40, seed=0):
    """check_gyd at the identity pair and at every pair the instance offers."""
    rep = Report("gyd", mha, seed, samples)
    pairs = [identity_pair(mha)] + [parse_pair(mha, spec)
                                    for spec in mha.pair_specs]
    for i, pair in enumerate(pairs):
        for fx in gyd_fixtures_at(mha, pair):
            rep.merge(check_gyd(fx, samples, seed), "%s@%d" % (fx.name, i))
    return rep
