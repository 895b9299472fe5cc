"""Twisted (alpha, beta)-Yetter-Drinfel'd modules and the braided T-category
they form: the twisted automorphism group, twisted tensor products, the
crossing functor, and the pair-graded braiding.

The compatibility law at a pair (alpha, beta), in Sweedler legs:

    (a.v)_(0) (x) (a.v)_(1) a'
        = a_(2).v_(0) (x) beta(a_(3)) v_(1) alpha(S^-1(a_(1))) a'

evaluated by yd.compat_rhs.  The identity pair is not a special case: an
(alpha, beta)-YD module is a yd.YDModule carrying its pair, its tensor
product is yd.yd_tensor, a twisted action is a modules.twisted_module,
and the braiding, its inverse and the adjoint action are yd.braiding_c,
yd.braiding_c_inv and modules.adjoint_module at the pair's twists.  At
the identity pair (ID, ID) they are the untwisted ones and read the
untwisted tables.  Only the right coaction slice is required, except by
the braiding inverse.  The fixtures are the trivial module at a diagonal
pair and the twisted adjoint at any pair on any instance, unital or not:
its action and local unit rule are both read from slices of Delta.
"""

import itertools
import random

from .linear import tensor, apply_legs
from .mha import draws
from .modules import (Coaction, trivial_module, trivial_coaction,
                      adjoint_module, coproduct_coaction, twisted_module)
from .yd import (YDModule, compat_rhs, yd_tensor, braiding_c,
                 braiding_c_inv)
from .fields import parse_scalar
from .instances import (AutoPair, IDENTITY_PAIR, identity_pair,
                        inner_automorphism, h4_scaling_automorphism)
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

def trivial_gyd(mha, pair=IDENTITY_PAIR):
    """The base field at a diagonal pair (sigma, sigma), the identity pair
    (i,i) by default: the counit action absorbs the twist because
    beta(a_(2)) alpha(S^-1(a_(1))) collapses to eps(a) when alpha = beta."""
    mod = trivial_module(mha)
    return YDModule(mod, trivial_coaction(mod), pair,
                    name=mha.name + ":gyd-trivial@" + pair.name)


def twisted_adjoint_gyd(mha, pair):
    """A acting on itself by a.v = beta(a_(2)) v alpha(S^-1(a_(1))) with
    Gamma = Delta, at the pair (alpha, beta), on every instance: both the
    action and its local unit rule are read from slices
    (modules.adjoint_module).  On a commutative instance at a diagonal
    pair this is the counit action."""
    mod = adjoint_module(mha, pair.alpha, pair.beta,
                         name=mha.name + ":tw-adjoint@" + pair.name)
    return YDModule(mod, coproduct_coaction(mod), pair, name=mod.name)


# -- the crossing functor -------------------------------------------------------

def crossed_functor(p, W):
    """phi_p(W) for p = (alpha, beta) and W at (gamma, delta): W's module
    twisted by theta = gamma^-1 beta gamma alpha^-1 (modules.twisted_module)
    and the coaction w_(0) (x) alpha beta^-1(w_(1)) a', landing at
    p # (gamma, delta) # p^-1.  The functor is the identity on morphisms."""
    mha = W.mha
    alg = mha.algebra
    alpha, beta = p.alpha, p.beta
    gamma = W.pair.alpha
    theta = (gamma.inverted().composed(beta).composed(gamma)
             .composed(alpha.inverted()))
    coat = alpha.composed(beta.inverted())  # applied to the coaction A-leg
    Wm = W.module
    name = "%s>%s" % (p.name, W.name)
    mod = twisted_module(Wm, theta, name)

    def slice_r(wsym, asym):
        # Gamma(w)(1 (x) a') = w0 (x) coat(w1) a': slice against
        # coat^-1(e) for e a left local unit of a', then retwist
        ap = alg.el(asym)
        e = alg.local_unit([ap])
        x = W.coaction.slice_r(Wm.el(wsym), coat.inverse(e))
        return apply_legs(x, Wm.arity, 1, lambda m: alg.mult(coat(m), ap))

    coa = Coaction(mod, slice_r, name=name + ":coact")
    target = p.product(W.pair).product(p.inverse())
    return YDModule(mod, coa, target, name=name)


# -- the graded braiding ---------------------------------------------------------

def gyd_braiding(V, W, vw):
    """C_{V,W}(v (x) w) = w_(0) (x) beta^-1(w_(1)).v into phi_V(W) (x) V,
    with beta from V's pair: yd's braiding splice at that beta."""
    return braiding_c(V.module, W, vw, V.pair.beta)


def gyd_braiding_inv(V, W, wv):
    """C^-1(w (x) v) = beta^-1(S(w_(1))).v (x) w_(0), with beta from V's
    pair: yd's braiding inverse at that beta, which reads W's left slice."""
    return braiding_c_inv(V.module, W, wv, V.pair.beta)


# -- the T-category suite ---------------------------------------------------------

def gyd_fixtures_at(mha, pair):
    """Fixtures living exactly at the given pair: the trivial module when
    the pair is diagonal, then the twisted adjoint."""
    rng = random.Random(1)
    probes = [x for x, in draws(rng, 8, mha.algebra)]
    out = []
    if all(pair.alpha(x) == pair.beta(x) for x in probes):
        out.append(trivial_gyd(mha, pair))
    return out + [twisted_adjoint_gyd(mha, pair)]


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
        if not (p.product(p.inverse()).agrees_with(idp, probes)
                and p.inverse().product(p).agrees_with(idp, probes)
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
    rep.law("crossed-monoidal",
            "phi_p(V (x) W) = phi_p(V) (x) phi_p(W) on samples",
            agree(crossed_functor(p, yd_tensor(V, W)),
                  yd_tensor(crossed_functor(p, V), crossed_functor(p, W))),
            ((a, tensor(v, w)) for a, v, w in rep.draws(
                alg, (V.module, 3), (W.module, 3))))

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
