"""Twisted Yetter-Drinfel'd modules, the twisted automorphism-pair group,
and the pair-graded (T-category) structure."""

import random
from fractions import Fraction

import pytest

from ydcheck.fields import QQ, PrimeField
from ydcheck.linear import Element, Ten, tensor, split_sym
from ydcheck.instances import (build_instance, group_S3,
                               group_map_automorphism, inner_automorphism,
                               h4_scaling_automorphism, ID,
                               IDENTITY_PAIR)
from ydcheck.mha import random_element
from ydcheck.modules import (adjoint_module, regular_module, counit_module,
                             Coaction, UnitalModule, twisted_module,
                             coproduct_coaction)
from ydcheck.yd import (YDModule, canonical_yd, yd_tensor, yd_fixtures,
                        tensor_module, tensor_coaction, braiding_c,
                        braiding_c_inv)
from ydcheck.gyd import (AutoPair, identity_pair, parse_pair, check_gyd,
                         trivial_gyd, twisted_adjoint_gyd, gyd_fixtures_at,
                         crossed_functor, gyd_braiding, gyd_braiding_inv,
                         check_t_category)


def s3_pairs(mha):
    g3 = group_S3()
    g, h = (1, 0, 2), (1, 2, 0)
    return [AutoPair(inner_automorphism(mha, g), inner_automorphism(mha, h)),
            AutoPair(inner_automorphism(mha, h), inner_automorphism(mha, g))]


def h4_pairs(mha):
    s2 = h4_scaling_automorphism(mha, Fraction(2))
    s3 = h4_scaling_automorphism(mha, Fraction(3))
    return [AutoPair(s2, s3), AutoPair(s3, s2)]


def neg(mha):
    """Negation on fun-Z (n -> -n) and on fun-Dinf ((n, e) -> (-n, e)),
    lifted to the function algebra."""
    if mha.name == "fun-Z":
        return group_map_automorphism(mha, lambda n: -n, lambda n: -n,
                                      name="neg")
    flip = lambda s: (-s[0], s[1])
    return group_map_automorphism(mha, flip, flip, name="neg")


def counit_gyd(mha, pair):
    """The twisted adjoint at a diagonal pair: on a commutative instance it
    acts through the counit."""
    return twisted_adjoint_gyd(mha, pair)


def local_unit_failures(mod, n, seed):
    """How many of n draws (v, a) break e.v = v or ea = ae = a for the
    module's local unit e = local_unit([v], [a])."""
    alg = mod.mha.algebra
    rng = random.Random(seed)
    bad = 0
    for _ in range(n):
        v = random_element(rng, mod, 3)
        a = random_element(rng, alg)
        e = mod.local_unit([v], [a])
        if not (mod.act(e, v) == v and alg.mult(e, a) == a == alg.mult(a, e)):
            bad += 1
    return bad


def test_pair_product_matches_inner_composition():
    # (c_g, c_h) # (c_k, c_l) = (c_{gk}, c_{l k^-1 h k}) on a group algebra
    mha = build_instance("grp-S3", QQ)
    g3 = group_S3()
    g, h, k, l = (1, 0, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)
    p = AutoPair(inner_automorphism(mha, g), inner_automorphism(mha, h))
    q = AutoPair(inner_automorphism(mha, k), inner_automorphism(mha, l))
    prod = p.product(q)
    expect = AutoPair(
        inner_automorphism(mha, g3.mul(g, k)),
        inner_automorphism(mha, g3.mul(g3.mul(l, g3.inv(k)), g3.mul(h, k))))
    probes = [mha.el(x) for x in g3.elements]
    assert prod.agrees_with(expect, probes)
    assert p.product(p.inverse()).agrees_with(identity_pair(mha), probes)
    assert identity_pair(mha).product(q).agrees_with(q, probes)


def test_gyd_specializes_to_yd_at_identity_pair():
    for name in ["grp-S3", "sweedler-H4", "fun-Z"]:
        mha = build_instance(name, QQ)
        V = canonical_yd(mha)
        rep = check_gyd(V, samples=20, seed=7)
        assert rep.ok, rep.summary()


def test_twisted_adjoint_fixtures_pass():
    mha = build_instance("grp-S3", QQ)
    for pair in s3_pairs(mha):
        rep = check_gyd(twisted_adjoint_gyd(mha, pair), samples=20, seed=7)
        assert rep.ok, rep.summary()
    h4 = build_instance("sweedler-H4", QQ)
    for pair in h4_pairs(h4):
        rep = check_gyd(twisted_adjoint_gyd(h4, pair), samples=20, seed=7)
        assert rep.ok, rep.summary()


def test_stretch_fixture_on_fun_z():
    # nontrivial pair (negation, identity) on a non-unital instance: there
    # the twisted adjoint stretches, a.delta_m = a(2m) delta_m
    mha = build_instance("fun-Z", QQ)
    V = twisted_adjoint_gyd(mha, AutoPair(neg(mha), ID))
    assert V.pair.alpha(mha.el(1)) != mha.el(1)
    for g in range(-4, 5):
        for m in range(-2, 3):
            expect = mha.el(m) if g == 2 * m else Element(QQ)
            assert V.module.act_basis[g, m] == expect
    rep = check_gyd(V, samples=25, seed=3)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("other", [trivial_gyd, counit_gyd])
def test_stretch_tensors_on_fun_z_pass_at_the_product_pair(other):
    # the twisted local unit rules on a non-unital instance: one tensor
    # factor sits at (i, i) or (neg, neg), the other at (neg, id);
    # e = local_unit([x], [a]) fixes x and a, also on the crossing of the
    # stretch fixture by its own pair
    mha = build_instance("fun-Z", QQ)
    alg = mha.algebra
    V = twisted_adjoint_gyd(mha, AutoPair(neg(mha), ID))
    mods = [crossed_functor(V.pair, V).module]
    for pair in (identity_pair(mha), AutoPair(V.pair.alpha, V.pair.alpha)):
        W = other(mha, pair)
        for T in (yd_tensor(V, W), yd_tensor(W, V)):
            rep = check_gyd(T, samples=15, seed=4)
            assert rep.ok, rep.summary()
            mods.append(T.module)
    rng = random.Random(2)
    for mod in mods:
        for _ in range(6):
            x = random_element(rng, mod, 3)
            a = random_element(rng, mha.algebra)
            e = mod.local_unit([x], [a])
            assert mod.act(e, x) == x, mod.name
            assert alg.mult(e, a) == a == alg.mult(a, e), mod.name


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["rational", "fp5"])
@pytest.mark.parametrize("name", ["fun-Z", "fun-Dinf"])
def test_twisted_adjoint_on_non_unital_instances_at_four_pairs(name, field):
    # the slice-built adjoint at (i,i), (neg,id), (id,neg) and (neg,neg):
    # every fixture passes check_gyd, the T-category laws hold over the
    # four pairs, and the local unit of every fixture, tensor and crossing
    # fixes its vector and its algebra element
    mha = build_instance(name, field)
    n = neg(mha)
    pairs = [identity_pair(mha), AutoPair(n, ID), AutoPair(ID, n),
             AutoPair(n, n)]
    fixtures = [V for p in pairs for V in gyd_fixtures_at(mha, p)]
    assert len(fixtures) == 6
    for V in fixtures:
        rep = check_gyd(V, samples=10, seed=3)
        assert rep.ok, rep.summary()
    rep = check_t_category(mha, pairs, samples=6, seed=3)
    assert rep.ok, rep.summary()
    objects = (fixtures + yd_fixtures(mha)
               + [yd_tensor(V, W) for V in fixtures for W in fixtures]
               + [crossed_functor(p, W) for p in pairs for W in fixtures])
    for X in objects:
        assert local_unit_failures(X.module, 6, seed=5) == 0, X.name


def test_a_naive_local_unit_fails_at_a_twisted_pair():
    # control: the stretch action with the counit-style rule
    # e = local unit of (v's, a's, eps_one) does not fix v at (neg, id)
    mha = build_instance("fun-Z", QQ)
    alg = mha.algebra
    good = twisted_adjoint_gyd(mha, AutoPair(neg(mha), ID)).module
    naive = UnitalModule(
        mha, lambda a, v: good.act_basis[a, v], alg.space,
        local_unit=lambda vs, avs: alg.local_unit(vs + avs + [mha.eps_one]),
        name="naive")
    assert local_unit_failures(good, 50, seed=1) == 0
    assert local_unit_failures(naive, 50, seed=1) > 40


@pytest.mark.parametrize("name", ["fun-Z", "fun-Dinf"])
def test_adjoint_at_the_identity_is_the_counit_action(name):
    mha = build_instance(name, QQ)
    adj, cou = adjoint_module(mha), counit_module(mha)
    rng = random.Random(8)
    for _ in range(50):
        a, v = random_element(rng, mha.algebra), random_element(rng, adj, 3)
        assert adj.act(a, v) == cou.act(a, v)


def test_corrupted_beta_fails_with_witness():
    # build the twisted adjoint for (scale2, scale3) but declare the pair
    # (scale2, identity): the compatibility check must fail and explain
    mha = build_instance("sweedler-H4", QQ)
    s2 = h4_scaling_automorphism(mha, Fraction(2))
    s3 = h4_scaling_automorphism(mha, Fraction(3))
    good = twisted_adjoint_gyd(mha, AutoPair(s2, s3))
    lying = YDModule(good.module, good.coaction, AutoPair(s2, ID),
                     name="lying")
    rep = check_gyd(lying, samples=30, seed=1)
    assert not rep.ok
    assert all(r.witness for r in rep.failures())


def test_gyd_tensor_at_identity_pairs_reduces_to_yd_tensor():
    # yd_tensor at identity pairs is the untwisted diagonal action and
    # tensor coaction, built directly from tensor_module and tensor_coaction
    mha = build_instance("grp-S3", QQ)
    V = canonical_yd(mha)
    yd_t = yd_tensor(V, V)
    mod = tensor_module(V.module, V.module)
    coa = tensor_coaction(mod, V, V)
    g3 = group_S3()
    for g in g3.elements[:3]:
        for h in g3.elements[:3]:
            t = Ten((g, h))
            for a in g3.elements[:3]:
                assert (yd_t.module.act(mha.el(a), yd_t.module.el(t))
                        == mod.act(mha.el(a), mod.el(t)))
                assert (yd_t.coaction.slice_r(yd_t.module.el(t), mha.el(a))
                        == coa.slice_r(mod.el(t), mha.el(a)))


def test_gyd_tensor_lands_at_product_pair():
    mha = build_instance("sweedler-H4", QQ)
    p, q = h4_pairs(mha)
    V = twisted_adjoint_gyd(mha, p)
    W = twisted_adjoint_gyd(mha, q)
    T = yd_tensor(V, W)
    probes = [mha.el(s) for s in mha.algebra.basis]
    assert T.pair.agrees_with(p.product(q), probes)
    rep = check_gyd(T, samples=12, seed=5)
    assert rep.ok, rep.summary()


def test_crossed_functor_alpha_equals_beta_fixes_coaction():
    mha = build_instance("sweedler-H4", QQ)
    s2 = h4_scaling_automorphism(mha, Fraction(2))
    p = AutoPair(s2, s2)
    W = twisted_adjoint_gyd(mha, h4_pairs(mha)[0])
    C = crossed_functor(p, W)
    for b in mha.algebra.basis:
        for a in mha.algebra.basis:
            assert (C.coaction.slice_r(C.module.el(b), mha.el(a))
                    == W.coaction.slice_r(W.module.el(b), mha.el(a)))
    rep = check_gyd(C, samples=15, seed=2)
    assert rep.ok, rep.summary()


def test_braiding_grouplike_oracle_and_round_trip():
    # with trivial pair and the conjugation fixture on a group algebra,
    # C(v (x) w) = w (x) w v w^-1 on grouplikes
    mha = build_instance("grp-S3", QQ)
    V = canonical_yd(mha)
    g3 = group_S3()
    for v in g3.elements:
        for w in g3.elements:
            t = tensor(mha.el(v), mha.el(w))
            got = gyd_braiding(V, V, t)
            conj = g3.mul(g3.mul(w, v), g3.inv(w))
            assert got == Element.basis(QQ, Ten((w, conj)))
            assert gyd_braiding_inv(V, V, got) == t


def test_t_category_s3_inner_pairs():
    mha = build_instance("grp-S3", QQ)
    rep = check_t_category(mha, s3_pairs(mha), samples=10, seed=17)
    assert rep.ok, rep.summary()


def test_t_category_h4_scaling_pairs():
    mha = build_instance("sweedler-H4", QQ)
    rep = check_t_category(mha, h4_pairs(mha), samples=10, seed=17)
    assert rep.ok, rep.summary()


def test_t_category_trivial_pairs_on_commutative():
    mha = build_instance("fun-Z", QQ)
    rep = check_t_category(mha, [identity_pair(mha)], samples=10, seed=17)
    assert rep.ok, rep.summary()


def test_id_is_neutral():
    # composing with ID, inverting ID and multiplying by the identity pair
    # hand back the very objects they started from
    mha = build_instance("grp-S3", QQ)
    aut = inner_automorphism(mha, (1, 0, 2))
    assert aut.composed(ID) is aut
    assert ID.composed(aut) is aut
    assert ID.inverted() is ID
    assert ID.composed(ID) is ID
    x = mha.el((1, 2, 0))
    assert ID(x) is x and ID.inverse(x) is x
    for p in s3_pairs(mha):
        assert identity_pair(mha).product(p).alpha is p.alpha


def test_the_identity_pair_is_one_object():
    # parse_pair's identity and the default pair of a YD module are it
    mha = build_instance("sweedler-H4", QQ)
    assert parse_pair(mha, "identity") is IDENTITY_PAIR
    assert identity_pair(mha) is IDENTITY_PAIR
    m = regular_module(mha)
    c = coproduct_coaction(m)
    assert YDModule(m, c).pair is IDENTITY_PAIR


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4"])
def test_twisted_adjoint_at_the_identity_pair_is_the_adjoint_action(name):
    mha = build_instance(name, QQ)
    tw = twisted_adjoint_gyd(mha, identity_pair(mha)).module
    adj = adjoint_module(mha)
    for a in mha.algebra.basis:
        for v in mha.algebra.basis:
            assert tw.act_basis[a, v] == adj.act_basis[a, v]


def test_gyd_braiding_and_braiding_c_share_one_memo_at_the_identity():
    mha = build_instance("sweedler-H4", QQ)
    V = canonical_yd(mha)
    W = twisted_adjoint_gyd(mha, identity_pair(mha))
    rng = random.Random(3)
    t = tensor(random_element(rng, V.module, 3),
               random_element(rng, W.module, 3))
    first = gyd_braiding(V, W, t)
    assert list(W.coaction._braidings) == [("c", V.module, ID)]
    assert braiding_c(V.module, W, t) == first
    assert list(W.coaction._braidings) == [("c", V.module, ID)]


def test_a_right_slice_only_yd_module():
    # YDModule takes a coaction without a left slice: the twisted law needs
    # only the right one, and the braiding inverse, which reads the left
    # slice, names the coaction that lacks it
    mha = build_instance("fun-Z", QQ)
    mod = counit_module(mha)
    delta_r = mha.delta_r_basis
    V = YDModule(mod, Coaction(mod, lambda v, a: delta_r[v, a],
                               name="right-only"))
    rep = check_gyd(V, samples=15, seed=6)
    assert rep.ok, rep.summary()
    reg = regular_module(mha)
    with pytest.raises(ValueError, match="right-only has no left slice"):
        braiding_c_inv(reg, V, tensor(mod.el(2), mha.el(3)))
    # so does the twisted inverse, which reads the same left slice
    X = twisted_adjoint_gyd(mha, AutoPair(neg(mha), ID))
    with pytest.raises(ValueError, match="right-only has no left slice"):
        gyd_braiding_inv(X, V, tensor(mod.el(2), mha.el(3)))


def twisted_pairs(mha):
    """The inner pairs of grp-S3, the scale pairs of sweedler-H4, and
    (neg, id) on fun-Z."""
    return {"grp-S3": s3_pairs, "sweedler-H4": h4_pairs}.get(
        mha.name, lambda m: [AutoPair(neg(m), ID)])(mha)


def twist_failures(mod, T, aut, seed):
    """How many checks of T as mod twisted by aut fail: a.v = aut(a).v on
    basis pairs (a window of the basis of an infinite carrier) and on
    random elements, and e.v = v and ea = a for e = T.local_unit([v], [a])."""
    mha = mod.mha
    alg = mha.algebra
    basis = alg.basis or range(-3, 4)
    bad = sum(T.act(mha.el(a), T.el(v)) != mod.act(aut(mha.el(a)), mod.el(v))
              for a in basis for v in (mod.basis or range(-3, 4)))
    rng = random.Random(seed)
    for _ in range(30):
        a, v = random_element(rng, alg), random_element(rng, mod, 3)
        e = T.local_unit([v], [a])
        bad += T.act(a, v) != mod.act(aut(a), v)
        bad += T.act(e, v) != v or alg.mult(e, a) != a
    return bad


@pytest.mark.parametrize("name,field", [
    ("grp-S3", QQ), ("grp-S3", PrimeField(5)), ("fun-Z", QQ)],
    ids=["grp-S3-QQ", "grp-S3-fp5", "fun-Z-QQ"])
def test_twisted_module_acts_through_the_twist(name, field):
    # a.v = aut(a).v, with the local unit aut^-1(e) of e for aut's images;
    # controls: the untwisted action, and the twisted action with the
    # untwisted local unit rule, which fixes v only on the non-unital fun-Z
    mha = build_instance(name, field)
    for pair in twisted_pairs(mha):
        for mod in (regular_module(mha), twisted_adjoint_gyd(mha, pair).module):
            assert twisted_module(mod, ID) is mod
            for aut in (pair.alpha, pair.beta):
                if aut is ID:
                    continue
                T = twisted_module(mod, aut)
                assert (T.arity, T.space, T.name) == (mod.arity, mod.space, mod.name)
                assert twist_failures(mod, T, aut, seed=3) == 0
                assert twist_failures(mod, mod, aut, seed=3) > 0
                if mha.algebra.has_unit:
                    continue
                naive = UnitalModule(
                    mha, lambda a, v, T=T: T.act_basis[a, v], mod.space,
                    local_unit=lambda vs, avs, mod=mod: mod.local_unit(vs, avs),
                    name="naive")
                assert twist_failures(mod, naive, aut, seed=3) > 0


def stabilized_braiding_inv(V, W, wv):
    """Reference: the braiding inverse as it was once solved, from W's
    right slice at S^-1(beta(e)) for a module local unit e of v, retried
    against the output legs until two rounds agree (at most 4 retries)."""
    mha, beta = V.mha, V.pair.beta
    Vm, Wm = V.module, W.module

    def attempt(extra):
        def term(ws, vs):
            v = Vm.el(vs)
            e = Vm.local_unit([v] + extra)

            def leg(w0, m):
                return tensor(Vm.act(beta.inverse(mha.antipode(mha.el(m))), v),
                              Wm.el(w0))
            return W.coaction.slice_r(Wm.el(ws), mha.antipode_inv(beta(e))
                                      ).map_legs(leg, at=Wm.arity)
        return wv.map_legs(term, at=Wm.arity)

    prev = attempt([])
    for _ in range(4):
        cur = attempt([Vm.el(split_sym(s, Vm.arity)[0]) for s in prev.terms])
        if cur == prev:
            return cur
        prev = cur
    raise AssertionError("the reference did not stabilize")


def left_slice_inv(V, W, wv, beta, at):
    """A candidate inverse beta^-1(S(w_(1))).v (x) w_(0), reading W's left
    slice at at(e) for a module local unit e of v."""
    mha, Vm, Wm = V.mha, V.module, W.module

    def term(ws, vs):
        v = Vm.el(vs)

        def leg(w0, m):
            return tensor(Vm.act(beta.inverse(mha.antipode(mha.el(m))), v),
                          Wm.el(w0))
        return W.coaction.slice_l(Wm.el(ws), at(Vm.local_unit([v]))
                                  ).map_legs(leg, at=Wm.arity)
    return wv.map_legs(term, at=Wm.arity)


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4", "fun-Z"])
def test_gyd_braiding_inv_round_trips_and_equals_the_stabilized_formula(name):
    # on the fixtures at the instance's twisted pairs and their tensors;
    # controls: the same left-slice formula without beta, caught at the
    # inner and scale pairs, and read at beta(e) instead of S^-1(beta(e)),
    # caught on the non-unital fun-Z (where beta is the identity, and on a
    # unital instance e = 1 = S^-1(beta(1)))
    mha = build_instance(name, QQ)
    fx = [V for p in twisted_pairs(mha) for V in gyd_fixtures_at(mha, p)]
    objects = fx + [yd_tensor(V, W) for V in fx for W in fx]
    caught = {"no beta": 0, "no S^-1": 0}
    rng = random.Random(4)
    for V, W in [(V, W) for V in objects for W in fx] + [
            (V, W) for V in fx for W in objects[len(fx):]]:
        for _ in range(2):
            v = random_element(rng, V.module, 3)
            w = random_element(rng, W.module, 3)
            vw, wv = tensor(v, w), tensor(w, v)
            inv = gyd_braiding_inv(V, W, wv)
            assert gyd_braiding_inv(V, W, gyd_braiding(V, W, vw)) == vw
            assert gyd_braiding(V, W, inv) == wv
            assert inv == stabilized_braiding_inv(V, W, wv)
            beta = V.pair.beta
            caught["no beta"] += left_slice_inv(
                V, W, wv, ID, mha.antipode_inv) != inv
            caught["no S^-1"] += left_slice_inv(V, W, wv, beta, beta) != inv
    assert caught["no beta" if mha.algebra.has_unit else "no S^-1"] > 0
