"""Twisted Yetter-Drinfel'd modules, the twisted automorphism-pair group,
and the pair-graded (T-category) structure."""

import random
from fractions import Fraction

import pytest

from ydcheck.fields import QQ
from ydcheck.linear import Element, Ten, tensor
from ydcheck.instances import (build_instance, group_S3, inner_automorphism,
                               h4_scaling_automorphism, ID)
from ydcheck.mha import random_element
from ydcheck.modules import (adjoint_module, regular_module, counit_module,
                             Coaction)
from ydcheck.yd import (YDModule, canonical_yd, yd_tensor, tensor_module,
                        tensor_coaction, braiding_c, braiding_c_inv)
from ydcheck.gyd import (AutoPair, identity_pair, check_gyd,
                         trivial_gyd, counit_gyd,
                         twisted_adjoint_gyd, stretch_gyd,
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
    assert p.product(p.inverse()).is_identity_on(probes)
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
    # nontrivial pair (negation, identity) on a non-unital instance
    mha = build_instance("fun-Z", QQ)
    V = stretch_gyd(mha)
    assert not V.pair.alpha.is_identity_on([mha.el(1)])
    rep = check_gyd(V, samples=25, seed=3)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("other", [trivial_gyd, counit_gyd])
def test_stretch_tensors_on_fun_z_pass_at_the_product_pair(other):
    # the twisted local unit rules on a non-unital instance: one tensor
    # factor acts through the counit at (id, id) or (neg, neg), the other
    # sits at (neg, id); e = local_unit([x], [a]) fixes x and a, also on
    # the crossing of the stretch fixture by its own pair
    mha = build_instance("fun-Z", QQ)
    alg = mha.algebra
    V = stretch_gyd(mha)
    mods = [crossed_functor(V.pair, V).module]
    for aut in (None, V.pair.alpha):
        W = other(mha, aut)
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
