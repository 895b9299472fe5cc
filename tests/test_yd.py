"""Yetter-Drinfel'd compatibility, tensor structure, braiding, and the
centre-equivalence functors, with grouplike hand-oracles."""

import random
from fractions import Fraction

import pytest

from ydcheck.fields import QQ
from ydcheck.linear import Element, Ten, tensor
from ydcheck.instances import build_instance, CORE_INSTANCES, group_S3
from ydcheck.mha import random_alg_element
from ydcheck.modules import (regular_module, coproduct_coaction, Coaction,
                             adjoint_module, random_mod_element)
from ydcheck.yd import (YDModule, check_yd, check_yd_suite, yd_tensor,
                        yd_fixtures, braiding_c, braiding_c_inv, functor_g,
                        functor_f, check_half_braiding, check_equivalence,
                        canonical_yd, trivial_yd, tensor_module)
from ydcheck.gyd import stretch_gyd


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_yd_suite(name):
    mha = build_instance(name, QQ)
    rep = check_yd_suite(mha, samples=15, seed=11)
    assert rep.ok, rep.summary()


def test_conjugation_grouplike_oracle():
    # on a group algebra the adjoint fixture is conjugation g.h = ghg^-1
    # with the grouplike coaction h -> h (x) h; both sides of the law are
    # ghg^-1 (x) ghg^-1 a' on basis elements
    mha = build_instance("grp-S3", QQ)
    V = canonical_yd(mha)
    g3 = group_S3()
    for g in g3.elements:
        for h in g3.elements:
            conj = g3.mul(g3.mul(g, h), g3.inv(g))
            assert V.module.act(mha.el(g), V.module.el(h)) == mha.el(conj)
            for ap in [(1, 0, 2), (1, 2, 0)]:
                lhs = V.coaction.slice_r(V.module.act(mha.el(g), V.module.el(h)),
                                         mha.el(ap))
                assert lhs == Element.basis(QQ, Ten((conj, g3.mul(conj, ap))))


def test_left_regular_action_is_not_yd():
    # left regular action + grouplike coaction violates the compatibility
    mha = build_instance("grp-S3", QQ)
    mod = regular_module(mha)
    V = YDModule(mod, coproduct_coaction(mod), name="bad")
    rep = check_yd(V, samples=40, seed=2)
    assert not rep.ok
    assert any(r.witness for r in rep.failures())


def test_yd_tensor_passes_and_grouplike_coaction_order():
    mha = build_instance("grp-S3", QQ)
    V = canonical_yd(mha)
    VW = yd_tensor(V, V)
    rep = check_yd(VW, samples=10, seed=4)
    assert rep.ok, rep.summary()
    # coaction second leg is w1 v1 a': for grouplikes g (x) h -> (g,h) (x) hg a'
    g3 = group_S3()
    g, h, ap = (1, 0, 2), (1, 2, 0), (0, 2, 1)
    got = VW.coaction.slice_r(VW.module.el(Ten((g, h))), mha.el(ap))
    expect = Element.basis(QQ, Ten((g, h, g3.mul(g3.mul(h, g), ap))))
    assert got == expect


@pytest.mark.parametrize("name", ["fun-Z", "fun-Dinf"])
def test_diagonal_local_unit_fixes_the_vector_and_the_algebra(name):
    # e = local_unit([x], [a]) on a tensor module of a non-unital instance:
    # e.x = x and ea = ae = a, for every pair of factors (tensors of
    # tensors included) and, on fun-Z, the twisted stretch module
    mha = build_instance(name, QQ)
    alg = mha.algebra
    reg = regular_module(mha)
    factors = [V.module for V in yd_fixtures(mha)] + [reg]
    pairs = [tensor_module(V, W) for V in factors for W in factors]
    mods = pairs + [tensor_module(T, reg) for T in pairs]
    if name == "fun-Z":
        stretch = stretch_gyd(mha).module
        mods += [tensor_module(stretch, reg), tensor_module(reg, stretch)]
    rng = random.Random(5)
    for mod in mods:
        for _ in range(6):
            x = random_mod_element(rng, mod)
            a = random_alg_element(rng, mha)
            e = mod.local_unit([x], [a])
            assert mod.act(e, x) == x, mod.name
            assert alg.mult(e, a) == a == alg.mult(a, e), mod.name


def test_braiding_grouplike_oracle():
    # C(x (x) h) = h (x) hx on the conjugation/grouplike fixture
    mha = build_instance("grp-S3", QQ)
    V = canonical_yd(mha)
    reg = regular_module(mha)
    g3 = group_S3()
    for x in g3.elements:
        for h in g3.elements:
            got = braiding_c(reg, V, tensor(mha.el(x), V.module.el(h)))
            assert got == Element.basis(QQ, Ten((h, g3.mul(h, x))))


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_braiding_round_trips(name):
    import random
    from ydcheck.mha import random_alg_element
    from ydcheck.modules import random_mod_element
    mha = build_instance(name, QQ)
    reg = regular_module(mha)
    rng = random.Random(9)
    for V in yd_fixtures(mha):
        for _ in range(10):
            xv = tensor(random_alg_element(rng, mha),
                        random_mod_element(rng, V.module))
            assert braiding_c_inv(reg, V, braiding_c(reg, V, xv)) == xv


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_centre_equivalence_suite(name):
    mha = build_instance(name, QQ)
    rep = check_equivalence(mha, samples=8, seed=13)
    assert rep.ok, rep.summary()


def test_functor_f_rejects_outside_hypothesis():
    # non-unital, non-commutative instance with an infinite-dimensional
    # carrier: the dual of nothing qualifies, so fake one via fun-Dinf with
    # commutativity masked
    mha = build_instance("fun-Dinf", QQ)
    V = canonical_yd(mha)
    H = functor_g(V)
    mha.commutative = False  # simulate an instance outside all classes
    try:
        with pytest.raises(ValueError):
            functor_f(H)
    finally:
        mha.commutative = True


def test_functor_f_unital_matches_materialized_gamma():
    # on a unital instance the recovered left slice must agree with
    # (1 (x) a) applied to the materialized Gamma(v) = cA(1, v)
    mha = build_instance("sweedler-H4", QQ)
    V = canonical_yd(mha)
    H = functor_g(V)
    back = functor_f(H)
    alg = mha.algebra
    for vs in V.module.basis:
        gamma = H.cA(alg.unit, V.module.el(vs))
        for a in alg.basis:
            expect = Element(QQ)
            for s, c in gamma.terms.items():
                v0, m = s[0], s[1]
                expect = expect + tensor(V.module.el(v0),
                                         alg.mult(alg.el(a), alg.el(m))).scaled(c)
            assert back.coaction.slice_l(V.module.el(vs), mha.el(a)) == expect


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4"])
def test_functor_f_finite_dimensional_recovery(name):
    # no registered instance is non-unital, non-commutative and finite, so
    # no suite reaches this recovery; forced here, it must rebuild the left
    # slice of every finite fixture exactly
    mha = build_instance(name, QQ)
    for V in yd_fixtures(mha):
        F = functor_f(functor_g(V), hypothesis="finite-dimensional")
        for v in V.module.basis:
            for a in mha.algebra.basis:
                x, y = V.module.el(v), mha.el(a)
                assert F.coaction.slice_l(x, y) == V.coaction.slice_l(x, y)
