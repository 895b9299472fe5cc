"""Yetter-Drinfel'd compatibility, tensor structure, braiding, and the
centre-equivalence functors, with grouplike hand-oracles."""

import random
from fractions import Fraction

import pytest

from ydcheck.fields import QQ, PrimeField
from ydcheck.linear import Element, Ten, tensor, split_sym, apply_legs
from ydcheck.instances import build_instance, CORE_INSTANCES, group_S3
from ydcheck.mha import random_element
from ydcheck.modules import (regular_module, coproduct_coaction, Coaction,
                             adjoint_module, twist,
                             untwist)
from ydcheck.yd import (YDModule, check_yd, check_yd_suite, yd_tensor,
                        yd_fixtures, braiding_c, braiding_c_inv, functor_g,
                        functor_f, check_half_braiding, check_equivalence,
                        canonical_yd, trivial_yd, tensor_module,
                        act_on_slice)
from ydcheck.gyd import (stretch_gyd, parse_pair, gyd_fixtures_at,
                         gyd_braiding)


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
            x = random_element(rng, mod, 3)
            a = random_element(rng, mha.algebra)
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
    from ydcheck.mha import random_element
    mha = build_instance(name, QQ)
    reg = regular_module(mha)
    rng = random.Random(9)
    for V in yd_fixtures(mha):
        for _ in range(10):
            xv = tensor(random_element(rng, mha.algebra),
                        random_element(rng, V.module, 3))
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


# -- the memoized braidings against their per-term formulas -------------------

def splice_formula(X, arity, slice_r, xv, beta=None):
    """x (x) v -> v_(0) (x) beta^-1(v_(1)).x, term by term, unmemoized."""
    out = Element(xv.field)
    for s, c in xv.terms.items():
        xs, vs = split_sym(s, X.arity)
        x = X.el(xs)
        e = X.local_unit([x])
        img = apply_legs(slice_r(Element.basis(x.field, vs), twist(beta, e)),
                         arity, 1, lambda m: X.act(untwist(beta, m), x))
        out = out + img.scaled(c)
    return out


def inverse_formula(X, V, vx):
    """v (x) x -> S(v_(1)).x (x) v_(0), term by term, unmemoized."""
    mha, mod = V.mha, V.module
    out = Element(vx.field)
    for s, c in vx.terms.items():
        vs, xs = split_sym(s, mod.arity)
        x = X.el(xs)
        e = X.local_unit([x])
        sl = V.coaction.slice_l(mod.el(vs), mha.antipode_inv(e))
        for s2, c2 in sl.terms.items():
            v0, m = split_sym(s2, mod.arity)
            out = out + tensor(X.act(mha.antipode(mha.el(m)), x),
                               mod.el(v0)).scaled(c * c2)
    return out


@pytest.mark.parametrize("name", ["fun-Z", "fun-Dinf", "grp-S3", "sweedler-H4"])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_memoized_braidings_equal_their_formulas(name, field):
    """braiding_c, braiding_c_inv and HalfBraiding.component are memoized
    per basis symbol on the object whose slice they read, keyed by X; on
    seeded inputs (read twice, so the second read comes from the memo) they
    equal the per-term formula."""
    mha = build_instance(name, field)
    reg = regular_module(mha)
    rng = random.Random(5)
    for V in yd_fixtures(mha):
        H = functor_g(V)
        for X in (reg, tensor_module(reg, reg)):
            for _ in range(4):
                x = random_element(rng, X, 3)
                v = random_element(rng, V.module, 3)
                xv, vx = tensor(x, v), tensor(v, x)
                for _ in range(2):
                    assert braiding_c(X, V, xv) == splice_formula(
                        X, V.module.arity, V.coaction.slice_r, xv)
                    assert braiding_c_inv(X, V, vx) == inverse_formula(X, V, vx)
                    assert H.component(X, xv) == splice_formula(
                        X, V.module.arity, lambda v, e: H.cA(e, v), xv)
            assert ("c", X, None) in V.coaction._braidings
            assert ("c-inv", X) in V.coaction._braidings
            assert ("c", X, None) in H._braidings
        # a new coaction starts without the memo
        assert functor_f(H).coaction._braidings == {}


@pytest.mark.parametrize("name,field,specs", [
    ("sweedler-H4", QQ, ("scale:2,3", "scale:3,2")),
    ("sweedler-H4", PrimeField(5), ("scale:2,3", "scale:3,2")),
    ("grp-S3", PrimeField(5), ("inner:2,3", "inner:3,2")),
], ids=["H4-QQ", "H4-fp5", "S3-fp5"])
def test_memoized_twisted_braiding_equals_its_formula(name, field, specs):
    """The twisted braiding C_{V,W}(v (x) w) = w_(0) (x) beta^-1(w_(1)).v
    is the splice memoized on W's coaction at (V's module, V's beta)."""
    mha = build_instance(name, field)
    fixtures = [fx for spec in specs
                for fx in gyd_fixtures_at(mha, parse_pair(mha, spec))]
    rng = random.Random(7)
    for V in fixtures:
        beta = V.pair.beta
        for W in fixtures:
            for _ in range(3):
                t = tensor(random_element(rng, V.module, 3),
                           random_element(rng, W.module, 3))
                for _ in range(2):
                    assert gyd_braiding(V, W, t) == splice_formula(
                        V.module, W.module.arity, W.coaction.slice_r, t, beta)
                    # the untwisted splice on the same X is a memo of its own
                    assert braiding_c(V.module, W, t) == splice_formula(
                        V.module, W.module.arity, W.coaction.slice_r, t)
            assert ("c", V.module, beta) in W.coaction._braidings
            assert ("c", V.module, None) in W.coaction._braidings


def act_on_slice_formula(module, a, x, beta=None):
    """a_(1).v (x) beta(a_(2))m as the unskipped double loop: every pair of
    Delta(a)(1 (x) u) against every term of x, split anew each time."""
    mha = module.mha
    alg = mha.algebra
    out = Element(x.field)
    if x.is_zero():
        return out
    u = untwist(beta, alg.local_unit(
        [alg.el(split_sym(sx, module.arity)[1]) for sx in x.terms]))
    for s, c in mha.delta_r(a, u).terms.items():
        p, q = s
        bq = alg.el(q) if beta is None else beta(alg.el(q))
        for sx, cx in x.terms.items():
            v0, m = split_sym(sx, module.arity)
            out = out + tensor(module.act(alg.el(p), module.el(v0)),
                               alg.mult(bq, alg.el(m))).scaled(c * cx)
    return out


@pytest.mark.parametrize("name,spec", [
    ("fun-Z", None), ("fun-Dinf", None), ("sweedler-H4", None),
    ("sweedler-H4", "scale:2,3"), ("grp-S3", "inner:2,3")])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_act_on_slice_equals_the_unskipped_double_loop(name, spec, field):
    """act_on_slice splits the slice once and skips the pairs whose second
    leg annihilates it; on coaction slices of the YD fixtures (untwisted)
    or of the fixtures at a pair (with its beta) it equals the double loop
    over every pair and every term."""
    mha = build_instance(name, field)
    if spec is None:
        fixtures, beta = yd_fixtures(mha), None
    else:
        pair = parse_pair(mha, spec)
        fixtures, beta = gyd_fixtures_at(mha, pair), pair.beta
    rng = random.Random(17)
    for V in fixtures:
        for _ in range(6):
            a = random_element(rng, mha.algebra)
            x = V.coaction.slice_r(random_element(rng, V.module, 3),
                                   random_element(rng, mha.algebra))
            assert act_on_slice(V.module, a, x, beta) == act_on_slice_formula(
                V.module, a, x, beta), (V.name, a, x)
