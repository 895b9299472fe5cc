"""Yetter-Drinfel'd compatibility, tensor structure, braiding, and the
centre-equivalence functors, with grouplike hand-oracles."""

import gc
import random
import weakref

import pytest

from ydcheck.fields import QQ, PrimeField
from ydcheck.linear import Element, Ten, tensor, split_sym, apply_legs
from ydcheck.instances import (build_instance, CORE_INSTANCES, group_S3,
                               group_map_automorphism, ID)
from ydcheck.mha import random_element
from ydcheck.modules import (UnitalModule, regular_module,
                              coproduct_coaction)
from ydcheck.yd import (YDModule, check_yd, check_yd_suite, yd_tensor,
                        yd_fixtures, braiding_c, braiding_c_inv, functor_g,
                        functor_f, check_equivalence, canonical_yd,
                        tensor_module, act_on_slice, check_half_braiding)
from ydcheck.gyd import (AutoPair, identity_pair, twisted_adjoint_gyd,
                         parse_pair, gyd_fixtures_at, gyd_braiding)


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
    # tensors included) and the twisted adjoint module at (neg, id)
    mha = build_instance(name, QQ)
    alg = mha.algebra
    reg = regular_module(mha)
    factors = [V.module for V in yd_fixtures(mha)] + [reg]
    pairs = [tensor_module(V, W) for V in factors for W in factors]
    mods = pairs + [tensor_module(T, reg) for T in pairs]
    # negation: n -> -n on Z, (n, e) -> (-n, e) on Dinf
    flip = ((lambda n: -n) if name == "fun-Z"
            else (lambda s: (-s[0], s[1])))
    neg = group_map_automorphism(mha, flip, flip, name="neg")
    stretch = twisted_adjoint_gyd(mha, AutoPair(neg, ID)).module
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


# -- the memoized braidings against their per-term formulas -------------------

def splice_formula(X, arity, slice_r, xv, beta=ID):
    """x (x) v -> v_(0) (x) beta^-1(v_(1)).x, term by term, unmemoized."""
    out = Element(xv.field)
    for s, c in xv.terms.items():
        xs, vs = split_sym(s, X.arity)
        x = X.el(xs)
        e = X.local_unit([x])
        img = apply_legs(slice_r(Element.basis(x.field, vs), beta(e)),
                         arity, 1, lambda m: X.act(beta.inverse(m), x))
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
            assert ("c", X, ID) in V.coaction._braidings
            assert ("c-inv", X, ID) in V.coaction._braidings
            assert ("c", X, ID) in H._braidings
        # a new coaction starts without the memo
        assert functor_f(H).coaction._braidings == {}


@pytest.mark.parametrize("name", ["fun-Z", "fun-Dinf", "sweedler-H4"])
def test_g_of_v_reads_the_braiding_table_of_v(name):
    """G(V) keeps its components in the braiding tables of V's coaction:
    on a basis vector x (x) v, H.component(reg, .) is the identical Element
    braiding_c(reg, V, .) holds, whichever of the two is read first."""
    mha = build_instance(name, QQ)
    reg = regular_module(mha)
    rng = random.Random(3)
    for V in yd_fixtures(mha):
        H = functor_g(V)
        assert H._braidings is V.coaction._braidings
        for k in range(6):
            t = tensor(reg.el(reg.space.sample(rng)),
                       V.module.el(V.module.space.sample(rng)))
            first, second = ((H.component(reg, t), braiding_c(reg, V, t))
                             if k % 2 else
                             (braiding_c(reg, V, t), H.component(reg, t)))
            assert first is second, (V.name, t)
        assert list(V.coaction._braidings) == [("c", reg, ID)]


def test_g_of_v_and_v_are_freed_by_reference_counting():
    """cA of G(V) closes over V's slice map, not over V, so a fixture V
    and G(V) that have filled the shared braiding table, and passed a
    centre check, are freed as soon as they are dropped."""
    mha = build_instance("fun-Z", QQ)
    reg = regular_module(mha)
    gc.disable()
    try:
        V = canonical_yd(mha)
        H = functor_g(V)
        t = tensor(reg.el(1) + reg.el(-2), V.module.el(3))
        assert H.component(reg, t) == braiding_c(reg, V, t)
        assert H.cA(mha.el(1), V.module.el(1)) == V.coaction.slice_r(
            V.module.el(1), mha.el(1))
        assert check_half_braiding(H, reg, 3, 0).ok
        assert list(V.coaction._braidings) == [("c", reg, ID)]
        refs = [weakref.ref(o) for o in (V, H, V.coaction, V.module)]
        del V, H
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


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
            assert ("c", V.module, ID) in W.coaction._braidings


def act_on_slice_formula(module, a, x, beta=ID):
    """a_(1).v (x) beta(a_(2))m as the unskipped double loop: every pair of
    Delta(a)(1 (x) u), for u a beta^-1-twisted local unit of the A-legs of
    x, against every term of x, split anew each time."""
    mha = module.mha
    alg = mha.algebra
    out = Element(x.field)
    if x.is_zero():
        return out
    u = beta.inverse(alg.local_unit(
        [alg.el(split_sym(sx, module.arity)[1]) for sx in x.terms]))
    for s, c in mha.delta_r(a, u).terms.items():
        p, q = s
        bq = beta(alg.el(q))
        for sx, cx in x.terms.items():
            v0, m = split_sym(sx, module.arity)
            out = out + tensor(module.act(alg.el(p), module.el(v0)),
                               alg.mult(bq, alg.el(m))).scaled(c * cx)
    return out


def neg_pair(mha, spec):
    """(neg, id) or (id, neg) on fun-Z, with neg the lift of n -> -n (as
    tests/test_gyd.py builds it)."""
    neg = group_map_automorphism(mha, lambda n: -n, lambda n: -n, name="neg")
    return AutoPair(neg, ID) if spec == "neg,id" else AutoPair(ID, neg)


def act_on_slice_unbeta(module, a, x, beta):
    """A wrong act_on_slice for the control: a split against each A-leg m
    as Delta(a)(1 (x) m), without beta^-1, then beta on the second leg."""
    alg = module.mha.algebra

    def term(v0, m):
        return module.mha.delta_r(a, alg.el(m)).map_legs(lambda p, q: tensor(
            module.act(alg.el(p), module.el(v0)), beta(alg.el(q))))
    return x.map_legs(term, at=module.arity)


@pytest.mark.parametrize("name,spec", [
    ("fun-Z", None), ("fun-Dinf", None), ("sweedler-H4", None),
    ("sweedler-H4", "scale:2,3"), ("grp-S3", "inner:2,3"),
    ("grp-S3", "inner:1,2"), ("fun-Z", "neg,id"), ("fun-Z", "id,neg")])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_act_on_slice_equals_the_unskipped_double_loop(name, spec, field):
    """act_on_slice splits a against each A-leg of the slice it acts on;
    on coaction slices of the YD fixtures (untwisted) or of the fixtures at
    a pair (with its beta), and on random elements of V (x) A, it equals the
    double loop over every pair of a split against a local unit and every
    term, also when read a second time from the table its module keeps at
    beta.  Where beta is not ID (a twisted pair, non-unital on fun-Z at
    (id, neg)), the split without beta^-1 differs on some draw."""
    mha = build_instance(name, field)
    if spec is None:
        pair = identity_pair(mha)
    elif spec in ("neg,id", "id,neg"):
        pair = neg_pair(mha, spec)
    else:
        pair = parse_pair(mha, spec)
    fixtures = yd_fixtures(mha) if spec is None else gyd_fixtures_at(mha, pair)
    beta = pair.beta
    rng = random.Random(17)
    differs = False
    for V in fixtures:
        for k in range(8):
            a = random_element(rng, mha.algebra)
            v = random_element(rng, V.module, 3)
            x = (tensor(v, random_element(rng, mha.algebra)) if k % 2 else
                 V.coaction.slice_r(v, random_element(rng, mha.algebra)))
            expect = act_on_slice_formula(V.module, a, x, beta)
            for _ in range(2):
                got = act_on_slice(V.module, a, x, beta)
                assert got == expect, (V.name, a, x)
            differs |= got != act_on_slice_unbeta(V.module, a, x, beta)
        assert beta in V.module._slice_acts
    assert differs == (beta is not ID)


@pytest.mark.parametrize("name", ["fun-Z", "fun-Dinf", "sweedler-H4"])
def test_local_unit_basis_fixes_its_basis_vector(name):
    """module.local_unit_basis[s] is the local unit of el(s): e.v = v for
    sampled symbols s of every YD fixture's module and every module of the
    fixtures at the instance's pairs; it equals local_unit([el(s)]) and a
    second read is the identical Element."""
    mha = build_instance(name, QQ)
    pairs = [identity_pair(mha)] + [parse_pair(mha, s) for s in mha.pair_specs]
    modules = [V.module for V in yd_fixtures(mha)] + [
        V.module for pair in pairs for V in gyd_fixtures_at(mha, pair)]
    rng = random.Random(23)
    for M in modules:
        for _ in range(5):
            s = M.space.sample(rng)
            e = M.local_unit_basis[s]
            assert M.act(e, M.el(s)) == M.el(s), (M.name, s)
            assert e == M.local_unit([M.el(s)])
            assert M.local_unit_basis[s] is e


@pytest.mark.parametrize("name", ["fun-Z", "sweedler-H4"])
def test_a_corrupted_action_starts_with_cold_slice_and_unit_tables(name):
    """A module built from a corrupted (doubled) action map keeps tables of
    its own: after the good module has filled its act_on_slice and
    local-unit tables, the bad one starts with both empty, and its
    act_on_slice is twice the good one's, not the good one's images."""
    mha = build_instance(name, QQ)
    V = canonical_yd(mha)
    good = V.module
    rng = random.Random(29)
    draws = [(random_element(rng, mha.algebra),
              V.coaction.slice_r(random_element(rng, good, 3),
                                 random_element(rng, mha.algebra)))
             for _ in range(6)]
    for a, x in draws:
        act_on_slice(good, a, x)
    syms = [good.space.sample(rng) for _ in range(4)]
    for s in syms:
        good.local_unit_basis[s]
    assert list(good._slice_acts) == [ID] and good.local_unit_basis

    two = QQ.from_int(2)
    bad = UnitalModule(mha, lambda a, v: good.act_basis[a, v].scaled(two),
                       good.space, local_unit=good._local_unit, name="bad")
    assert bad._slice_acts == {} and bad.local_unit_basis == {}
    images = [act_on_slice(bad, a, x) for a, x in draws]
    for (a, x), y in zip(draws, images):
        assert y == act_on_slice(good, a, x).scaled(two)
    assert any(y != act_on_slice(good, a, x)
               for (a, x), y in zip(draws, images))
    for s in syms:
        assert bad.local_unit_basis[s] == good.local_unit_basis[s]
