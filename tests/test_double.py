"""Diagonal crossed products, Drinfel'd doubles and the module
correspondence, with hand oracles on small group algebras."""

import copy
from fractions import Fraction

import pytest

import ydcheck.double as double

from ydcheck.fields import QQ, PrimeField, parse_field
from ydcheck.linear import Element, Ten, tensor
from ydcheck.instances import (build_instance, group_S3, dual_sym,
                               compute_integrals, inner_automorphism,
                               h4_scaling_automorphism)
from ydcheck.modules import UnitalModule
from ydcheck.yd import canonical_yd, trivial_yd, yd_tensor
from ydcheck.gyd import (AutoPair, identity_pair, trivial_gyd,
                         twisted_adjoint_gyd, parse_pair)
from ydcheck.double import (DiagonalCrossedProduct, drinfeld_double, check_dcp,
                            yd_to_dcp_module, dcp_module_to_yd,
                            regular_dcp_module, check_double_correspondence,
                            check_double_correspondence_suite)
from ydcheck.mha import check_mha_axioms


def test_double_kz2_is_group_algebra_of_klein_four():
    # D(KZ2) is commutative; the sign character u = d_e - d_g and v = eps><g
    # generate it as the group algebra of Z2 x Z2: u^2 = v^2 = 1, uv = vu
    mha = build_instance("grp-Z2", QQ)
    D = drinfeld_double(mha)
    alg = D.algebra
    e, g = 0, 1
    chi = Element(QQ) + Element.basis(QQ, Ten((dual_sym(e), e))) \
        - Element.basis(QQ, Ten((dual_sym(g), e)))
    u = chi  # chi >< 1 with 1 = delta_e grouplike unit of KZ2
    v = tensor(D.dual.algebra.unit, mha.el(g))
    assert alg.mult(u, u) == alg.unit
    assert alg.mult(v, v) == alg.unit
    assert alg.mult(u, v) == alg.mult(v, u)
    # commutative on the whole basis
    for x in alg.basis:
        for y in alg.basis:
            assert alg.mult(alg.el(x), alg.el(y)) == alg.mult(alg.el(y), alg.el(x))
    assert len(alg.basis) == 4
    rep = check_dcp(D, seed=0)
    assert rep.ok, rep.summary()


def test_double_ks3_conjugation_on_dual_basis():
    # (eps >< g)(d_h^ >< e) = d_{ghg^-1}^ >< g
    mha = build_instance("grp-S3", QQ)
    D = drinfeld_double(mha)
    alg = D.algebra
    g3 = group_S3()
    e = g3.identity
    for g in g3.elements:
        left = tensor(D.dual.algebra.unit, mha.el(g))
        for h in g3.elements:
            right = alg.el(Ten((dual_sym(h), e)))
            conj = g3.mul(g3.mul(g, h), g3.inv(g))
            assert alg.mult(left, right) == alg.el(Ten((dual_sym(conj), g)))


@pytest.mark.parametrize("name,spec", [("grp-S3", "inner:2,3"),
                                       ("sweedler-H4", "scale:2,3"),
                                       ("dual:sweedler-H4", "identity")])
def test_crossed_product_matches_its_defining_formula(name, spec):
    """On every basis pair, (p >< a)(q >< b) equals
    p (alpha(a_(1)) |> q <| S^-1(beta(a_(3)))) >< a_(2) b, with the bracket
    and the dual product read off the pairing, not the library's actions:
    (a |> q <| c)(x) = q(c x a) and (pr)(x) = p(x_(1)) r(x_(2))."""
    mha = build_instance(name, QQ)
    D = DiagonalCrossedProduct(mha, parse_pair(mha, spec))
    alpha, beta = D.pair.alpha, D.pair.beta
    H, pairing = mha.algebra, D.dual.pairing

    def functional(values):  # {x: f(x)} as a dual element
        return Element(QQ, {dual_sym(x): v for x, v in values.items()})

    def bracket(a, q, c):
        return functional({x: pairing(q, H.mult(H.mult(c, H.el(x)), a))
                           for x in H.basis})

    def dual_mult(p, r):
        def value(x):
            return sum(c * pairing(p, H.el(x1)) * pairing(r, H.el(x2))
                       for (x1, x2), c in mha.coproduct(H.el(x)).terms.items())
        return functional({x: value(x) for x in H.basis})

    for s1 in D.algebra.basis:
        p, a = s1
        for s2 in D.algebra.basis:
            q, b = s2

            def term(s):  # a_(1) (x) a_(2) (x) a_(3)
                a1, a2, a3 = s
                mid = bracket(alpha(H.el(a1)), D.dual.el(q),
                              mha.antipode_inv(beta(H.el(a3))))
                return tensor(dual_mult(D.dual.el(p), mid),
                              H.mult(H.el(a2), H.el(b)))
            want = mha.sweedler(H.el(a), 3).map_terms(term)
            got = D.algebra.mult(D.algebra.el(s1), D.algebra.el(s2))
            assert got == want, (s1, s2)


def test_double_ks3_associative_sampled():
    mha = build_instance("grp-S3", QQ)
    rep = check_dcp(drinfeld_double(mha), samples=500, seed=3)
    assert rep.ok, rep.summary()


def test_double_h4_associative():
    mha = build_instance("sweedler-H4", QQ)
    rep = check_dcp(drinfeld_double(mha), samples=500, seed=3)
    assert rep.ok, rep.summary()


def test_dcp_at_twisted_pair_associative():
    mha = build_instance("sweedler-H4", QQ)
    pair = AutoPair(h4_scaling_automorphism(mha, Fraction(2)),
                    h4_scaling_automorphism(mha, Fraction(3)))
    rep = check_dcp(DiagonalCrossedProduct(mha, pair), samples=400, seed=3)
    assert rep.ok, rep.summary()


def test_trivial_module_action_formula():
    # (p >< a).lam = eps(a) p(1) lam on the trivial fixture
    mha = build_instance("grp-Z2", QQ)
    V = trivial_gyd(mha)
    M = yd_to_dcp_module(V, drinfeld_double(mha))
    D = M.mha
    for p in D.dual.algebra.basis:
        for a in mha.algebra.basis:
            got = M.act(D.algebra.el(Ten((p, a))), M.el("*"))
            expect = M.el("*", mha.counit(mha.el(a))
                          * D.dual.pairing(D.dual.el(p), mha.algebra.unit))
            assert got == expect


def test_grouplike_module_action_formula():
    # adjoint action + grouplike coaction on KZ2: (p >< g).h = p(h) h, as
    # g.h = ghg^-1 = h on the commutative KZ2
    mha = build_instance("grp-Z2", QQ)
    V = twisted_adjoint_gyd(mha, identity_pair(mha))
    M = yd_to_dcp_module(V, drinfeld_double(mha))
    D = M.mha
    for g in mha.algebra.basis:
        for h in mha.algebra.basis:
            for p in mha.algebra.basis:
                got = M.act(D.algebra.el(Ten((dual_sym(p), g))), M.el(h))
                assert got == M.el(h, 1 if p == h else 0)


def test_integrals_verified_on_core_unital_instances():
    for name in ["grp-Z2", "grp-S3", "sweedler-H4"]:
        mha = build_instance(name, QQ)
        compute_integrals(mha).verify()


@pytest.mark.parametrize("name", ["grp-Z2", "grp-S3", "sweedler-H4"])
def test_double_correspondence_identity_pair(name):
    mha = build_instance(name, QQ)
    gyds = [trivial_gyd(mha), canonical_yd(mha)]
    rep = check_double_correspondence(mha, gyds, samples=25, seed=9)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name", ["grp-Z2", "grp-S3", "sweedler-H4",
                                  "dual:sweedler-H4"])
def test_the_correspondence_builds_one_crossed_product_per_pair(name,
                                                                monkeypatch):
    """Both fixtures of the suite and the regular module sit at the
    identity pair, so they share one crossed product and its one dual."""
    mha = build_instance(name, QQ)
    built, real = [], double.dual_hopf

    def spy(base, name=None):
        built.append(base)
        return real(base, name)

    monkeypatch.setattr(double, "dual_hopf", spy)
    assert check_double_correspondence_suite(mha, samples=3, seed=3).ok
    assert len(built) == 1 and built[0] is mha, len(built)


def test_a_copy_of_a_warm_dual_reads_its_own_antipode():
    """With dual:sweedler-H4's tables warmed by the correspondence suite and
    every structure map, a copy.copy whose antipode is doubled fails the
    antipode law with a witness, and the original still passes."""
    D = build_instance("dual:sweedler-H4", QQ)
    assert check_double_correspondence_suite(D, samples=3, seed=3).ok
    everything = Element(QQ, {s: 1 for s in D.algebra.basis})
    D.antipode(everything)
    D.antipode_inv(everything)
    D.coproduct(everything)
    D.algebra.mult(everything, everything)

    bad = copy.copy(D)
    bad._antipode = lambda s: D._antipode(s).scaled(QQ.from_int(2))
    rep = check_mha_axioms(bad, samples=10, seed=0)
    hit = [r for r in rep.laws if r.law == "antipode"]
    assert len(hit) == 1 and not hit[0].ok and hit[0].witness, rep.summary()
    rep = check_mha_axioms(D, samples=10, seed=0)
    assert rep.ok, rep.summary()


def test_double_correspondence_twisted_pairs():
    mha = build_instance("sweedler-H4", QQ)
    pair = AutoPair(h4_scaling_automorphism(mha, Fraction(2)),
                    h4_scaling_automorphism(mha, Fraction(3)))
    gyds = [twisted_adjoint_gyd(mha, pair)]
    rep = check_double_correspondence(mha, gyds, samples=25, seed=9)
    assert rep.ok, rep.summary()

    s3 = build_instance("grp-S3", QQ)
    g3 = group_S3()
    pair = AutoPair(inner_automorphism(s3, (1, 0, 2)),
                    inner_automorphism(s3, (1, 2, 0)))
    rep = check_double_correspondence(s3, [twisted_adjoint_gyd(s3, pair)],
                                      samples=20, seed=9)
    assert rep.ok, rep.summary()


def test_structure_constant_dump_is_deterministic():
    mha = build_instance("grp-Z2", QQ)
    D = drinfeld_double(mha)
    d1 = D.structure_constants()
    d2 = drinfeld_double(build_instance("grp-Z2", QQ)).structure_constants()
    assert d1 == d2
    assert len(d1["basis"]) == 4


@pytest.mark.parametrize("name,spec", [
    ("grp-S3", "identity"), ("sweedler-H4", "identity"),
    ("sweedler-H4", "scale:2,3")])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_exchange_table_equals_the_per_pair_formula(name, spec, field):
    """The crossed product reads a_(1) (x) a_(2) (x) a_(3) once per basis
    symbol a; every basis product equals the exchange rule evaluated with
    Delta^2(a) computed afresh for that pair."""
    mha = build_instance(name, field)
    D = DiagonalCrossedProduct(mha, parse_pair(mha, spec))
    alpha, beta, dual = D.pair.alpha, D.pair.beta, D.dual

    def exchange(a, q):  # (1 >< a)(q >< 1)
        def term(s):
            a1, a2, a3 = s
            moved = dual.act_right(
                dual.act_left(alpha(mha.el(a1)), dual.el(q)),
                mha.antipode_inv(beta(mha.el(a3))))
            return tensor(moved, mha.el(a2))
        return mha.sweedler(mha.el(a), 3).map_terms(term)

    for s1 in D.algebra.basis:
        p, a = s1
        for s2 in D.algebra.basis:
            q, b = s2

            def term(s):
                r, c = s
                return tensor(dual.algebra.mult(dual.el(p), dual.el(r)),
                              mha.algebra.mult(mha.el(c), mha.el(b)))
            want = exchange(a, q).map_terms(term)
            assert D.algebra.mult_basis[s1, s2] == want, (s1, s2)


def _dense_assoc_witness(alg):
    """The reference scan: every basis triple in order, both sides through
    the bilinear product; the first failing triple, or None."""
    mult = alg.mult_basis
    for x in alg.basis:
        for y in alg.basis:
            for z in alg.basis:
                if (alg.mult(mult[x, y], alg.el(z))
                        != alg.mult(alg.el(x), mult[y, z])):
                    return "x=%r y=%r z=%r" % (x, y, z)
    return None


@pytest.mark.parametrize("name,field,spec", [
    ("grp-Z2", "rational", None),
    ("sweedler-H4", "rational", None),
    ("sweedler-H4", "fp:5", None),
    ("dual:sweedler-H4", "rational", None),
    ("sweedler-H4", "rational", "scale:2,3")])
@pytest.mark.parametrize("kind", ["zero-plus", "nonzero-plus",
                                  "nonzero-to-zero"])
def test_dcp_assoc_catches_a_product_table_mutant(name, field, spec, kind):
    """The exhaustive pass evaluates only the triples where a side can be
    nonzero.  One wrong product table entry, preset before the table is
    first read, fails dcp-assoc with the dense scan's first failing triple.
    The entry is the first basis product that is zero (zero-plus) or nonzero
    (the others), plus the last basis vector or replaced by 0, so an entry
    that turns nonzero and one that turns zero are both covered."""
    def build():
        mha = build_instance(name, parse_field(field))
        if spec is None:
            return drinfeld_double(mha)
        return DiagonalCrossedProduct(mha, parse_pair(mha, spec))

    D = build()
    rep = check_dcp(D)
    assert rep.ok and "exhaustive" in rep.laws[0].statement, rep.summary()
    assert _dense_assoc_witness(D.algebra) is None

    mult = D.algebra.mult_basis
    x, y = next((x, y) for x in D.algebra.basis for y in D.algebra.basis
                if mult[x, y].is_zero() == (kind == "zero-plus"))
    D = build()
    alg = D.algebra
    alg.mult_basis[x, y] = (Element(alg.field) if kind == "nonzero-to-zero" else
                            alg.mult_basis.f(x, y) + alg.el(alg.basis[-1]))
    rep = check_dcp(D)
    law = rep.laws[0]
    assert law.law == "dcp-assoc" and not law.ok
    assert law.witness == _dense_assoc_witness(alg)


@pytest.mark.parametrize("name", ["grp-Z2", "sweedler-H4"])
def test_crossed_product_modules_carry_their_arity(name):
    # the regular module has arity 2 and yd_to_dcp_module keeps its YD
    # module's, which dcp_module_to_yd splits the coaction by; control: the
    # same action declared at the other arity breaks the round trip
    mha = build_instance(name, QQ)
    dcp = drinfeld_double(mha)
    integrals = compute_integrals(mha)
    assert regular_dcp_module(dcp).arity == 2
    V = canonical_yd(mha)
    for X in (V, yd_tensor(V, trivial_yd(mha))):
        M = yd_to_dcp_module(X, dcp)
        assert M.mha is dcp and M.arity == X.module.arity
        back = dcp_module_to_yd(M, integrals)
        assert back.module.arity == M.arity

        def slices(Y):
            return [Y.coaction.slice_r(Y.module.el(v), mha.el(a))
                    for v in X.module.basis for a in mha.algebra.basis]
        assert slices(back) == slices(X)
        wrong = UnitalModule(dcp, lambda d, m, M=M: M.act_basis[d, m],
                             M.space, arity=3 - M.arity, name="wrong-arity")
        with pytest.raises((KeyError, TypeError)):
            slices(dcp_module_to_yd(wrong, integrals))
