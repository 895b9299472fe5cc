"""Oracle tests for the concrete instances.

Each instance's slice maps, counit and antipode are recomputed here by an
independent route (pointwise function evaluation for K(G), grouplike
expansion for group algebras, hand-expanded relations for the 4-dimensional
instance) and compared with what the library returns.
"""

import copy
import gc
import random
import weakref
from fractions import Fraction

import pytest

from ydcheck.fields import QQ, PrimeField
from ydcheck.linear import Element, Ten, tensor, legs
from ydcheck.instances import (group_Z, group_S3, group_Dinf,
                               function_algebra, group_algebra, sweedler_h4,
                               dual_hopf, dual_sym, compute_integrals,
                               ID, group_map_automorphism,
                               inner_automorphism, h4_scaling_automorphism,
                               qt_for_cyclic, QTStructure, build_instance,
                               ConstructionError)
from ydcheck.mha import check_mha_axioms, random_element
from ydcheck.report import Report
from ydcheck.cli import SUITES


@pytest.mark.parametrize("suite", ["yd", "centre-equivalence", "gyd",
                                   "t-category", "module-algebra"])
def test_infinite_group_algebra(suite):
    """KZ is unital on an infinite basis: the adjoint, counit and tensor
    modules built on it draw their vectors from the group's sampler."""
    rep = SUITES[suite][0](group_algebra(group_Z(), QQ), 10, 0)
    assert rep.ok, rep.summary()


def test_group_tables():
    s3 = group_S3()
    for p in s3.elements:
        assert s3.mul(p, s3.inv(p)) == s3.identity
        for q in s3.elements:
            assert s3.mul(p, q) in s3.elements
    # S3 is not abelian
    a, b = (1, 0, 2), (0, 2, 1)
    assert s3.mul(a, b) != s3.mul(b, a)

    d = group_Dinf()
    r, s = (1, 0), (0, 1)
    assert d.mul(s, s) == d.identity
    # s r s = r^-1
    assert d.mul(d.mul(s, r), s) == d.inv(r)
    for g in [(3, 1), (-2, 0), (0, 1)]:
        assert d.mul(g, d.inv(g)) == d.identity
        assert d.mul(d.inv(g), g) == d.identity


def _delta_pointwise(group, f_supp, pairs):
    """Oracle: Delta(f)(p, q) = f(pq) evaluated pointwise."""
    return {(p, q) for p in f_supp for q in pairs if group.mul(p, q) in f_supp}


def test_function_algebra_slices_match_pointwise_evaluation():
    # evaluate Delta(delta_g)(1 (x) delta_h) at every point (p, q):
    # value is [p q = g][q = h], i.e. delta_{g h^-1} (x) delta_h
    g = group_Z()
    A = function_algebra(g, QQ)
    for gg in range(-3, 4):
        for hh in range(-3, 4):
            got = A.delta_r(A.el(gg), A.el(hh))
            expect = Element(QQ)
            for p in range(-8, 9):
                for q in range(-8, 9):
                    if g.mul(p, q) == gg and q == hh:
                        expect = expect + Element.basis(QQ, Ten((p, q)))
            assert got == expect
            # same oracle for the other three slices
            got = A.delta_l(A.el(gg), A.el(hh))
            expect = Element(QQ)
            for p in range(-8, 9):
                for q in range(-8, 9):
                    if p == gg and g.mul(p, q) == hh:
                        expect = expect + Element.basis(QQ, Ten((p, q)))
            assert got == expect


def test_function_algebra_dinf_slices_pointwise():
    g = group_Dinf()
    A = function_algebra(g, QQ)
    pts = [(k, e) for k in range(-6, 7) for e in (0, 1)]
    for a in [(1, 1), (-2, 0), (0, 1)]:
        for b in [(2, 0), (1, 1)]:
            got = A.delta_r2(A.el(a), A.el(b))
            expect = Element(QQ)
            for p in pts:
                for q in pts:
                    if g.mul(p, q) == a and p == b:
                        expect = expect + Element.basis(QQ, Ten((p, q)))
            assert got == expect
            got = A.delta_l2(A.el(a), A.el(b))
            expect = Element(QQ)
            for p in pts:
                for q in pts:
                    if g.mul(p, q) == b and q == a:
                        expect = expect + Element.basis(QQ, Ten((p, q)))
            assert got == expect


def test_function_algebra_is_nonunital_with_local_units():
    A = function_algebra(group_Z(), QQ)
    assert not A.algebra.has_unit
    x = A.el(2) + A.el(-1, Fraction(3))
    e = A.algebra.local_unit([x])
    assert A.algebra.mult(e, x) == x and A.algebra.mult(x, e) == x
    # the cover acts as a unit through the slices
    y = A.el(5)
    c = A.delta_cover([x], [y])
    assert A.t1(tensor(A.el(c.support()[0]), Element(QQ))) is not None
    # Delta(c)(x (x) y) = x (x) y, checked slice-wise
    got = Element(QQ)
    for s, co in A.delta_r(c, y).terms.items():
        l1, l2 = legs(s)
        got = got + tensor(A.algebra.mult(x, A.el(l1)), A.el(l2)).scaled(co)
    assert got == tensor(x, y)


def test_group_algebra_slices_are_grouplike():
    A = group_algebra(group_S3(), QQ)
    g = group_S3()
    for a in g.elements:
        for b in g.elements:
            # Delta(a)(1 (x) b) = a (x) ab
            assert A.delta_r(A.el(a), A.el(b)) == Element.basis(QQ, Ten((a, g.mul(a, b))))
            # (a (x) 1)Delta(b) = ab (x) b
            assert A.delta_l(A.el(a), A.el(b)) == Element.basis(QQ, Ten((g.mul(a, b), b)))
    assert A.counit(A.el((1, 2, 0))) == 1
    assert A.antipode(A.el((1, 2, 0))) == A.el(g.inv((1, 2, 0)))
    assert A.cocommutative and not A.commutative


def test_sweedler_relations():
    H = sweedler_h4(QQ)
    alg = H.algebra
    g, x, gx = H.el("g"), H.el("x"), H.el("gx")
    assert alg.mult(g, g) == H.el("1")
    assert alg.mult(x, x).is_zero()
    assert alg.mult(x, g) == -alg.mult(g, x)
    assert alg.mult(g, x) == gx
    # coproduct is multiplicative on the relations
    dx = H.coproduct(x)
    assert dx == tensor(x, H.el("1")) + tensor(g, x)
    assert H.coproduct(alg.mult(g, x)) == alg.mult_tensor(H.coproduct(g), dx)
    # S is an algebra antihomomorphism with S^2 = conjugation by g (not id)
    assert H.antipode(x) == H.el("gx", Fraction(-1))
    s2x = H.antipode(H.antipode(x))
    assert s2x == -x
    assert s2x == alg.mult(alg.mult(g, x), g)
    assert H.antipode_inv(H.antipode(gx)) == gx
    with pytest.raises(ValueError):
        sweedler_h4(PrimeField(2))


def test_dual_pairing_laws():
    H = sweedler_h4(QQ)
    D = dual_hopf(H)
    syms = H.algebra.basis
    for a in syms:
        for b in syms:
            for k in syms:
                p = D.el(dual_sym(k))
                # <Delta(p), a (x) b> = <p, ab>
                lhs = 0
                for s, c in D.coproduct(p).terms.items():
                    l1, l2 = legs(s)
                    lhs = lhs + c * H.el(a).coeff(l1[1]) * H.el(b).coeff(l2[1])
                assert lhs == H.algebra.mult(H.el(a), H.el(b)).coeff(k)
            # <pq, c> = <p (x) q, Delta(c)> for all dual basis p, q
            for k in syms:
                pq = D.algebra.mult(D.el(dual_sym(a)), D.el(dual_sym(b)))
                assert pq.coeff(dual_sym(k)) == H.coproduct(H.el(k)).coeff(Ten((a, b)))
    # S-dual: <S(p), a> = <p, S(a)>
    for a in syms:
        for k in syms:
            assert D.antipode(D.el(dual_sym(k))).coeff(dual_sym(a)) == \
                H.antipode(H.el(a)).coeff(k)


@pytest.mark.parametrize("name", ["dual:grp-Z2", "dual:grp-S3",
                                  "dual:sweedler-H4"])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_dual_tables_match_column_formulas(name, field):
    """The tabulated S, S^-1, product and coproduct of the dual, against
    their defining formulas recomputed column by column from the base:
    S(p) = p o S, (pq)(a) = (p (x) q)Delta(a), <Delta p, a (x) b> = p(ab)."""
    D = build_instance(name, field)
    H = D.base
    syms = H.algebra.basis
    for k in syms:
        p = D.el(dual_sym(k))
        for got, base_map in ((D.antipode(p), H.antipode),
                              (D.antipode_inv(p), H.antipode_inv)):
            want = Element(field, {dual_sym(a): base_map(H.el(a)).coeff(k)
                                   for a in syms})
            assert got == want
        want = Element(field, {
            Ten((dual_sym(a), dual_sym(b))):
                H.algebra.mult(H.el(a), H.el(b)).coeff(k)
            for a in syms for b in syms})
        assert D.coproduct(p) == want
        for j in syms:
            want = Element(field, {
                dual_sym(a): H.coproduct(H.el(a)).coeff(Ten((k, j)))
                for a in syms})
            assert D.algebra.mult(p, D.el(dual_sym(j))) == want


@pytest.mark.parametrize("name", ["dual:grp-S3", "dual:sweedler-H4"])
def test_dual_tables_are_not_shared_with_a_copy(name):
    """Negative control in the style of acceptance criterion 9: with the
    dual's tables built and every structure map warmed, an antipode x 2
    copy.copy must fail the antipode laws with a witness."""
    D = build_instance(name, QQ)
    everything = Element(QQ, {s: 1 for s in D.algebra.basis})
    D.antipode(everything)
    D.antipode_inv(everything)
    D.coproduct(everything)
    D.algebra.mult(everything, everything)
    assert check_mha_axioms(D, samples=10, seed=0).ok

    bad = copy.copy(D)
    two = QQ.from_int(2)
    bad._antipode = lambda s: D._antipode(s).scaled(two)
    rep = check_mha_axioms(bad, samples=10, seed=0)
    hit = [r for r in rep.laws if r.law == "antipode"]
    assert len(hit) == 1 and not hit[0].ok and hit[0].witness, rep.summary()


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4"])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_dual_coregular_actions(name, field):
    """(a |> p)(x) = p(xa) and (p <| a)(x) = p(ax), pointwise on every basis
    a and x, on noncommutative bases where the two actions differ."""
    H = build_instance(name, field)
    D = dual_hopf(H)
    syms = H.algebra.basis
    p = Element(field, {dual_sym(s): field.from_int(i + 1)
                        for i, s in enumerate(syms)})
    for asym in syms:
        a = H.el(asym)
        for xsym in syms:
            x = H.el(xsym)
            assert D.pairing(D.act_left(a, p), x) == \
                D.pairing(p, H.algebra.mult(x, a))
            assert D.pairing(D.act_right(p, a), x) == \
                D.pairing(p, H.algebra.mult(a, x))
    assert any(D.act_left(H.el(s), p) != D.act_right(p, H.el(s)) for s in syms)


def test_integrals_group_algebra():
    # oracle: on KG, phi = coefficient-of-identity, t = sum of all g
    H = group_algebra(group_S3(), QQ)
    data = compute_integrals(H)
    ok, wit = data.verify()
    assert ok, wit
    g = group_S3()
    t_expect = Element(QQ, {s: Fraction(1) for s in g.elements})
    # both are unique up to scale; compare after matching normalization
    assert data.t.scaled(Fraction(1) / data.t.coeff(g.identity)) == t_expect
    phi_vec = Element(QQ, {s: c for s, c in data.phi_coeffs.items()})
    lam = phi_vec.coeff(g.identity)
    assert lam != 0
    assert phi_vec == Element.basis(QQ, g.identity, lam)


def test_integrals_sweedler():
    H = sweedler_h4(QQ)
    data = compute_integrals(H)
    ok, wit = data.verify()
    assert ok, wit
    # left cointegral of the 4-dimensional instance is (1 + g)x up to scale
    alg = H.algebra
    span = alg.mult(H.el("1") + H.el("g"), H.el("x"))
    c = data.t.coeff("x")
    assert c != 0 and data.t == span.scaled(c)


def test_automorphisms():
    H = group_algebra(group_S3(), QQ)
    ident = ID
    assert ident(H.el((1, 2, 0))) == H.el((1, 2, 0))
    conj = inner_automorphism(H, (1, 0, 2))
    assert conj.inverse(conj(H.el((1, 2, 0)))) == H.el((1, 2, 0))
    assert all(conj.composed(conj.inverted())(x) == x for x in map(H.el, H.algebra.basis))

    # negation is a group automorphism of Z; lift it to K(Z)
    A = function_algebra(group_Z(), QQ)
    neg = group_map_automorphism(A, lambda g: -g, lambda g: -g, "neg")
    assert neg(A.el(3)) == A.el(-3)

    H4 = sweedler_h4(QQ)
    sc = h4_scaling_automorphism(H4, Fraction(2))
    assert sc(H4.el("x")) == H4.el("x", Fraction(2))
    assert sc(H4.el("g")) == H4.el("g")
    with pytest.raises(ConstructionError):
        h4_scaling_automorphism(H4, Fraction(0))

    # a non-map must be rejected at construction: swapping g and x on H4
    table = {"1": "1", "g": "x", "x": "g", "gx": "gx"}
    bad = lambda e: e.map_terms(lambda s: Element.basis(QQ, table[s]))
    with pytest.raises(ConstructionError):
        from ydcheck.instances import HopfAutomorphism
        HopfAutomorphism(H4, bad, bad, name="swap")


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_inner_automorphisms_read_conjugation_tables(field):
    """Every inner automorphism of grp-S3 is x -> g x S(g) with inverse
    x -> S(g) x g, on basis vectors and random elements; so are its
    inverse (which shares its tables) and its composites with every other
    inner automorphism.  A basis vector's image is the one Element the
    table holds, and no read takes the antipode again."""
    H = group_algebra(group_S3(), field)
    alg = H.algebra
    rng = random.Random(1)
    probes = ([H.el(s) for s in alg.basis]
              + [random_element(rng, alg) for _ in range(12)])
    S = H.antipode

    def conj(g, x):
        return alg.mult(alg.mult(H.el(g), x), S(H.el(g)))

    def conj_inv(g, x):
        return alg.mult(alg.mult(S(H.el(g)), x), H.el(g))

    calls = []
    H.antipode = lambda x: calls.append(x) or S(x)
    auts = {g: inner_automorphism(H, g) for g in alg.basis}
    built = len(calls)
    for g, aut in auts.items():
        inv = aut.inverted()
        for x in probes:
            assert aut(x) == conj(g, x) and aut.inverse(x) == conj_inv(g, x)
            assert inv(x) == conj_inv(g, x) and inv.inverse(x) == conj(g, x)
        for s in alg.basis:
            assert aut(H.el(s)) is aut(H.el(s))
            assert aut.inverse(H.el(s)) is aut.inverse(H.el(s))
            assert inv(H.el(s)) is aut.inverse(H.el(s))
        for h, other in auts.items():
            both = aut.composed(other)
            for x in probes:
                assert both(x) == conj(g, conj(h, x))
                assert both.inverse(x) == conj_inv(h, conj_inv(g, x))
    assert len(calls) == built


def test_an_inner_automorphism_is_freed_by_reference_counting():
    H = group_algebra(group_S3(), QQ)
    gc.disable()
    try:
        aut = inner_automorphism(H, (1, 2, 0))
        aut(H.el((1, 0, 2)))
        ref = weakref.ref(aut)
        del aut
        assert ref() is None, ref
    finally:
        gc.enable()


def test_qt_cyclic():
    qt = qt_for_cyclic(2, QQ)
    rep = Report("qt", qt.mha, 0, 0)
    qt.check(rep)
    assert rep.ok, rep.summary()
    # explicit form: (1/2)(1(x)1 + 1(x)g + g(x)1 - g(x)g)
    assert qt.r.coeff(Ten((0, 0))) == Fraction(1, 2)
    assert qt.r.coeff(Ten((1, 1))) == Fraction(-1, 2)

    qt5 = qt_for_cyclic(4, PrimeField(5))
    rep = Report("qt", qt5.mha, 0, 0)
    qt5.check(rep)
    assert rep.ok, rep.summary()

    with pytest.raises(ConstructionError):
        qt_for_cyclic(3, QQ)


def test_qt_intertwine_fails_with_a_witness_on_tuple_symbols():
    """R = R^-1 = g (x) g with g = (1, 0, 2) on grp-S3 is invertible but does
    not intertwine Delta with Delta^cop (S3 is not abelian); the witness
    names a tuple basis symbol, which must format."""
    H = build_instance("grp-S3", QQ)
    g = H.el((1, 0, 2))
    r = tensor(g, g)
    rep = Report("qt", H, 0, 0)
    QTStructure(H, r, r).check(rep)
    hit = [law for law in rep.laws if law.law == "qt-intertwine"]
    assert len(hit) == 1 and not hit[0].ok, rep.summary()
    assert hit[0].witness.startswith("a=("), hit[0].witness


def test_registry():
    for name in ["fun-Z", "fun-Dinf", "grp-S3", "grp-Z2", "grp-Zn:4",
                 "sweedler-H4", "dual:sweedler-H4", "dual:grp-Z2"]:
        inst = build_instance(name, QQ)
        assert inst.name == name
    with pytest.raises(KeyError):
        build_instance("nope", QQ)


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4", "grp-Zn:4",
                                  "dual:grp-S3", "dual:sweedler-H4"])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_one_leg_slices_equal_the_products_with_the_unit(name, field):
    """Each slice of a unital instance multiplies one leg of the coproduct;
    on every basis pair it equals the legwise product in A (x) A with the
    unit in the other leg."""
    mha = build_instance(name, field)
    alg = mha.algebra
    unit, cop, el = alg.unit, mha._coproduct, alg.el
    for a in alg.basis:
        for b in alg.basis:
            assert mha.delta_r_basis[a, b] == alg.mult_tensor(
                cop(a), tensor(unit, el(b))), (a, b)
            assert mha.delta_l_basis[a, b] == alg.mult_tensor(
                tensor(el(a), unit), cop(b)), (a, b)
            assert mha.delta_r2_basis[a, b] == alg.mult_tensor(
                cop(a), tensor(el(b), unit)), (a, b)
            assert mha.delta_l2_basis[a, b] == alg.mult_tensor(
                tensor(unit, el(a)), cop(b)), (a, b)
