"""Axiom suites on every core instance, plus direct oracles for the derived
inverse slice bijections and the twist operators."""

import copy
import gc
import weakref

import pytest

from fractions import Fraction

from ydcheck.fields import QQ, PrimeField
from ydcheck.linear import Element, Ten, tensor, flip
from ydcheck.instances import (build_instance, CORE_INSTANCES, group_S3,
                               group_algebra, sweedler_h4, function_algebra,
                               group_Z)
from ydcheck.mha import Space, Algebra, check_mha_axioms, check_braid
from ydcheck.modules import trivial_module


FIELDS = [QQ, PrimeField(7)]


@pytest.mark.parametrize("name", CORE_INSTANCES + ["dual:sweedler-H4"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_axiom_suite(name, field):
    mha = build_instance(name, field)
    rep = check_mha_axioms(mha, samples=25, seed=7)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_braid_suite(name):
    mha = build_instance(name, QQ)
    rep = check_braid(mha, samples=12, seed=7)
    assert rep.ok, rep.summary()


def test_t_maps_on_grouplikes():
    """Oracle: on a group algebra every T_k and its inverse has a closed
    form on basis tensors g (x) h."""
    g = group_S3()
    A = group_algebra(g, QQ)

    def t(a, b):
        return tensor(A.el(a), A.el(b))

    for a in g.elements:
        for b in g.elements:
            # T1(a (x) b) = a (x) ab; T1^-1(a (x) b) = a (x) a^-1 b
            assert A.t1(t(a, b)) == t(a, g.mul(a, b))
            assert A.inv_t1(t(a, b)) == t(a, g.mul(g.inv(a), b))
            # T2(a (x) b) = ab (x) b; T2^-1(a (x) b) = a b^-1 (x) b
            assert A.t2(t(a, b)) == t(g.mul(a, b), b)
            assert A.inv_t2(t(a, b)) == t(g.mul(a, g.inv(b)), b)
            # T3(a (x) b) = ab (x) a; T3^-1(a (x) b) = b (x) b^-1 a
            assert A.t3(t(a, b)) == t(g.mul(a, b), a)
            assert A.inv_t3(t(a, b)) == t(b, g.mul(g.inv(b), a))
            # T4(a (x) b) = b (x) ab; T4^-1(a (x) b) = b a^-1 (x) a
            assert A.t4(t(a, b)) == t(b, g.mul(a, b))
            assert A.inv_t4(t(a, b)) == t(g.mul(b, g.inv(a)), a)
            # cocommutative: both twists are conjugation-flavored flips;
            # here scriptT(a (x) b) = b (x) a exactly
            assert A.script_t(t(a, b)) == t(b, a)
            # scriptT'(a (x) b) = b (x) b^-1 a b
            assert A.script_t_prime(t(a, b)) == t(b, g.mul(g.mul(g.inv(b), a), b))


def test_t_maps_on_functions():
    """Oracle on K(Z): closed forms for the slices of delta_g (x) delta_h."""
    A = function_algebra(group_Z(), QQ)

    def d(a, b):
        return tensor(A.el(a), A.el(b))

    for a in range(-3, 4):
        for b in range(-3, 4):
            assert A.t1(d(a, b)) == d(a - b, b)
            assert A.inv_t1(d(a, b)) == d(a + b, b)
            assert A.t2(d(a, b)) == d(a, b - a)
            assert A.t3(d(a, b)) == d(b, a - b)
            assert A.t4(d(a, b)) == d(b - a, a)
            # commutative: the right twist is the plain flip
            assert A.script_t_prime(d(a, b)) == d(b, a)
            # scriptT(delta_a (x) delta_b) = delta_b (x) delta_a here too
            # (K(Z) is also cocommutative since Z is abelian)
            assert A.script_t(d(a, b)) == d(b, a)


def test_twists_on_sweedler():
    """Hand-expanded twist values on the 4-dimensional instance, where
    neither commutativity nor cocommutativity collapses anything."""
    H = sweedler_h4(QQ)
    one, g, x, gx = H.el("1"), H.el("g"), H.el("x"), H.el("gx")

    # scriptT(a (x) b) = b_(2) (x) a S(b_(1)) b_(3).
    # For b grouplike (b = g): b_(1)=b_(2)=b_(3)=g and S(g)=g, so
    # scriptT(a (x) g) = g (x) g a g... careful: a S(g) g = a.  So g (x) a.
    for a in (one, g, x, gx):
        assert H.script_t(tensor(a, g)) == tensor(g, a)
    # For a = 1: scriptT(1 (x) b) = b_(2) (x) S(b_(1)) b_(3).
    # b = x: Delta2(x) = x(x)1(x)1 + g(x)x(x)1 + g(x)g(x)x, so
    # sum = 1 (x) S(x) + x (x) S(g) + x... compute: terms
    #   b1=x,b2=1,b3=1 -> 1 (x) S(x)*1 = 1 (x) (-gx)
    #   b1=g,b2=x,b3=1 -> x (x) S(g)*1 = x (x) g
    #   b1=g,b2=g,b3=x -> g (x) S(g)*x = g (x) gx
    expect = tensor(one, gx.scaled(Fraction(-1))) + tensor(x, g) + tensor(g, gx)
    assert H.script_t(tensor(one, x)) == expect
    # and the inverse really inverts it
    assert H.script_t_inv(expect) == tensor(one, x)

    # scriptT'(a (x) b) = b_(1) (x) S(b_(2)) a b_(3), a = 1, b = x:
    #   b1=x,b2=1,b3=1 -> x (x) 1
    #   b1=g,b2=x,b3=1 -> g (x) S(x) = g (x) (-gx)
    #   b1=g,b2=g,b3=x -> g (x) gx
    expect = tensor(x, one) + tensor(g, gx.scaled(Fraction(-1))) + tensor(g, gx)
    assert H.script_t_prime(tensor(one, x)) == expect
    assert H.script_t_prime_inv(expect) == tensor(one, x)


def test_twist_memo_is_not_shared_with_a_copy():
    """Negative control in the style of acceptance criterion 9: warm every
    twist operator on all basis pairs, then corrupt the antipode of a
    copy.copy.  The twist laws must fail on the copy with a witness, so the
    original's memoized basis-pair images cannot mask the corruption."""
    H = sweedler_h4(QQ)
    all_pairs = Element(QQ)
    for a in H.algebra.basis:
        for b in H.algebra.basis:
            all_pairs = all_pairs + tensor(H.el(a), H.el(b))
    for op in (H.script_t, H.script_t_inv, H.script_t_prime,
               H.script_t_prime_inv):
        op(all_pairs)
    assert check_braid(H, samples=20, seed=0).ok

    bad = copy.copy(H)
    two = QQ.from_int(2)
    bad._antipode = lambda s: H._antipode(s).scaled(two)
    for rep, law in ((check_braid(bad, samples=20, seed=0), "twist-invertible"),
                     (check_mha_axioms(bad, samples=20, seed=0), "twist-t2-t4")):
        hit = [r for r in rep.laws if r.law == law]
        assert len(hit) == 1 and not hit[0].ok and hit[0].witness, rep.summary()


def test_multiplier_compatibility():
    from ydcheck.mha import Multiplier
    H = sweedler_h4(QQ)
    m = Multiplier.from_element(H.algebra, H.el("g") + H.el("x"))
    probe = [H.el(s) for s in H.algebra.basis]
    assert m.compatible_on(H.algebra, probe, probe)
    bad = Multiplier(left=lambda v: H.el("g"), right=lambda v: v)
    assert not bad.compatible_on(H.algebra, probe, probe)


def test_report_determinism():
    mha = build_instance("grp-S3", QQ)
    r1 = check_mha_axioms(mha, samples=10, seed=3).to_json()
    r2 = check_mha_axioms(mha, samples=10, seed=3).to_json()
    assert r1 == r2
    r3 = check_mha_axioms(mha, samples=10, seed=4).to_json()
    assert r1 != r3  # seed is recorded in the report


def test_carriers_are_freed_by_reference_counting():
    """An Algebra on a finite basis, the trivial module (whose finite
    carrier is sampled uniformly) and a finite group hold no reference
    cycle, so each is freed as soon as it is dropped."""
    mha = group_algebra(group_S3(), QQ)
    builds = [
        lambda: Algebra(QQ, lambda a, b: Element.basis(QQ, "*"), Space(["*"])),
        lambda: trivial_module(mha),
        group_S3,
    ]
    gc.disable()
    try:
        for build in builds:
            ref = weakref.ref(build())
            assert ref() is None, ref
    finally:
        gc.enable()


def test_an_instance_that_evaluated_its_twists_is_freed_by_reference_counting():
    """The memoized twists reach their instance through a weak reference,
    so an instance that has evaluated them is freed as soon as it is
    dropped, and a copy.copy still starts with a cold memo."""
    gc.disable()
    try:
        H = sweedler_h4(QQ)
        x2 = tensor(H.el("x") + H.el("g"), H.el("gx"))
        for name in ("script_t", "script_t_inv", "script_t_prime",
                     "script_t_prime_inv"):
            getattr(H, name)(x2)
        assert H._twist_memo
        assert copy.copy(H)._twist_memo == {}
        ref = weakref.ref(H)
        del H
        assert ref() is None, ref
    finally:
        gc.enable()
