"""Module extension to multipliers, the extended module's rho maps and
comodule slice laws, with independent oracles on K(Z) (pointwise) and group
algebras (grouplike)."""

from fractions import Fraction

import pytest

from ydcheck.fields import QQ
from ydcheck.linear import Element, tensor, legs
from ydcheck.instances import build_instance, CORE_INSTANCES
from ydcheck import modules
from ydcheck.modules import (UnitalModule, regular_module, trivial_module,
                             counit_module, adjoint_module,
                             coproduct_coaction, trivial_coaction, Coaction,
                             check_comodule,
                             finite_dim_inclusion, check_extended_modules)
from ydcheck.yd import YDModule, check_yd, yd_fixtures, yd_tensor


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_extended_module_suite(name):
    mha = build_instance(name, QQ)
    rep = check_extended_modules(mha, samples=25, seed=5)
    assert rep.ok, rep.summary()


def test_extension_and_rho_pointwise_on_kz():
    A = build_instance("fun-Z", QQ)
    mod = regular_module(A)
    x = A.el(0) + A.el(7, Fraction(2))
    # the all-ones multiplier acts through the local unit, fixing x
    assert mod.act(mod.local_unit([x]), x) == x
    # a genuine element of A acts as itself: (delta_7 e).x = delta_7 x
    f = A.el(7)
    assert mod.act(A.algebra.mult(f, mod.local_unit([x])), x) == \
        mod.act(f, x) == A.el(7, Fraction(2))
    # rho_{delta_0}(delta_n) = delta_n delta_0 = [n=0] delta_0
    assert mod.act(A.el(0), A.el(0)) == A.el(0)
    assert mod.act(A.el(3), A.el(0)).is_zero()
    assert mod.act(A.el(2), Element(QQ)).is_zero()


def test_a_local_unit_that_drops_a_symbol_fails_extension_and_rho(
        monkeypatch):
    """On K(Z), a local unit rule that leaves out the least symbol of the
    support fixes no x with that symbol: 1.x = x fails, and a one-term x
    is killed by its local unit, so rho_x vanishes there."""
    real = modules.regular_module

    def dropping(mha):
        mod = real(mha)

        def local_unit(velems, aelems):
            e = mod.local_unit(velems, aelems)
            return Element(QQ, {s: c for s, c in e.terms.items()
                                if s != min(e.terms)})
        return UnitalModule(mha, lambda a, v: mod.act_basis[a, v], mod.space,
                            local_unit=local_unit, name=mod.name)
    A = build_instance("fun-Z", QQ)
    assert check_extended_modules(A, samples=40, seed=0).ok
    monkeypatch.setattr(modules, "regular_module", dropping)
    rep = check_extended_modules(A, samples=40, seed=0)
    failed = {r.law: r.witness for r in rep.failures()}
    assert set(failed) == {"extend-action", "rho-injective"}, rep.summary()
    assert failed["extend-action"].startswith("x=")
    assert failed["rho-injective"].endswith("killed by its local unit")


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_coproduct_coaction_is_comodule(name):
    mha = build_instance(name, QQ)
    coa = coproduct_coaction(regular_module(mha))
    rep = check_comodule(coa, samples=20, seed=3)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_trivial_coaction_is_comodule(name):
    mha = build_instance(name, QQ)
    coa = trivial_coaction(trivial_module(mha))
    rep = check_comodule(coa, samples=15, seed=3)
    assert rep.ok, rep.summary()


def test_corrupted_coaction_fails_coassociativity():
    # sliceR(v, a) = v (x) a*a breaks the module-map and coassociativity laws
    mha = build_instance("grp-S3", QQ)
    mod = regular_module(mha)
    alg = mha.algebra

    def bad(v, a):
        return tensor(mod.el(v), alg.mult(alg.el(a), alg.el(a)))

    rep = check_comodule(Coaction(mod, bad, name="bad"), samples=20, seed=3)
    assert not rep.ok
    failed = {r.law for r in rep.failures()}
    assert "coaction-coassoc" in failed or "coaction-module-map" in failed
    for r in rep.failures():
        assert r.witness  # every failure carries a rendered witness


def test_finite_dim_inclusion_grouplike():
    mha = build_instance("grp-S3", QQ)
    rep = finite_dim_inclusion(coproduct_coaction(regular_module(mha)))
    assert rep.ok, rep.summary()


def test_finite_dim_inclusion_trivial():
    mha = build_instance("fun-Z", QQ)
    rep = finite_dim_inclusion(trivial_coaction(trivial_module(mha)))
    assert rep.ok, rep.summary()


def test_finite_dim_inclusion_rejects_infinite_carrier():
    mha = build_instance("fun-Z", QQ)
    rep = finite_dim_inclusion(coproduct_coaction(regular_module(mha)))
    assert not rep.ok


def test_counit_module_local_units():
    # non-unital instance, counit action: the local unit must both absorb
    # the algebra elements and have counit one
    A = build_instance("fun-Dinf", QQ)
    mod = counit_module(A)
    v = A.el((2, 1))
    a = A.el((3, 0), Fraction(2))
    e = mod.local_unit([v], [a])
    assert mod.act(e, v) == v
    assert A.algebra.mult(e, a) == a and A.algebra.mult(a, e) == a


def test_adjoint_module_on_sweedler():
    # a.v = a_(2) v S^-1(a_(1)); on grouplikes this is conjugation
    H = build_instance("sweedler-H4", QQ)
    mod = adjoint_module(H)
    g, x = H.el("g"), H.el("x")
    assert mod.act(g, x) == H.algebra.mult(H.algebra.mult(g, x), g)
    # x . g = x_(2) g S^-1(x_(1)) with Delta(x) = x(x)1 + g(x)x:
    #   1 * g * S^-1(x) = g(gx) = x,  and  x * g * S^-1(g) = xgg = x
    assert mod.act(x, g) == H.el("x", Fraction(2))


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4"])
def test_comodule_laws_on_every_yd_fixture(name):
    # yd_tensor fixtures carry module symbols of arity 2, so every checker
    # must split V (x) A symbols by the module's arity
    mha = build_instance(name, QQ)
    fixtures = yd_fixtures(mha)
    assert any(V.module.arity == 2 for V in fixtures)
    for V in fixtures:
        rep = check_comodule(V.coaction, samples=10, seed=1)
        assert rep.ok, rep.summary()


def test_corrupted_tensor_coaction_fails_comodule_laws():
    mha = build_instance("grp-S3", QQ)
    V = yd_tensor(*yd_fixtures(mha)[:2])
    assert V.module.arity == 2
    good = V.coaction
    two = QQ.from_int(2)
    bad = Coaction(V.module,
                   lambda v, a: good.slice_r(V.module.el(v), mha.el(a)).scaled(two),
                   lambda v, a: good.slice_l(V.module.el(v), mha.el(a)),
                   name="bad")
    rep = check_comodule(bad, samples=10, seed=1)
    assert not rep.ok
    for r in rep.failures():
        assert r.witness
    assert "coaction-counit" in {r.law for r in rep.failures()}


def _coadjoint_coaction(mod):
    """Gamma(v) = v_(2) (x) v_(3) S^-1(v_(1)) on a module whose carrier is a
    unital instance A; with the regular action this is a YD module."""
    H = mod.mha
    alg = H.algebra

    def gamma(v):
        out = Element(H.field)
        for s, c in H.sweedler(H.el(v), 3).terms.items():
            v1, v2, v3 = legs(s)
            out = out + tensor(H.el(v2), alg.mult(
                H.el(v3), H.antipode_inv(H.el(v1)))).scaled(c)
        return out

    return Coaction(
        mod,
        lambda v, a: alg.mult_tensor(gamma(v), tensor(alg.unit, H.el(a))),
        lambda v, a: alg.mult_tensor(tensor(alg.unit, H.el(a)), gamma(v)),
        name="coadjoint")


def test_module_memo_is_not_shared_between_modules():
    """Negative control in the style of acceptance criterion 9: warm the
    regular action on every basis pair, then build a second module on the
    same instance with one basis image scaled by 2.  The memoized images of
    the first must not mask the corruption of the second."""
    H = build_instance("sweedler-H4", QQ)
    reg = regular_module(H)
    for a in H.algebra.basis:
        for v in H.algebra.basis:
            assert reg.act(H.el(a), H.el(v)) == H.algebra.mult(H.el(a), H.el(v))
    good = YDModule(reg, _coadjoint_coaction(reg), name="regular-coadjoint")
    assert check_yd(good, samples=20, seed=0).ok

    two = QQ.from_int(2)

    def bad_act(a, v):
        img = H.algebra.mult(H.el(a), H.el(v))
        return img.scaled(two) if (a, v) == ("x", "g") else img

    mod = UnitalModule(H, bad_act, H.algebra.space, name="regular-bad")
    bad = YDModule(mod, _coadjoint_coaction(mod), name="regular-bad")
    rep = check_yd(bad, samples=20, seed=0)
    hit = [r for r in rep.laws if r.law == "yd-compat"]
    assert len(hit) == 1 and not hit[0].ok and hit[0].witness, rep.summary()
