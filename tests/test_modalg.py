"""Module algebras, comodule algebras, quasitriangular-induced coactions,
mixed (H, A)-modules and the balanced tensor product, with hand oracles on
small group algebras."""

import gc
import weakref

import pytest

from ydcheck.fields import QQ, PrimeField
import ydcheck.modalg as modalg
from ydcheck.linear import tensor
from ydcheck.instances import (build_instance, group_S3, group_Zn,
                               QTStructure, qt_for_cyclic, CORE_INSTANCES)
from ydcheck.modules import (UnitalModule, counit_module, coproduct_coaction,
                             Coaction)
from ydcheck.yd import trivial_yd, canonical_yd
from ydcheck.modalg import (counit_module_algebra, regular_module_algebra,
                            translation_module_algebra, check_module_algebra,
                            check_comodule_algebra, check_a_commutative,
                            check_yd_module_algebra, trivial_yd_module_algebra,
                            counit_yd_module_algebra,
                            adjoint_trivial_yd_module_algebra,
                            canonical_yd_module_algebra,
                            subgroup_yd_module_algebra, cyclic_subgroup_syms,
                            coaction_from_qt, check_qt_coaction, HAModule,
                            h_unit_ha_module, mult_ha_module,
                            collapse_ha_module, check_ha_module,
                            check_h_bimodule, BalancedTensor,
                            check_balanced_tensor, check_unit_laws,
                            check_associator, check_pentagon,
                            check_module_algebra_suite, check_hq_monoidal,
                            check_qt_coaction_suite)


def test_adjoint_module_algebra_ks3_with_grouplike_oracle():
    mha = build_instance("grp-S3", QQ)
    ma = adjoint_trivial_yd_module_algebra(mha)
    rep = check_module_algebra(ma, samples=40, seed=0)
    assert rep.ok, rep.summary()
    g3 = group_S3()
    for g in g3.elements:
        for x in g3.elements[:3]:
            for y in g3.elements[:3]:
                got = ma.module.act(mha.el(g), mha.algebra.mult(mha.el(x), mha.el(y)))
                conj = g3.mul(g3.mul(g, g3.mul(x, y)), g3.inv(g))
                assert got == mha.el(conj)


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_trivial_action_is_a_module_algebra(name):
    mha = build_instance(name, QQ)
    rep = check_module_algebra(counit_module_algebra(mha), samples=15, seed=1)
    assert rep.ok, rep.summary()


def test_left_regular_action_fails_with_witness():
    mha = build_instance("grp-S3", QQ)
    rep = check_module_algebra(regular_module_algebra(mha), samples=30, seed=2)
    assert not rep.ok
    bad = [r for r in rep.failures() if r.law == "modalg-product"]
    assert bad and bad[0].witness


def test_comodule_algebra_delta_and_trivial():
    mha = build_instance("grp-S3", QQ)
    carrier = counit_module(mha)
    rep = check_comodule_algebra(mha.algebra, coproduct_coaction(carrier),
                                 samples=25, seed=3)
    assert rep.ok, rep.summary()
    from ydcheck.modules import trivial_coaction
    rep = check_comodule_algebra(mha.algebra, trivial_coaction(carrier),
                                 samples=25, seed=3)
    assert rep.ok, rep.summary()


def test_corrupted_coaction_fails_with_witness():
    mha = build_instance("grp-Z2", QQ)
    carrier = counit_module(mha)

    def bad_slice(v, a):
        x = mha.delta_r(mha.el(v), mha.el(a))
        return x.scaled(mha.field.from_int(2)) if v == 1 else x

    rep = check_comodule_algebra(mha.algebra,
                                 Coaction(carrier, bad_slice, name="bad"),
                                 samples=25, seed=4)
    assert not rep.ok
    assert all(r.witness for r in rep.failures())
    assert any(r.law == "comodalg-multiplicative" for r in rep.failures())


def test_a_commutativity_fixtures():
    z2 = build_instance("grp-Z2", QQ)
    assert check_a_commutative(trivial_yd_module_algebra(z2), seed=5).ok
    assert check_a_commutative(counit_yd_module_algebra(z2), seed=5).ok
    s3 = build_instance("grp-S3", QQ)
    H = canonical_yd_module_algebra(s3)
    rep = check_a_commutative(H, samples=40, seed=5)
    assert not rep.ok and rep.failures()[0].witness
    # still a perfectly good YD module algebra
    assert check_yd_module_algebra(H, samples=20, seed=5).ok


def test_trivial_qt_gives_trivial_coaction():
    mha = build_instance("grp-Z2", QQ)
    unit2 = tensor(mha.algebra.unit, mha.algebra.unit)
    qt = QTStructure(mha, unit2, unit2)
    ma = counit_module_algebra(mha)
    coa = coaction_from_qt(ma.module, qt)
    for h in mha.algebra.basis:
        for a in mha.algebra.basis:
            assert coa.slice_r(mha.el(h), mha.el(a)) == tensor(mha.el(h),
                                                               mha.el(a))
    rep = check_qt_coaction(ma, qt, samples=20, seed=6)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_nontrivial_qt_coaction_passes_end_to_end(field):
    mha = build_instance("grp-Z2", field)
    qt = qt_for_cyclic(2, field, mha=mha)
    ma = translation_module_algebra(mha, group_Zn(2))
    rep = check_qt_coaction(ma, qt, samples=25, seed=7)
    assert rep.ok, rep.summary()
    # the nontrivial R induces a genuinely nontrivial coaction
    coa = coaction_from_qt(ma.module, qt)
    e = mha.algebra.unit
    assert coa.slice_r(ma.module.el(0), e) != tensor(ma.module.el(0), e)


QT_AXIOMS = ["qt-invertible", "qt-invertible-2", "qt-intertwine",
             "qt-fusion-left", "qt-fusion-right"]


@pytest.mark.parametrize("name,field", [("grp-Z2", QQ),
                                        ("grp-Zn:4", PrimeField(5))])
def test_the_qt_suite_evaluates_the_axioms_of_r_once(monkeypatch, name,
                                                      field):
    """check_qt_coaction_suite builds one R and checks it under both module
    algebras: its five axioms are evaluated once, head the report untagged,
    and no sub-report lists them."""
    calls = []
    check = QTStructure.check

    def counted(qt, report):
        calls.append(qt)
        return check(qt, report)
    monkeypatch.setattr(QTStructure, "check", counted)
    mha = build_instance(name, field)
    rep = check_qt_coaction_suite(mha, samples=3, seed=2)
    assert len(calls) == 1 and rep.ok, rep.summary()
    ids = [r.law for r in rep.laws]
    assert ids[:5] == QT_AXIOMS
    assert not {law.split("[", 1)[0] for law in ids[5:]} & set(QT_AXIOMS)


def test_ha_collapse_to_plain_yd():
    mha = build_instance("grp-S3", QQ)
    H = trivial_yd_module_algebra(mha)
    M = collapse_ha_module(H, canonical_yd(mha))
    rep = check_ha_module(M, samples=20, seed=8)
    assert rep.ok, rep.summary()


def test_unit_object_over_adjoint_trivial_ks3():
    mha = build_instance("grp-S3", QQ)
    H = adjoint_trivial_yd_module_algebra(mha)
    assert check_yd_module_algebra(H, samples=20, seed=9).ok
    rep = check_ha_module(h_unit_ha_module(H), samples=20, seed=9)
    assert rep.ok, rep.summary()


def test_delta_coaction_breaks_the_mixed_coaction_order():
    # with Gamma = Delta on KS3 the mixed law's second leg m_(1)h_(1) differs
    # from the multiplicative h_(1)m_(1) on non-commuting grouplikes
    mha = build_instance("grp-S3", QQ)
    H = canonical_yd_module_algebra(mha)
    assert check_yd_module_algebra(H, samples=15, seed=10).ok
    rep = check_ha_module(h_unit_ha_module(H), samples=30, seed=10)
    assert not rep.ok
    bad = [r for r in rep.failures() if r.law == "ha-coaction-compat"]
    assert bad and bad[0].witness


def test_corrupted_h_action_fails_with_witness():
    mha = build_instance("grp-S3", QQ)
    H = adjoint_trivial_yd_module_algebra(mha)
    two = mha.field.from_int(2)
    M = HAModule(H, H.module, H.coaction,
                 lambda hs, ms: mha.algebra.mult(mha.el(hs),
                                                 mha.el(ms)).scaled(two))
    rep = check_ha_module(M, samples=20, seed=11)
    assert not rep.ok
    bad = [r for r in rep.failures() if r.law == "ha-left-module"]
    assert bad and bad[0].witness


def test_right_action_rejects_non_a_commutative():
    # m <- h = h_(0) -> (h_(1).m) needs an A-commutative H, and the
    # canonical YD module algebra on S3 is not one
    mha = build_instance("grp-S3", QQ)
    H = canonical_yd_module_algebra(mha)
    rep = check_a_commutative(h_unit_ha_module(H).H, samples=30, seed=12)
    assert not rep.ok
    assert all(r.witness for r in rep.failures())


def test_right_action_formulas_and_bimodule():
    z2 = build_instance("grp-Z2", QQ)
    H = subgroup_yd_module_algebra(z2, cyclic_subgroup_syms(z2.algebra))
    M = mult_ha_module(H)
    assert check_a_commutative(H, samples=20, seed=13).ok
    r = M.r_act
    # trivial coaction: m <- h = h -> m
    for m in M.module.basis:
        for h in H.alg.basis:
            assert r(M.module.el(m), H.alg.el(h)) \
                == M.h_act(H.alg.el(h), M.module.el(m))
    rep = check_h_bimodule(M, samples=100, seed=13)
    assert rep.ok, rep.summary()
    # H = K: m <- lambda = lambda m
    K = trivial_yd_module_algebra(z2)
    Mk = collapse_ha_module(K, trivial_yd(z2))
    lam = z2.field.from_int(3)
    assert Mk.r_act(Mk.module.el("*"), K.alg.el("*", lam)) \
        == Mk.module.el("*", lam)


def test_balanced_tensor_unit_law_dimensions_and_structure():
    s3 = build_instance("grp-S3", QQ)
    H = subgroup_yd_module_algebra(s3, cyclic_subgroup_syms(s3.algebra))
    M = mult_ha_module(H)
    T = BalancedTensor(M, h_unit_ha_module(H))
    assert len(T.quot.basis) == len(M.module.basis)
    rep = check_unit_laws(M, samples=12, seed=14)
    assert rep.ok, rep.summary()


def test_balanced_tensor_over_k_has_full_dimension():
    s3 = build_instance("grp-S3", QQ)
    K = trivial_yd_module_algebra(s3)
    M = collapse_ha_module(K, canonical_yd(s3))
    T = BalancedTensor(M, M)
    assert len(T.quot.basis) == len(M.module.basis) ** 2
    assert not T.relators


def test_balanced_tensor_relator_stability_and_laws():
    s3 = build_instance("grp-S3", QQ)
    H = subgroup_yd_module_algebra(s3, cyclic_subgroup_syms(s3.algebra))
    M = mult_ha_module(H)
    T = BalancedTensor(M, M)
    # dim KS3 (x)_{K<t>} KS3 = 6*6/2
    assert len(T.quot.basis) == 18
    rep = check_balanced_tensor(T, samples=12, seed=15)
    assert rep.ok, rep.summary()


def test_a_balanced_tensor_is_freed_by_reference_counting():
    """The descended action, coaction and H-actions close over locals, not
    over the balanced tensor that holds them, so a balanced tensor whose
    maps have been evaluated is freed as soon as it is dropped."""
    s3 = build_instance("grp-S3", QQ)
    H = subgroup_yd_module_algebra(s3, cyclic_subgroup_syms(s3.algebra))
    M = mult_ha_module(H)
    gc.disable()
    try:
        T = BalancedTensor(M, M)
        rep = check_balanced_tensor(T, samples=2, seed=15)
        assert rep.ok, rep.summary()
        ref = weakref.ref(T)
        del T, rep
        assert ref() is None, ref
    finally:
        gc.enable()


def test_associator_and_pentagon_on_small_fixture():
    z2 = build_instance("grp-Z2", QQ)
    H = subgroup_yd_module_algebra(z2, cyclic_subgroup_syms(z2.algebra))
    M = mult_ha_module(H)
    rep = check_associator(M, M, M, samples=12, seed=16)
    assert rep.ok, rep.summary()
    rep = check_pentagon(M, M, M, M, seed=16)
    assert rep.ok, rep.summary()


def test_associator_on_mixed_fixture():
    s3 = build_instance("grp-S3", QQ)
    H = subgroup_yd_module_algebra(s3, cyclic_subgroup_syms(s3.algebra))
    M = mult_ha_module(H)
    U = h_unit_ha_module(H)
    rep = check_associator(M, U, U, samples=10, seed=17)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name, syms", [
    ("fun-Z", None), ("fun-Dinf", None),
    ("grp-S3", [(0, 1, 2), (0, 2, 1)]), ("grp-Z2", [0, 1]),
    ("grp-Zn:4", [0, 1, 2, 3]), ("grp-Zn:14", [0, 2, 4, 6, 8, 10, 12]),
    ("sweedler-H4", ["1", "g"]), ("dual:sweedler-H4", None),
    ("dual:grp-Z2", None), ("dual:grp-S3", None)])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_cyclic_subgroup_syms(name, syms, field):
    """The powers of the first non-unit basis symbol that returns to the
    unit within 12 steps: none on the non-unital and dual instances (their
    unit is no single symbol), and on grp-Zn:14 the square of 1, since 1
    itself has order 14."""
    assert cyclic_subgroup_syms(build_instance(name, field).algebra) == syms


@pytest.mark.parametrize("name", CORE_INSTANCES)
def test_module_algebra_suite(name):
    mha = build_instance(name, QQ)
    rep = check_module_algebra_suite(mha, samples=10, seed=18)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name", ["grp-Z2", "grp-S3", "sweedler-H4", "fun-Z"])
def test_hq_monoidal_driver(name):
    mha = build_instance(name, QQ)
    rep = check_hq_monoidal(mha, samples=6, seed=19)
    assert rep.ok, rep.summary()


def tagged(rep, tag):
    """The laws of rep whose id ends in tag, in order, with the tag cut off:
    (law, ok, witness)."""
    return [(r.law[:-len(tag)], r.ok, r.witness) for r in rep.laws
            if r.law.endswith(tag)]


@pytest.mark.parametrize("name", ["fun-Z", "grp-S3"])
def test_a_corrupted_counit_action_fails_under_the_action_tag(name,
                                                              monkeypatch):
    """A module-algebra law reads only the action and a comodule-algebra law
    only the coaction: doubling the counit action fails modalg-product
    under [counit], and the trivial coaction's laws still pass."""
    real = modalg.counit_module

    def doubled(mha, *args):
        mod = real(mha, *args)
        return UnitalModule(mha, lambda a, v: mod.act_basis[a, v].scaled(2),
                            mod.space, local_unit=mod.local_unit,
                            name=mod.name)
    monkeypatch.setattr(modalg, "counit_module", doubled)
    # on fun-Z the product law sees the factor 2 only where eps(a) and xx'
    # are both nonzero, which 40 samples reach
    rep = check_module_algebra_suite(build_instance(name, QQ), samples=40,
                                     seed=4)
    failed = [law for law, ok, _ in tagged(rep, "[counit]") if not ok]
    assert "modalg-product" in failed
    assert tagged(rep, "[trivial]")
    assert all(ok for _, ok, _ in tagged(rep, "[trivial]"))
