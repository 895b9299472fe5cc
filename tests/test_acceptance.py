"""Acceptance gate: ten criteria, each printing one PASS/FAIL line and
holding a runtime budget.  All equalities are exact over the chosen field."""

import copy
import json
import time

from ydcheck.fields import QQ, PrimeField
from ydcheck.mha import check_mha_axioms, check_braid
from ydcheck.modules import (regular_module, counit_module, coproduct_coaction,
                             Coaction)
from ydcheck.yd import (YDModule, check_yd, yd_fixtures, check_equivalence,
                        canonical_yd)
from ydcheck.gyd import (AutoPair, identity_pair, check_t_category,
                         trivial_gyd, twisted_adjoint_gyd)
from ydcheck.double import drinfeld_double, check_dcp, check_double_correspondence
from ydcheck.instances import (build_instance, CORE_INSTANCES, compute_integrals,
                               qt_for_cyclic, group_Zn, inner_automorphism,
                               h4_scaling_automorphism)
from ydcheck.modalg import (translation_module_algebra, check_qt_coaction,
                            check_comodule_algebra, regular_module_algebra,
                            check_module_algebra, adjoint_trivial_yd_module_algebra,
                            subgroup_yd_module_algebra, cyclic_subgroup_syms,
                            h_unit_ha_module, mult_ha_module, check_ha_module,
                            BalancedTensor, check_balanced_tensor,
                            check_unit_laws, check_associator)
from ydcheck.cli import main
from ydcheck.report import Report


FINITE = ["grp-Z2", "grp-S3", "sweedler-H4"]


def _gate(n, ok, detail, t, budget):
    line = "%s criterion-%d: %s [%.2fs / budget %ds]" % (
        "PASS" if ok and t < budget else "FAIL", n, detail, t, budget)
    print(line, flush=True)
    assert ok, line
    assert t < budget, line


def _laws(rep, prefix):
    got = [r for r in rep.laws if r.law.startswith(prefix)]
    return got and all(r.ok for r in got)


_SHARED = {}  # (checker, instance name) -> (report, seconds to compute it)


def _shared(check, name, samples):
    """check's report on name over QQ at seed 0, computed once: criteria 1
    and 3 share the axiom reports, criteria 4 and 5 the equivalence ones."""
    if (check, name) not in _SHARED:
        t0 = time.monotonic()
        rep = check(build_instance(name, QQ), samples=samples, seed=0)
        _SHARED[check, name] = (rep, time.monotonic() - t0)
    return _SHARED[check, name][0]


def _shared_seconds(check):
    """The time spent so far computing check's shared reports."""
    return sum(t for (c, _), (_, t) in _SHARED.items() if c is check)


def _axioms(name):
    return _shared(check_mha_axioms, name, 200)


def _equiv(name):
    return _shared(check_equivalence, name, 100)


def test_criterion_1_axioms():
    t0 = time.monotonic()
    ok = True
    for name in CORE_INSTANCES:
        ok = ok and _axioms(name).ok
    _gate(1, ok, "structure axioms, 5 instances, 200 samples each",
          time.monotonic() - t0, 10)


def test_criterion_2_braid_and_flips():
    t0 = time.monotonic()
    reps = {name: check_braid(build_instance(name, QQ), samples=200, seed=0)
            for name in CORE_INSTANCES}
    ok = all(r.ok for r in reps.values())
    ok = ok and _laws(reps["grp-S3"], "cocommutative-flip")
    ok = ok and _laws(reps["fun-Z"], "commutative-flip")
    ok = ok and _laws(reps["fun-Dinf"], "commutative-flip")
    _gate(2, ok, "braid equations on all instances; twist = flip on "
          "(co)commutative ones", time.monotonic() - t0, 15)


def test_criterion_3_twist_composition_and_round_trips():
    t0 = time.monotonic()
    # the axiom reports are shared with criterion 1: the time of those
    # computed before this test starts is added to this gate's time
    shared = _shared_seconds(check_mha_axioms)
    ok = True
    for name in CORE_INSTANCES:
        rep = _axioms(name)
        ok = ok and _laws(rep, "twist-t2-t4")
        for k in range(1, 5):
            ok = ok and _laws(rep, "t%d-bijective" % k)
    _gate(3, ok, "twist o T2 = T4 and all four canonical-map round trips",
          time.monotonic() - t0 + shared, 15)


def test_criterion_4_equivalence_round_trips():
    t0 = time.monotonic()
    ok = True
    for name in CORE_INSTANCES:
        assert len(yd_fixtures(build_instance(name, QQ))) >= 3
        rep = _equiv(name)
        ok = ok and _laws(rep, "fg-identity") and _laws(rep, "gf-identity")
    _gate(4, ok, "FG = 1 and GF = 1 on >= 3 fixtures per instance, "
          "100 samples", time.monotonic() - t0, 30)


def test_criterion_5_braided_category_laws():
    t0 = time.monotonic()
    # the equivalence reports are shared with criterion 4: the time of those
    # computed before this test starts is added to this gate's time
    shared = _shared_seconds(check_equivalence)
    ok = True
    for name in CORE_INSTANCES:
        rep = _equiv(name)
        for prefix in ("braiding-hexagon", "half-braiding-tensor",
                       "braiding-natural", "braiding-invertible",
                       "half-braiding-module-map", "half-braiding-linear"):
            ok = ok and _laws(rep, prefix)
    _gate(5, ok, "hexagon decompositions, naturality, and inverse round "
          "trips, 100 samples", time.monotonic() - t0 + shared, 30)


def test_criterion_6_crossed_category():
    t0 = time.monotonic()
    s3 = build_instance("grp-S3", QQ)
    pairs = [identity_pair(s3),
             AutoPair(inner_automorphism(s3, (1, 0, 2)),
                      inner_automorphism(s3, (1, 2, 0))),
             AutoPair(inner_automorphism(s3, (1, 2, 0)),
                      inner_automorphism(s3, (1, 0, 2)))]
    ok = check_t_category(s3, pairs, samples=100, seed=0).ok
    h4 = build_instance("sweedler-H4", QQ)
    from fractions import Fraction
    pairs = [identity_pair(h4),
             AutoPair(h4_scaling_automorphism(h4, Fraction(2)),
                      h4_scaling_automorphism(h4, Fraction(3)))]
    ok = ok and check_t_category(h4, pairs, samples=100, seed=0).ok
    _gate(6, ok, "crossed-category laws at inner pairs (symmetric group) and "
          "scaling pairs (4-dim instance), 100 samples",
          time.monotonic() - t0, 60)


def test_criterion_7_doubles_and_correspondence():
    t0 = time.monotonic()
    ok = True
    for name in FINITE:
        mha = build_instance(name, QQ)
        compute_integrals(mha).verify()  # raises at a failed equation
        rep = check_dcp(drinfeld_double(mha), samples=500, seed=0)
        ok = ok and rep.ok
        if len(mha.algebra.basis) <= 4:
            ok = ok and "exhaustive" in rep.laws[0].statement
        gyds = [trivial_gyd(mha), canonical_yd(mha)]
        ok = ok and check_double_correspondence(mha, gyds, samples=40,
                                                seed=0).ok
    h4 = build_instance("sweedler-H4", QQ)
    from fractions import Fraction
    pair = AutoPair(h4_scaling_automorphism(h4, Fraction(2)),
                    h4_scaling_automorphism(h4, Fraction(3)))
    ok = ok and check_double_correspondence(
        h4, [twisted_adjoint_gyd(h4, pair)], samples=25, seed=0).ok
    s3 = build_instance("grp-S3", QQ)
    pair = AutoPair(inner_automorphism(s3, (1, 0, 2)),
                    inner_automorphism(s3, (1, 2, 0)))
    ok = ok and check_double_correspondence(
        s3, [twisted_adjoint_gyd(s3, pair)], samples=20, seed=0).ok
    _gate(7, ok, "integrals, crossed-product associativity, and both "
          "module-correspondence round trips", time.monotonic() - t0, 60)


def test_criterion_8_module_algebras_and_monoidality():
    t0 = time.monotonic()
    f5 = PrimeField(5)
    z2 = build_instance("grp-Z2", f5)
    qt = qt_for_cyclic(2, f5, mha=z2)
    axioms = Report("qt-coaction", z2, 0, 0)
    qt.check(axioms)
    ok = axioms.ok and check_qt_coaction(translation_module_algebra(
        z2, group_Zn(2)), qt, samples=40, seed=0).ok
    s3 = build_instance("grp-S3", QQ)
    H = adjoint_trivial_yd_module_algebra(s3)
    ok = ok and check_ha_module(h_unit_ha_module(H), samples=40, seed=0).ok
    Hs = subgroup_yd_module_algebra(s3, cyclic_subgroup_syms(s3.algebra))
    M = mult_ha_module(Hs)
    ok = ok and check_balanced_tensor(BalancedTensor(M, M), samples=12,
                                      seed=0).ok
    ok = ok and check_unit_laws(M, samples=12, seed=0).ok
    U = h_unit_ha_module(Hs)
    ok = ok and check_associator(M, U, U, samples=10, seed=0).ok
    _gate(8, ok, "quasitriangular coaction pipeline, mixed-module laws, and "
          "balanced-tensor monoidality", time.monotonic() - t0, 30)


def test_criterion_9_negative_controls():
    t0 = time.monotonic()
    ok = True

    # wrong antipode: scaling S by 2 breaks only the antipode laws
    z2 = build_instance("grp-Z2", QQ)
    bad = copy.copy(z2)
    two = QQ.from_int(2)
    bad._antipode = lambda s: z2._antipode(s).scaled(two)
    rep = check_mha_axioms(bad, samples=60, seed=0)
    hit = [r for r in rep.laws if r.law.startswith("antipode")]
    ok = ok and any(not r.ok and r.witness for r in hit)
    # laws independent of S are still exercised and still hold
    clean = [r for r in rep.laws
             if r.law in ("assoc", "nondegenerate", "local-unit", "coassoc",
                          "counit")]
    ok = ok and len(clean) == 5 and all(r.ok for r in clean)

    # non-multiplicative coaction: only the multiplicativity laws break
    carrier = counit_module(z2)

    def bad_slice(v, a):
        x = z2.delta_r(z2.el(v), z2.el(a))
        return x.scaled(two) if v == 1 else x

    rep = check_comodule_algebra(z2.algebra,
                                 Coaction(carrier, bad_slice, name="bad"),
                                 samples=40, seed=0)
    bad_laws = [r for r in rep.failures()]
    ok = ok and bad_laws and all(r.witness for r in bad_laws)
    ok = ok and any(r.law == "comodalg-multiplicative" for r in bad_laws)
    ok = ok and any(r.ok for r in rep.laws)

    # regular action with the coproduct coaction is not compatible
    s3 = build_instance("grp-S3", QQ)
    mod = regular_module(s3)
    V = YDModule(mod, coproduct_coaction(mod), name="regular-bad")
    rep = check_yd(V, samples=60, seed=0)
    fails = [r for r in rep.failures() if r.law == "yd-compat"]
    ok = ok and fails and all(r.witness for r in fails)

    # regular action is not a module-algebra action
    rep = check_module_algebra(regular_module_algebra(s3), samples=40, seed=0)
    fails = [r for r in rep.failures() if r.law == "modalg-product"]
    ok = ok and fails and all(r.witness for r in fails)

    _gate(9, ok, "corrupted fixtures fail their designated law with a "
          "witness and mask nothing else", time.monotonic() - t0, 30)


def test_criterion_10_byte_deterministic_reports(tmp_path, capsys):
    t0 = time.monotonic()
    ok = True
    for suite, inst in [("mha-axioms", "grp-S3"), ("yd", "fun-Z"),
                        ("dcp", "grp-Z2")]:
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["check", suite, "--instance", inst, "--samples", "20",
                "--seed", "11"]
        ok = ok and main(args + ["--out", p1]) == 0
        ok = ok and main(args + ["--out", p2]) == 0
        b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
        ok = ok and b1 == b2
        ok = ok and "timestamp" not in json.loads(b1)
    capsys.readouterr()
    _gate(10, ok, "identical configurations produce byte-identical reports",
          time.monotonic() - t0, 30)
