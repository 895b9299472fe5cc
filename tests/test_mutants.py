"""Mutation pin: an antipode x3 copy of sweedler-H4 over QQ, run through
every suite that catches it, must fail exactly the laws listed here, each
with a witness.

A sampled law that forgets to return its witness passes on every input; it
would drop out of these lists.  The lists were recorded from the suites as
they stood before the sampling loops moved into Report.law, and the order
of the ids is the report order.  The ids have since gained the tags that
make them unique in a report ([modalg], [yd], [tensor]); the laws are the
same.  extended-modules, comodule and dcp pass under this mutant, so this
pin does not cover them.

Over F_p, scaling the antipode by k is seen by `twist-invertible` only
through k^4, the factor the round trip script_t_inv o script_t picks up, so
an antipode x k copy is an equivalent mutant of the braid suite when
k^4 = 1 mod p.  Those are named in EQUIVALENT and pinned to pass, so the
blind spot stays visible; the same k over a prime where k^4 != 1 is pinned
to fail.
"""

import copy

import pytest

import ydcheck.cli as cli
from ydcheck.fields import QQ, PrimeField, parse_field

EXPECTED = {
    "mha-axioms": [
        "antipode", "antipode-bijective", "t1-bijective", "t2-bijective",
        "t3-bijective", "t4-bijective", "twist-t2-t4", "antipode-antihom"],
    "braid": ["twist-invertible"],
    "yd": [
        "yd-compat[sweedler-H4:yd-trivial]",
        "yd-compat[sweedler-H4:adjoint:yd]",
        "yd-compat[sweedler-H4:adjoint:yd(x)sweedler-H4:yd-trivial]",
        "yd-compat[sweedler-H4:yd-trivial(x)sweedler-H4:adjoint:yd]"],
    "centre-equivalence": [
        "braiding-invertible[sweedler-H4:yd-trivial]",
        "braiding-invertible[sweedler-H4:adjoint:yd]",
        "braiding-invertible[sweedler-H4:adjoint:yd(x)sweedler-H4:yd-trivial]",
        "braiding-invertible[sweedler-H4:yd-trivial(x)sweedler-H4:adjoint:yd]"],
    "gyd": [
        "gyd-compat[sweedler-H4:gyd-trivial@(id,id)@0]",
        "gyd-compat[sweedler-H4:tw-adjoint@(i,i)@0]",
        "gyd-compat[sweedler-H4:tw-adjoint@(scale:2,scale:3)@1]",
        "gyd-compat[sweedler-H4:tw-adjoint@(scale:3,scale:2)@2]"],
    "t-category": [
        "gyd-compat[sweedler-H4:tw-adjoint@(scale:2,scale:3)]",
        "gyd-compat[sweedler-H4:tw-adjoint@(scale:3,scale:2)]",
        "tensor-pair[sweedler-H4:tw-adjoint@(scale:2,scale:3),"
        "sweedler-H4:tw-adjoint@(scale:3,scale:2)]",
        "tensor-pair[sweedler-H4:tw-adjoint@(scale:3,scale:2),"
        "sweedler-H4:tw-adjoint@(scale:2,scale:3)]",
        "crossed-pair[(scale:2,scale:3)>sweedler-H4:tw-adjoint@(scale:2,scale:3)]",
        "crossed-pair[(scale:2,scale:3)>sweedler-H4:tw-adjoint@(scale:3,scale:2)]",
        "crossed-pair[(scale:3,scale:2)>sweedler-H4:tw-adjoint@(scale:2,scale:3)]",
        "crossed-pair[(scale:3,scale:2)>sweedler-H4:tw-adjoint@(scale:3,scale:2)]",
        "braiding-invertible[sweedler-H4:tw-adjoint@(scale:2,scale:3),"
        "sweedler-H4:tw-adjoint@(scale:3,scale:2)]",
        "braiding-invertible[sweedler-H4:tw-adjoint@(scale:3,scale:2),"
        "sweedler-H4:tw-adjoint@(scale:2,scale:3)]"],
    "double-correspondence": ["gyd-compat[regular]"],
    "module-algebra": [
        "modalg-extend-left[counit]", "modalg-extend-left[modalg][K]",
        "yd-compat[yd][K]", "modalg-extend-left[modalg][counit-trivial]",
        "yd-compat[yd][counit-trivial]"],
    "hq-monoidal": [
        "modalg-extend-left[modalg][K]", "yd-compat[yd][K]",
        "yd-compat[yd][K:sweedler-H4:yd-trivial:collapse]",
        "yd-compat[yd][tensor][K:sweedler-H4:yd-trivial:collapse]",
        "modalg-extend-left[modalg][sub]", "yd-compat[yd][sub]",
        "yd-compat[yd][sub:sweedler-H4:sub:unit-object]",
        "yd-compat[yd][tensor][sub:sweedler-H4:sub:unit-object]",
        "yd-compat[yd][sub:sweedler-H4:mult-over-sweedler-H4:sub]",
        "yd-compat[yd][tensor][sub:sweedler-H4:mult-over-sweedler-H4:sub]"],
}


# (suite, instance, field, k) -> why the antipode x k copy passes the suite
EQUIVALENT = {
    ("braid", "sweedler-H4", "fp:5", 2): "2^4 = 16 = 1 mod 5",
}


def scale_antipode(monkeypatch, k):
    real = cli.build_instance

    def build(name, field):
        mha = real(name, field)
        bad = copy.copy(mha)
        scale = field.from_int(k)
        bad._antipode = lambda s: mha._antipode(s).scaled(scale)
        return bad

    monkeypatch.setattr(cli, "build_instance", build)


@pytest.fixture
def antipode_x3(monkeypatch):
    scale_antipode(monkeypatch, 3)


@pytest.mark.parametrize("suite", sorted(EXPECTED))
def test_antipode_x3_fails_exactly_the_pinned_laws(antipode_x3, suite):
    rep = cli.run_suite(suite, "sweedler-H4", QQ, 3, 0)
    failed = rep.failures()
    assert [r.law for r in failed] == EXPECTED[suite], rep.summary()
    assert all(r.witness for r in failed), rep.summary()


def test_antipode_x2_fails_twist_invertible_over_f7(monkeypatch):
    scale_antipode(monkeypatch, 2)  # 2^4 = 16 = 2 mod 7
    rep = cli.run_suite("braid", "sweedler-H4", PrimeField(7), 3, 0)
    failed = rep.failures()
    assert [r.law for r in failed] == ["twist-invertible"], rep.summary()
    assert all(r.witness for r in failed), rep.summary()


@pytest.mark.parametrize("suite,name,field,k", sorted(EQUIVALENT))
def test_equivalent_mutants_pass(monkeypatch, suite, name, field, k):
    scale_antipode(monkeypatch, k)
    rep = cli.run_suite(suite, name, parse_field(field), 3, 0)
    assert rep.failures() == [], rep.summary()
