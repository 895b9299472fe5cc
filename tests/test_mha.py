"""Axiom suites on every core instance, plus direct oracles for the derived
inverse slice bijections and the twist operators."""

import copy
import gc
import random
import weakref

import pytest

from fractions import Fraction

from ydcheck.fields import QQ, PrimeField
from ydcheck.linear import Element, Ten, tensor, flip, apply_legs
from ydcheck.instances import (build_instance, CORE_INSTANCES, group_S3,
                               group_algebra, sweedler_h4, function_algebra,
                               group_Z)
from ydcheck.mha import (Space, Algebra, below, random_element, draws,
                         check_mha_axioms, check_braid)
from ydcheck.modules import trivial_module, regular_module
from ydcheck.modalg import counit_yd_module_algebra
from ydcheck.report import Report


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


# -- one draw primitive -----------------------------------------------------

class _BoundedRandom(random.Random):
    """A Random that raises after 1,000 getrandbits calls, so that a draw
    which never returns fails the test instead of hanging it."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 1000:
            raise RuntimeError("the draw never returned")
        return super().getrandbits(k)


def test_below_draws_the_stream_of_randrange():
    """below(rng, n) is rng.randrange(n), draw for draw, and the rewrites
    of choice and randint through it are the originals."""
    seq = "abcdefg"
    for seed in range(30):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 70):
            assert below(ours, n) == ref.randrange(n), (seed, n)
        for a, b in ((-5, 5), (-4, 4), (0, 1), (1, 4), (7, 7)):
            assert a + below(ours, b - a + 1) == ref.randint(a, b)
            assert seq[below(ours, len(seq))] == ref.choice(seq)
        assert ours.getstate() == ref.getstate()


def test_an_empty_draw_raises():
    for n in (0, -1):
        with pytest.raises(ValueError):
            below(_BoundedRandom(0), n)
    with pytest.raises(ValueError):
        Space([]).sample(_BoundedRandom(0))


def _reference_samplers():
    """The samplers of the carriers as they were written with Random's
    randint and choice, before every draw went through below."""
    finite = lambda basis: lambda rng: rng.choice(basis)  # noqa: E731
    return {
        "fun-Z": lambda basis: lambda rng: rng.randint(-5, 5),
        "fun-Dinf": lambda basis: lambda rng: (rng.randint(-4, 4),
                                               rng.randint(0, 1)),
        "grp-S3": finite,
        "sweedler-H4": finite,
    }


@pytest.mark.parametrize("name", sorted(_reference_samplers()))
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=lambda f: f.name)
def test_random_element_draws_as_randint_and_choice(name, field):
    alg = build_instance(name, field).algebra
    sample = _reference_samplers()[name](alg.basis)
    pool = field.coeff_pool
    for cap in (2, 3, 4):
        ours, ref = random.Random(cap), random.Random(cap)
        for _ in range(2000):
            terms = {}
            for _ in range(ref.randint(1, cap)):
                terms[sample(ref)] = ref.choice(pool)
            assert random_element(ours, alg, cap) == Element(field, terms)
        assert ours.getstate() == ref.getstate()


# -- one source of variables ------------------------------------------------

@pytest.mark.parametrize("name", ["grp-S3", "fun-Z", "fun-Dinf"])
def test_draws_are_the_random_element_calls_written_out(name):
    """draws reads one random_element per carrier, in the order given, at
    cap 4 for a bare carrier and at the cap of a (carrier, cap) pair."""
    mha = build_instance(name, QQ)
    alg, mod, H = mha.algebra, regular_module(mha), counit_yd_module_algebra(mha)
    for s in range(5):
        ours, ref = random.Random(s), random.Random(s)
        got = list(draws(ours, 6, alg, (mod, 3), (H.alg, 2)))
        want = [(random_element(ref, alg), random_element(ref, mod, 3),
                 random_element(ref, H.alg, 2)) for _ in range(6)]
        assert got == want
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["grp-S3", "fun-Z"])
def test_a_basis_vector_spec_draws_one_basis_symbol(name):
    alg = build_instance(name, PrimeField(5)).algebra
    ours, ref = random.Random(3), random.Random(3)
    got = list(draws(ours, 20, (alg, None), alg))
    want = [(alg.el(alg.space.sample(ref)), random_element(ref, alg))
            for _ in range(20)]
    assert got == want
    assert all(len(x.terms) == 1 for x, _ in got)
    assert ours.getstate() == ref.getstate()


def test_a_law_that_fails_on_its_first_tuple_draws_one_tuple():
    alg = build_instance("sweedler-H4", QQ).algebra
    ours, ref = random.Random(0), random.Random(0)
    checked = []

    def check(a, b):
        checked.append((a, b))
        return "a=%r b=%r" % (a, b)

    rep = Report("suite", "inst", "rational", 0, 50)
    rep.law("l", "fails at once", check, draws(ours, 50, alg, (alg, 3)))
    one = (random_element(ref, alg), random_element(ref, alg, 3))
    assert checked == [one]
    assert ours.getstate() == ref.getstate()
    assert rep.laws[0].witness == "a=%r b=%r" % one


# -- inverse T tables -------------------------------------------------------

def _inverse_t_per_pair(mha, k, a, b):
    """The inverse of T_k on a (x) b, evaluated afresh through the slices
    and the antipode of mha."""
    S, S_inv = mha.antipode, mha.antipode_inv
    if k == 1:
        return apply_legs(mha.delta_l2(S_inv(mha.el(b)), mha.el(a)), 1, 1, S)
    if k == 2:
        return apply_legs(mha.delta_r2(mha.el(b), S_inv(mha.el(a))), 0, 1, S)
    if k == 3:
        return flip(apply_legs(mha.delta_l(S(mha.el(a)), mha.el(b)), 0, 1, S_inv))
    return flip(apply_legs(mha.delta_r(mha.el(a), S(mha.el(b))), 1, 1, S_inv))


INVERSE_TS = ("inv_t1", "inv_t2", "inv_t3", "inv_t4")


@pytest.mark.parametrize("name", ["grp-S3", "sweedler-H4"])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=lambda f: f.name)
def test_inverse_ts_are_tables_of_their_per_pair_formulas(name, field):
    """On every basis pair each inverse T equals its formula and inverts
    T_k both ways; a second read returns the Element the table holds, and
    a copy.copy whose antipode is scaled by 2 reads cold tables of its own."""
    H = build_instance(name, field)
    pairs = [(a, b) for a in H.algebra.basis for b in H.algebra.basis]
    for k in (1, 2, 3, 4):
        for a, b in pairs:
            x2 = H.el(Ten((a, b)))
            img = H.inv_t(k)(x2)
            assert img == _inverse_t_per_pair(H, k, a, b), (k, a, b)
            assert H.inv_t(k)(x2) is img
            assert H.tmap(k)(img) == x2
            assert H.inv_t(k)(H.tmap(k)(x2)) == x2
    assert set(INVERSE_TS) <= set(H._twist_memo)

    bad = copy.copy(H)
    two = field.from_int(2)
    bad._antipode = lambda s: H._antipode(s).scaled(two)
    assert bad._twist_memo == {}
    every_pair = sum((H.el(Ten(p)) for p in pairs), Element(field))
    for k in (1, 2, 3, 4):
        img = bad.inv_t(k)(every_pair)
        assert img == sum((_inverse_t_per_pair(bad, k, a, b) for a, b in pairs),
                          Element(field))
        assert img != H.inv_t(k)(every_pair), k
    assert bad._twist_memo.keys() == set(INVERSE_TS)
    assert all(bad._twist_memo[n] is not H._twist_memo[n] for n in INVERSE_TS)


def test_an_instance_that_evaluated_its_inverse_ts_is_freed_by_reference_counting():
    """The inverse T tables reach their instance through a weak reference,
    as the twists' memos do."""
    gc.disable()
    try:
        H = sweedler_h4(QQ)
        x2 = tensor(H.el("x") + H.el("g"), H.el("gx"))
        for k in (1, 2, 3, 4):
            H.inv_t(k)(x2)
        assert set(INVERSE_TS) <= set(H._twist_memo)
        ref = weakref.ref(H)
        del H
        assert ref() is None, ref
    finally:
        gc.enable()
