import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ydcheck.fields import QQ, PrimeField, parse_field
from ydcheck.instances import build_instance
from ydcheck.linear import (Element, Ten, tensor, legs, make_sym, split_sym,
                            flip, apply_legs, lin_solve, kernel_basis,
                            QuotientSpace, linear, bilinear, Memo, Memo2)
from ydcheck.mha import Algebra, random_element
from ydcheck.modules import (UnitalModule, Coaction, regular_module,
                             coproduct_coaction)


def e(sym, c=1):
    return Element.basis(QQ, sym, Fraction(c))


def test_gf_arithmetic():
    f = PrimeField(5)
    a, b = f.from_int(3), f.from_int(4)
    assert f.from_int(-1) == b and f.from_int(8) == a
    x = lambda c: Element.basis(f, "x", c)  # noqa: E731
    assert x(a) + x(b) == x(f.from_int(2))
    assert x(a).scaled(b) == x(f.from_int(2))
    assert f.reduce(a * b) == f.from_int(2)
    assert f.div(a, b) == f.from_int(2)  # 3 * 4^-1 = 3*4 = 12 = 2
    assert -x(a) == x(f.from_int(2))
    assert x(a) - x(b) == x(f.from_int(4))
    assert f.div(1, b) == f.from_int(4)
    assert (x(a) + x(f.from_int(2))).is_zero()
    assert f.from_int(5) == 0 and not f.from_int(5)
    for zero in (0, 5, -10):
        with pytest.raises(ZeroDivisionError):
            f.div(a, zero)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_primitive_roots():
    f = PrimeField(5)
    w = f.primitive_root_of_unity(4)
    assert w is not None
    assert type(w) is int and 0 < w < 5
    assert f.reduce(w ** 4) == 1 and f.reduce(w * w) != 1
    assert f.primitive_root_of_unity(3) is None


def test_parse_field():
    assert parse_field("rational") is QQ
    assert parse_field("fp:7").p == 7
    with pytest.raises(ValueError):
        parse_field("real")


def test_element_basics():
    x = e("a") + e("b", 2)
    y = e("a", -1) + e("b", 3)
    assert (x + y) == e("b", 5)
    assert x - x == Element(QQ)
    assert x.scaled(Fraction(0)).is_zero()
    assert x.coeff("a") == 1 and x.coeff("zzz") == 0
    assert (-x).coeff("b") == -2
    # zero coefficients are dropped, so dict equality is vector equality
    assert (x + e("a", -1)).support() == ["b"]
    # != is the negation of ==: equal, unequal, another field, a non-Element
    assert not x != e("b", 2) + e("a")
    assert x != y
    assert x != Element(PrimeField(5), {"a": 1, "b": 2})
    assert x != x.terms and x.terms != x and x != 3 and 3 != x


def test_ten_is_not_a_plain_tuple():
    # group elements represented as tuples must never collide with tensors
    assert Ten((1, 2)) != (1, 2)
    assert hash(Ten((1, 2))) != hash((1, 2))
    assert legs(Ten(("a", "b"))) == ("a", "b")
    assert legs((1, 2)) == ((1, 2),)
    assert make_sym(("a",)) == "a"
    assert make_sym(("a", "b")) == Ten(("a", "b"))


def test_ten_hashes_and_compares_with_tuple_slots():
    assert Ten.__hash__ is tuple.__hash__
    assert Ten.__eq__ is tuple.__eq__
    assert Ten.__ne__ is tuple.__ne__


def test_ten_shows_its_legs_only():
    s = Ten(("p", 3))
    p, a = s
    assert (p, a) == ("p", 3)
    assert len(s) == 2 and list(s) == ["p", 3] and tuple(s) == ("p", 3)
    assert legs(s) == ("p", 3) and type(legs(s)) is tuple
    assert repr(s) == "('p' (x) 3)"
    assert Ten(Ten(("p", 3))) == s and Ten(["p", 3]) == s
    assert len(Ten(Ten(("p", 3)))) == 2


def test_ten_and_elements_of_tens_survive_pickle_and_deepcopy():
    s = Ten((1, Ten(("a", "b"))))
    x = Element(QQ, {s: Fraction(1, 2), Ten((2, 3)): -1})
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        assert clone(s) == s and type(clone(s)) is Ten
        assert legs(clone(s)) == (1, Ten(("a", "b")))
        assert clone(x) == x and clone(x).terms == x.terms


def test_nested_ten_keeps_inner_tens_as_legs():
    # p_(1) (x) p_(2) (x) a_(1) (x) a_(2) regrouped into the two legs
    # (p_(2), a_(1)) and (p_(1), a_(2)), each itself a Ten
    def regroup(p1, p2, a1, a2):
        return Element.basis(QQ, Ten((Ten((p2, a1)), Ten((p1, a2)))))
    p = e("p") + e("q")
    x = tensor(tensor(p, p), tensor(e("a"), e("b")))
    d = x.map_legs(regroup)
    assert len(d.terms) == 4
    for s in d.terms:
        left, right = legs(s)
        assert type(left) is Ten and type(right) is Ten
        assert len(legs(left)) == len(legs(right)) == 2


def test_ten_hash_does_not_depend_on_the_hash_seed():
    code = "from ydcheck.linear import Ten; print(hash(Ten((1, 2))))"
    hashes = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        hashes.add(proc.stdout)
    assert len(hashes) == 1


def test_an_element_owns_a_clean_dict_and_filters_any_other():
    s, t = Ten(("a", "b")), Ten(("b", "a"))
    assert Element(QQ, {s: 0, t: 1}).terms == {t: 1}
    assert Element(PrimeField(5), {s: 5, t: 7}).terms == {t: 2}
    for field, clean in ((QQ, {s: Fraction(1, 2), t: -1}),
                         (PrimeField(5), {s: 1, t: 4})):
        x = Element(field, clean)
        assert x.terms is clean and x == Element(field, dict(clean))


def test_a_first_image_with_coefficient_one_is_copied_not_shared():
    F5 = PrimeField(5)
    images = {"p": Element(F5, {"z": 3, "u": 1}),
              "q": Element(F5, {"z": 2, "w": 4})}
    x = Element(F5, {"p": 1, "q": 1})
    y = Element.basis(F5, "y")
    lin = linear(F5, images.get)
    bil = bilinear(F5, lambda s, t: images[s if t == "y" else t])
    # the sum writes 3 + 2 = 0 into the first image's "z": on a copy
    for got in (x.map_terms(images.get), lin(x), bil(x, y), bil(y, x)):
        assert got.terms == {"u": 1, "w": 4}
    assert images["p"].terms == {"z": 3, "u": 1}
    assert images["q"].terms == {"z": 2, "w": 4}
    assert lin(Element.basis(F5, "p")) is images["p"]


def test_a_symbol_read_and_an_element_read_share_one_table():
    """Memo(f)[s] and Memo2(f)[s, t] compute f once per basis symbol (pair)
    and keep it; linear and bilinear extend the table they are given, so
    whichever read comes first, f runs once and both return one object."""
    calls = []

    def f(s):
        calls.append(s)
        return e(s + "'")

    def g(s, t):
        calls.append((s, t))
        return e(s + t)

    table, table2 = Memo(f), Memo2(g)
    ext, ext2 = linear(QQ, table), bilinear(QQ, table2)
    first = table["a"]
    assert ext(e("a")) is first and table["a"] is first
    first = ext(e("b"))
    assert table["b"] is first
    first = table2["a", "b"]
    assert ext2(e("a"), e("b")) is first and table2["a", "b"] is first
    first = ext2(e("b"), e("a"))
    assert table2["b", "a"] is first
    assert calls == ["a", "b", ("a", "b"), ("b", "a")]
    # a longer sum reads the same table and adds nothing to it
    assert ext2(e("a") + e("b"), e("a")) == e("aa") + e("ba")
    assert calls == ["a", "b", ("a", "b"), ("b", "a"), ("a", "a")]
    assert set(table) == {"a", "b"} and len(table2) == 3


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "fp5"])
def test_every_structure_map_reads_its_own_table_by_symbol(field):
    """The product, the four slices, a module action and both coaction
    slices: the symbol read and the Element read of each are one object."""
    H = build_instance("sweedler-H4", field)
    alg = H.algebra
    reg = regular_module(H)
    coa = coproduct_coaction(reg)
    maps = [(alg.mult_basis, alg.mult), (H.delta_r_basis, H.delta_r),
            (H.delta_l_basis, H.delta_l), (H.delta_r2_basis, H.delta_r2),
            (H.delta_l2_basis, H.delta_l2), (reg.act_basis, reg.act),
            (coa.slice_r_basis, coa.slice_r), (coa.slice_l_basis, coa.slice_l)]
    for a in alg.basis:
        for b in alg.basis:
            for table, ext in maps:
                assert table[a, b] is ext(H.el(a), H.el(b))
                assert (a, b) in table
    # the regular action and Gamma = Delta are the product and the slices
    assert reg.act_basis["x", "g"] == alg.mult_basis["x", "g"]
    assert coa.slice_l_basis["x", "g"] == H.delta_l2_basis["g", "x"]


def test_an_object_built_from_another_map_starts_cold():
    """Each object owns the tables of the maps it was built from: warming
    one leaves another, built from a corrupted map, reading its own."""
    H = build_instance("grp-S3", QQ)
    two = QQ.from_int(2)
    reg = regular_module(H)
    coa = coproduct_coaction(reg)
    for a in H.algebra.basis:
        for b in H.algebra.basis:
            reg.act(H.el(a), H.el(b))
            coa.slice_r(H.el(a), H.el(b))
    mult = H.algebra.mult_basis
    bad_alg = Algebra(QQ, lambda a, b: mult[a, b].scaled(two),
                      H.algebra.space, unit=H.algebra.unit)
    bad_mod = UnitalModule(H, lambda a, v: reg.act_basis[a, v].scaled(two),
                           reg.space)
    bad_coa = Coaction(reg, lambda v, a: coa.slice_r_basis[v, a].scaled(two))
    for bad in (bad_alg.mult_basis, bad_mod.act_basis, bad_coa.slice_r_basis):
        assert len(bad) == 0
    for a in H.algebra.basis:
        for b in H.algebra.basis:
            assert bad_alg.mult(H.el(a), H.el(b)) == mult[a, b].scaled(two)
            assert bad_mod.act(H.el(a), H.el(b)) == reg.act_basis[a, b].scaled(two)
            assert (bad_coa.slice_r(H.el(a), H.el(b))
                    == coa.slice_r_basis[a, b].scaled(two))
    assert len(reg.act_basis) == len(coa.slice_r_basis) == 36


def test_tensor_flattens():
    x = tensor(e("a"), e("b"))
    y = tensor(x, e("c"))
    (sym,) = y.support()
    assert legs(sym) == ("a", "b", "c")
    z = tensor(e("a") + e("b"), e("c") - e("d"))
    assert z.coeff(Ten(("b", "d"))) == -1
    assert len(z.terms) == 4


def test_flip_and_apply_legs():
    x = tensor(e("a"), e("b", 2))
    assert flip(x) == tensor(e("b", 2), e("a"))
    doubled = apply_legs(x, 1, 1, lambda v: v.scaled(Fraction(3)))
    assert doubled.coeff(Ten(("a", "b"))) == 6
    # apply an arity-2 map to the middle pair of a triple
    t3 = tensor(tensor(e("a"), e("b")), e("c"))
    swapped = apply_legs(t3, 1, 2, flip)
    assert swapped == tensor(tensor(e("a"), e("c")), e("b"))


def ten(*syms, c=1):
    return Element.basis(QQ, Ten(syms), Fraction(c))


def mark(v):
    """A map on any window: each basis symbol s goes to 2*s' + s'', where
    s' and s'' tag s's legs (so the image keeps the window's arity)."""
    def image(s):
        ls = legs(s)
        return (Element.basis(QQ, make_sym(tuple(l + "'" for l in ls)), Fraction(2))
                + Element.basis(QQ, make_sym(tuple(l + "''" for l in ls))))
    return v.map_terms(image)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_legs_windows_of_an_arity4_tensor(k):
    x = ten("a", "b", "c", "d") + ten("e", "f", "g", "h", c=-3)
    for i in sorted({0, (4 - k) // 2, 4 - k}):  # first, middle, last window
        want = Element(QQ, {
            Ten(ls[:i] + tuple(l + tag for l in ls[i:i + k]) + ls[i + k:]): c * w
            for ls, c in ((legs(s), c) for s, c in x.terms.items())
            for tag, w in (("'", 2), ("''", 1))})
        got = apply_legs(x, i, k, mark)
        assert got == want, (k, i)
        assert len(got.terms) == 4


def test_apply_legs_window_changes_arity():
    # a window may map to a different number of legs: collapse the middle
    # pair of (a (x) b (x) c) to one leg, and split one leg into two
    x = ten("a", "b", "c")
    def merge(v):
        return v.map_terms(lambda s: e("".join(legs(s))))
    assert apply_legs(x, 1, 2, merge) == ten("a", "bc")
    assert apply_legs(x, 2, 1, lambda v: tensor(v, e("z"))) == ten("a", "b", "c", "z")


def test_apply_legs_module_symbol_window():
    # a module symbol of arity 2 sits in legs 0..1, followed by an A-leg;
    # a slice of the module symbol with a' splices its new A-leg right
    # after it
    x = ten("m", "n", "a", c=2) + ten("p", "q", "a")
    def slice_r(v):
        def image(s):
            m, n = legs(s)
            return ten(m, n, "a'") + ten(n, m, "a''", c=-1)
        return v.map_terms(image)
    got = apply_legs(x, 0, 2, slice_r)
    want = (ten("m", "n", "a'", "a", c=2) + ten("n", "m", "a''", "a", c=-2)
            + ten("p", "q", "a'", "a") + ten("q", "p", "a''", "a", c=-1))
    assert got == want


def test_apply_legs_cancelling_images_give_zero():
    # (a (x) b) - (a (x) c) with b and c both sent to d cancels exactly
    x = ten("a", "b") - ten("a", "c")
    got = apply_legs(x, 1, 1, lambda v: v.map_terms(lambda s: e("d")))
    assert got.is_zero()
    assert got == Element(QQ)
    assert got.terms == {}


def test_map_terms_cancel_then_reappear():
    # the running sum of "z" goes 1, 0, 2: the term cancels and then comes
    # back, and the result equals the vector built directly
    images = {"p": e("z") + e("u"), "q": e("z", -1), "r": e("z", 2) + e("u", -1)}
    x = e("p") + e("q") + e("r")
    got = x.map_terms(lambda s: images[s])
    assert got == Element(QQ, {"z": Fraction(2)})
    assert got.support() == ["z"]
    assert repr(got) == repr(e("z", 2))


def test_basis_vectors_skip_the_filter_and_other_coefficients_do_not():
    s = Ten(("a", "b"))
    assert Element.basis(PrimeField(2), s).terms == {s: 1}
    assert Element.basis(PrimeField(5), s, 5).is_zero()
    assert Element.basis(PrimeField(5), s, 7).terms == {s: 2}
    assert Element.basis(QQ, s, 0).is_zero()


def test_memoized_images_are_shared_and_never_scaled_in_place():
    F5 = PrimeField(5)
    calls = []

    def f(s):
        calls.append(s)
        return Element(F5, {s + "'": 3, "u": 1})

    def g(s, t):
        calls.append((s, t))
        return Element(F5, {s + t: 3, "u": 1})
    lin, bil = linear(F5, f), bilinear(F5, g)
    x, y = Element.basis(F5, "x"), Element.basis(F5, "y")
    img = lin(x)
    assert lin(Element.basis(F5, "x")) is img
    pair = bil(x, y)
    assert bil(Element.basis(F5, "x"), Element.basis(F5, "y")) is pair
    assert calls == ["x", ("x", "y")]
    # 2x and 4x take the accumulation loop: scaled, reduced mod 5, and the
    # shared memo entry keeps its terms
    for c, r in ((2, 1), (4, 2)):
        cx, cy = Element.basis(F5, "x", c), Element.basis(F5, "y", c)
        assert lin(cx).terms == {"x'": r, "u": c}
        assert bil(cx, y).terms == bil(x, cy).terms == {"xy": r, "u": c}
    assert img.terms == {"x'": 3, "u": 1}
    assert pair.terms == {"xy": 3, "u": 1}
    assert lin(x) is img and bil(x, y) is pair
    assert calls == ["x", ("x", "y")]
    # a sum of basis vectors is a fresh Element
    assert lin(x + y) == Element(F5, {"x'": 3, "y'": 3, "u": 2})
    assert img.terms == {"x'": 3, "u": 1}


def test_map_terms_returns_a_basis_image_and_scales_any_other():
    img = e("z", 3) + e("u")
    assert e("p").map_terms(lambda s: img) is img
    assert e("p", 2).map_terms(lambda s: img) == e("z", 6) + e("u", 2)
    assert e("p", -1).map_terms(lambda s: img) == -img
    assert img == e("z", 3) + e("u")


def test_map_legs_reads_the_legs_of_each_term():
    # a plain symbol is one leg; a Ten of arity 2 or 3 gives its legs
    assert e("a", 2).map_legs(lambda a: e(a + "'")) == e("a'", 2)
    x = ten("a", "b") + ten("c", "d", c=-3)
    assert x.map_legs(lambda p, q: ten(q, p)) == (ten("b", "a")
                                                  + ten("d", "c", c=-3))
    y = ten("a", "b", "c", c=2) + ten("d", "e", "f")
    assert y.map_legs(lambda p, q, r: e(r + q + p)) == e("cba", 2) + e("fed")


def test_map_legs_at_splits_a_module_symbol_from_the_rest():
    # at=2 on arity 3: a module symbol of arity 2, then one A-leg
    seen = []

    def f(head, rest):
        seen.append((head, rest))
        return ten(rest, "x")
    x = ten("m", "n", "a", c=2) + ten("p", "q", "b")
    assert x.map_legs(f, at=2) == ten("a", "x", c=2) + ten("b", "x")
    assert seen == [(Ten(("m", "n")), "a"), (Ten(("p", "q")), "b")]


def test_map_legs_returns_a_basis_image_and_scales_any_other():
    img = e("z", 3) + e("u")
    assert Element.basis(QQ, Ten(("p", "q"))).map_legs(lambda p, q: img) is img
    assert Element.basis(QQ, "p").map_legs(lambda p: img) is img
    assert ten("p", "q", c=2).map_legs(lambda p, q: img) == img.scaled(2)
    assert img == e("z", 3) + e("u")


def test_map_legs_cancelling_images_give_zero():
    x = ten("a", "b") - ten("a", "c")
    got = x.map_legs(lambda p, q: e("d"))
    assert got.is_zero() and got.terms == {}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_map_legs_is_map_terms_over_the_legs(field):
    """On random elements of arity 2 and 3 of grp-S3, map_legs gives the
    map_terms form it replaces, term for term and in the same order."""
    mha = build_instance("grp-S3", field)
    alg = mha.algebra
    rng = random.Random(4)

    def f(p, q):
        return mha.delta_r_basis[p, q]

    def g(head, rest):
        return tensor(Element.basis(field, rest), alg.mult_basis[head, head])
    for _ in range(20):
        a, b, c = (random_element(rng, alg) for _ in range(3))
        x2, x3 = tensor(a, b), tensor(tensor(a, b), c)
        for got, want in (
                (x2.map_legs(f), x2.map_terms(lambda s: f(*legs(s)))),
                (x3.map_legs(g, at=1),
                 x3.map_terms(lambda s: g(*split_sym(s, 1)))),
                (x3.map_legs(lambda p, q, r: f(r, p)),
                 x3.map_terms(lambda s: f(legs(s)[2], legs(s)[0])))):
            assert list(got.terms.items()) == list(want.terms.items())


def test_lin_solve():
    # x + y = 3, x - y = 1  =>  x = 2, y = 1
    rows = [e("x") + e("y"), e("x") - e("y")]
    sol = lin_solve(rows, [Fraction(3), Fraction(1)])
    assert sol == e("x", 2) + e("y", 1)
    # inconsistent
    assert lin_solve([e("x"), e("x")], [Fraction(1), Fraction(2)]) is None
    # underdetermined: free variables pinned to zero
    sol = lin_solve([e("x") + e("y")], [Fraction(4)])
    assert sol.coeff("x") + sol.coeff("y") == 4
    # over F_5 a right-hand side is read mod 5: 0 = 5 is consistent
    f = PrimeField(5)
    x = Element.basis(f, "x")
    assert lin_solve([x.scaled(3), x - x], [f.from_int(1), 5]) == x.scaled(2)


def test_kernel_basis():
    # x + y + z = 0 and x - y = 0 has a 1-dimensional kernel
    ker = kernel_basis([e("x") + e("y") + e("z"), e("x") - e("y")],
                       ["x", "y", "z"])
    assert len(ker) == 1
    v = ker[0]
    assert v.coeff("x") + v.coeff("y") + v.coeff("z") == 0
    assert v.coeff("x") == v.coeff("y")
    assert not v.is_zero()


def test_quotient_space():
    q = QuotientSpace(["a", "b", "c"], [e("a") - e("b")])
    assert q.rank == 1
    assert len(q.basis) == 2
    # a and b agree in the quotient
    assert q.project(e("a")) == q.project(e("b"))
    assert q.project(e("a") - e("b")).is_zero()
    # a quotient element is its own lift: project fixes every free symbol
    for s in q.basis:
        assert q.project(Element.basis(QQ, s)) == Element.basis(QQ, s)
    # and sends every relator to 0
    assert q.project(e("b") - e("a")).is_zero()


def per_term_apply_legs(x, i, k, f):
    """apply_legs term by term: f on each term's window, spliced in."""
    out = Element(x.field)
    for s, c in x.terms.items():
        ls = legs(s)
        img = f(Element.basis(x.field, make_sym(ls[i:i + k])))
        for si, ci in img.terms.items():
            out = out + Element.basis(
                x.field, make_sym(ls[:i] + legs(si) + ls[i + k:]), c * ci)
    return out


@pytest.mark.parametrize("i,k", [(0, 1), (1, 2), (2, 1)])
def test_apply_legs_reads_each_distinct_window_once(i, k):
    # windows [i, i+k) repeat across the terms; the image of one window
    # has one leg and another three, so the splice changes the arity
    x = (ten("a", "b", "c") + ten("d", "b", "c", c=2) + ten("a", "b", "e", c=-1)
         + ten("a", "f", "c", c=3))
    calls = []

    def f(v):
        calls.append(v)
        return v.map_terms(lambda s: e("".join(legs(s)) + "'")
                           + ten(*legs(s), "z", c=-2))
    want = per_term_apply_legs(x, i, k, f)
    windows = {legs(s)[i:i + k] for s in x.terms}
    del calls[:]
    assert apply_legs(x, i, k, f) == want
    assert len(calls) == len(windows) < len(x.terms)


def plain_sum(field, pairs):
    """The sum of c * img over (c, img) pairs, one Element addition each."""
    total = Element(field)
    for c, img in pairs:
        total = total + img.scaled(c)
    return total


F5 = PrimeField(5)
KERNEL_CASES = {
    # images that are zero: first (before a coefficient-1 copy) and later
    "empty": (QQ, {"p": 1, "q": 1, "r": Fraction(-2), "s": 3},
              {"p": Element(QQ), "q": e("z") + e("u"), "r": e("z", 3),
               "s": Element(QQ)}),
    # every term of the sum cancels, one after another
    "cancelling": (QQ, {"p": 1, "q": 1, "r": 1},
                   {"p": e("z") + e("u"), "q": e("z", -1), "r": e("u", -1)}),
    # one term with coefficient 3: 3 * 4 = 12 reduces to 2 in F_5
    "single-F5": (F5, {"p": 3}, {"p": Element(F5, {"z": 4, "u": 1})}),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_sums_equal_a_plain_reference_sum(case):
    field, coeffs, images = KERNEL_CASES[case]
    x = Element(field, dict(coeffs))
    y = Element(field, {"y": 1, "w": 2})
    weight = {"y": 1, "w": 3}

    def g(s, t):
        return images[s].scaled(weight[t])
    want = plain_sum(field, [(c, images[s]) for s, c in x.terms.items()])
    want2 = plain_sum(field, [(cx * cy, g(sx, sy))
                              for sx, cx in x.terms.items()
                              for sy, cy in y.terms.items()])
    x2 = tensor(x, Element.basis(field, "y"))
    for got in (x.map_terms(images.get), linear(field, images.get)(x),
                x.map_legs(images.get), x2.map_legs(lambda p, q: images[p])):
        assert got == want, case
    bil = bilinear(field, g)
    assert bil(x, y) == want2, case
    assert bil(x, Element.basis(field, "y")) == want, case


def test_a_single_coefficient_one_term_returns_its_image_itself():
    images = {"p": e("z", 3) + e("u"), "o": Element(QQ)}
    lin = linear(QQ, Memo(images.get))
    bil = bilinear(QQ, Memo2(lambda s, t: images[s]))
    for s in ("p", "o"):  # a nonzero image and a zero one
        x = e(s)
        for got in (x.map_terms(images.get), x.map_legs(images.get), lin(x),
                    bil(x, e("y")),
                    ten(s, "y").map_legs(lambda p, q: images[p])):
            assert got is images[s]


def test_tensor_adds_colliding_terms_of_mixed_arity():
    # a (x) (b (x) c) and (a (x) b) (x) c are one flat symbol (a, b, c)
    x = e("a", 2) + ten("a", "b", c=3)
    y = ten("b", "c", c=5) + e("c", 7)
    assert tensor(x, y) == Element(QQ, {
        Ten(("a", "b", "c")): Fraction(2 * 5 + 3 * 7),
        Ten(("a", "c")): Fraction(14), Ten(("a", "b", "b", "c")): Fraction(15)})
    # and cancel when they sum to zero
    z = tensor(x, ten("b", "c", c=3) + e("c", -2))
    assert Ten(("a", "b", "c")) not in z.terms and len(z.terms) == 2
