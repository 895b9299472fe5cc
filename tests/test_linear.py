from fractions import Fraction

import pytest

from ydcheck.fields import QQ, PrimeField, parse_field
from ydcheck.linear import (Element, Ten, tensor, legs, make_sym, flip,
                            apply_legs, lin_solve, kernel_basis,
                            QuotientSpace)


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
    assert f.div(f.one(), b) == f.from_int(4)
    assert (x(a) + x(f.from_int(2))).is_zero()
    assert bool(f.zero()) is False
    for zero in (f.zero(), 5, -10):
        with pytest.raises(ZeroDivisionError):
            f.div(a, zero)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_primitive_roots():
    f = PrimeField(5)
    w = f.primitive_root_of_unity(4)
    assert w is not None
    assert type(w) is int and 0 < w < 5
    assert f.reduce(w ** 4) == f.one() and f.reduce(w * w) != f.one()
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


def test_ten_is_not_a_plain_tuple():
    # group elements represented as tuples must never collide with tensors
    assert Ten((1, 2)) != (1, 2)
    assert hash(Ten((1, 2))) != hash((1, 2))
    assert legs(Ten(("a", "b"))) == ("a", "b")
    assert legs((1, 2)) == ((1, 2),)
    assert make_sym(("a",)) == "a"
    assert make_sym(("a", "b")) == Ten(("a", "b"))


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
    assert got == Element.zero(QQ)
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
    ker = kernel_basis([e("x") + e("y") + e("z"), e("x") - e("y")])
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
    for s in q.basis:
        assert q.project(q.section(Element.basis(QQ, s))) == Element.basis(QQ, s)
