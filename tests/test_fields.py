"""The scalar contract: over QQ a coefficient is an int, or a Fraction after
a division with a non-integral quotient; over F_p it is an int in [0, p),
reduced by the field where an Element is built (field.nonzero) or a bare
scalar is computed (field.reduce); every division goes through field.div,
so no float can ever appear."""

import ast
import glob
import os
from fractions import Fraction

import pytest

import ydcheck.cli as cli
from ydcheck.double import DiagonalCrossedProduct, drinfeld_double
from ydcheck.fields import QQ, PrimeField, parse_scalar
from ydcheck.instances import DualHopf, IntegralData
from ydcheck.linear import Element, tensor
from ydcheck.mha import MultiplierHopfAlgebra

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ydcheck")


def test_rational_div_stays_int_when_integral():
    q = QQ.div(6, 3)
    assert type(q) is int and q == 2
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert type(QQ.from_int(5)) is int


def test_div_by_zero_raises_in_both_fields():
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.div(F.one(), F.zero())


def test_prime_div_is_multiplication_by_the_inverse():
    F = PrimeField(7)
    x = Element.basis(F, "x")
    for a in F.elements():
        if a:
            inv = F.div(F.one(), a)
            assert type(inv) is int and 0 < inv < 7
            assert F.reduce(inv * a) == F.one()
            assert x.scaled(inv).scaled(a) == x
            assert (Element.basis(F, "x", F.div(F.from_int(3), a))
                    == Element.basis(F, "x", F.from_int(3)).scaled(inv))
    # a bare product of ints is not a field product until it is reduced
    assert 3 * F.div(1, 3) == 15 and F.reduce(15) == 1


def test_one_is_a_primitive_first_root_of_unity_over_f2(tmp_path, capsys):
    F = PrimeField(2)
    assert F.primitive_root_of_unity(1) == F.one()
    assert F.primitive_root_of_unity(2) is None
    # the qt-coaction suite applies to Z/1 over F_2 and passes
    rc = cli.main(["check", "qt-coaction", "--instance", "grp-Zn:1",
                   "--field", "fp:2", "--samples", "3",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 0, capsys.readouterr()


def test_gf_equality_fast_path_respects_the_prime():
    F5 = PrimeField(5)
    assert Element.basis(F5, "x", 3) == Element.basis(F5, "x", 8)
    assert Element(F5, {"x": 5, "y": -2}).terms == {"y": 3}
    # an equal but distinct field instance is the same field
    x5 = Element.basis(F5, "x")
    assert x5 + Element.basis(PrimeField(5), "x") == Element.basis(F5, "x", 2)
    assert x5 == Element.basis(PrimeField(5), "x")
    for other in (PrimeField(7), QQ):
        # the same terms over another field: unequal, and mixing raises
        y = Element.basis(other, "x")
        assert x5 != y and y != x5
        assert Element(F5) != Element(other) and Element(other) != Element(F5)
        for op in (Element.__add__, Element.__sub__, tensor):
            with pytest.raises(ValueError, match="mixed fields"):
                op(x5, y)
            with pytest.raises(ValueError, match="mixed fields"):
                op(y, x5)


def test_parse_scalar_reads_into_the_field():
    assert type(parse_scalar(QQ, "4/2")) is int and parse_scalar(QQ, "4/2") == 2
    assert parse_scalar(QQ, "1.5") == Fraction(3, 2)
    assert parse_scalar(QQ, "-1/3") == Fraction(-1, 3)
    F = PrimeField(5)
    assert parse_scalar(F, "3/2") == F.div(F.from_int(3), F.from_int(2))
    assert parse_scalar(F, "7") == F.from_int(2)
    for field, text in ((QQ, "1/0"), (F, "1/5"), (F, "0.2")):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(field, text)


def test_int_and_fraction_coefficients_give_the_same_element():
    a = Element(QQ, {"x": 2, "y": -1, "z": 0})
    b = Element(QQ, {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(0)})
    assert a == b and hash(a) == hash(b)
    assert a.terms == {"x": 2, "y": -1}
    assert repr(a) == repr(b)


def _divisions(path):
    tree = ast.parse(open(path).read(), filename=path)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_no_bare_division_outside_fields():
    """int / int is a float, so scalar division must go through field.div.
    The AST is walked rather than the text grepped, because docstrings
    contain ' / '."""
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = ["%s:%d" % (os.path.basename(p), line) for p in paths
             if os.path.basename(p) != "fields.py" for line in _divisions(p)]
    assert found == [], "use field.div: %s" % ", ".join(found)


# The suites that refuse an instance, with the refusal they give; any other
# exception is a fault and fails the test.
NOT_APPLICABLE = {
    ("qt-coaction", "sweedler-H4"): "cyclic group algebra",
    ("qt-coaction", "fun-Z"): "cyclic group algebra",
    ("qt-coaction", "dual:grp-Z2"): "cyclic group algebra",
    ("dcp", "fun-Z"): "finite-dimensional unital",
    ("double-correspondence", "fun-Z"): "finite-dimensional unital",
}


def test_no_float_coefficient_in_any_suite(monkeypatch):
    """Every suite on instances that exercise integrals, the cyclic
    R-matrix, scaling pairs, infinite bases and the dual, with every
    coefficient of every Element built (tensor products and basis vectors,
    which skip __init__, included) checked for its type, and over F_5 for
    its range: 0 < c < 5 in an Element, and 0 <= c < 5 for the bare scalars
    that counit, pairing and the integral return."""
    allowed = {QQ.name: (int, Fraction), "fp:5": (int,)}
    real_init = Element.__init__
    real_basis = Element.basis
    seen = set()

    def in_range(field, c, low):
        if field.name == "fp:5":
            assert type(c) is int and low <= c < 5, "F_5 scalar %r" % (c,)

    def check(x):
        types = allowed[x.field.name]
        for c in x.terms.values():
            assert type(c) in types, "%r coefficient %r" % (type(c), c)
            in_range(x.field, c, 1)
            seen.add(type(c))

    def init(self, field, terms=None):
        real_init(self, field, terms)
        check(self)

    def basis(cls, field, sym, coeff=None):
        x = real_basis(field, sym, coeff)
        check(x)
        return x

    def guard(owner, name, field_of):
        real = getattr(owner, name)

        def checked(self, *args):
            c = real(self, *args)
            in_range(field_of(self), c, 0)
            return c
        monkeypatch.setattr(owner, name, checked)

    monkeypatch.setattr(Element, "__init__", init)
    monkeypatch.setattr(Element, "basis", classmethod(basis))
    guard(MultiplierHopfAlgebra, "counit", lambda mha: mha.field)
    guard(DualHopf, "pairing", lambda dual: dual.field)
    guard(IntegralData, "phi", lambda data: data.mha.field)
    guard(DiagonalCrossedProduct, "counit", lambda dcp: dcp.field)
    for name in ("grp-Z2", "sweedler-H4", "fun-Z", "dual:grp-Z2"):
        for field in (QQ, PrimeField(5)):
            for suite in cli.SUITES:
                refusal = NOT_APPLICABLE.get((suite, name))
                if refusal is None:
                    cli.run_suite(suite, name, field, 1, 0)
                    continue
                with pytest.raises(ValueError, match=refusal):
                    cli.run_suite(suite, name, field, 1, 0)
    assert seen == {int, Fraction}

    # the suites' scalars happen to stay small, and only the smash product
    # takes the crossed product's counit: sums of 4s leave [0, 5) unreduced
    F5 = PrimeField(5)
    H = cli.build_instance("sweedler-H4", F5)
    dual = cli.build_instance("dual:sweedler-H4", F5)
    D = drinfeld_double(H)

    def fours(alg):
        return Element(F5, {s: 4 for s in alg.basis})
    H.counit(fours(H.algebra))
    dual.pairing(fours(dual.algebra), fours(H.algebra))
    IntegralData(H, {s: 4 for s in H.algebra.basis}, H.algebra.unit).phi(
        fours(H.algebra))
    D.counit(fours(D.algebra))
