"""The scalar contract: over QQ a coefficient is an int, or a Fraction after
a division with a non-integral quotient; over F_p it is a GF; every division
goes through field.div, so no float can ever appear."""

import ast
import glob
import os
from fractions import Fraction

import pytest

import ydcheck.cli as cli
from ydcheck.fields import QQ, GF, PrimeField, parse_scalar
from ydcheck.linear import Element

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
    for a in F.elements():
        if a:
            inv = F.div(F.one(), a)
            assert type(inv) is GF and inv * a == F.one()
            assert F.div(F.from_int(3), a) == F.from_int(3) * inv


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
    assert GF(3, 5) == GF(8, 5)
    assert GF(3, 5) != GF(3, 7)
    assert GF(3, 5) == 8
    with pytest.raises(ValueError):
        GF(1, 5) + GF(1, 7)


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
    coefficient of every Element built checked for its type."""
    allowed = {QQ.name: (int, Fraction), "fp:5": (GF,)}
    real_init = Element.__init__
    seen = set()

    def init(self, field, terms=None):
        real_init(self, field, terms)
        types = allowed[field.name]
        for c in self.terms.values():
            assert type(c) in types, "%r coefficient %r" % (type(c), c)
            seen.add(type(c))

    monkeypatch.setattr(Element, "__init__", init)
    for name in ("grp-Z2", "sweedler-H4", "fun-Z", "dual:grp-Z2"):
        for field in (QQ, PrimeField(5)):
            for suite in cli.SUITES:
                refusal = NOT_APPLICABLE.get((suite, name))
                if refusal is None:
                    cli.run_suite(suite, name, field, 1, 0)
                    continue
                with pytest.raises(ValueError, match=refusal):
                    cli.run_suite(suite, name, field, 1, 0)
    assert seen == {int, Fraction, GF}
