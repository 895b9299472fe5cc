"""The scalar contract: over QQ a coefficient is an int, or a Fraction after
a division with a non-integral quotient; over F_p it is an int in [0, p),
reduced by the field where an Element is built (field.nonzero) or a bare
scalar is computed (field.reduce); every division goes through field.div,
so no float can ever appear."""

import ast
import glob
import os
import time
from fractions import Fraction

import pytest

import ydcheck.cli as cli
from ydcheck.fields import (QQ, PrimeField, parse_field, parse_scalar,
                            is_prime, MAX_PRIME)
from ydcheck.instances import DualHopf, IntegralData
from ydcheck.linear import Element, tensor
from ydcheck.mha import MultiplierHopfAlgebra

from test_golden import load

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ydcheck")


def test_rational_div_stays_int_when_integral():
    q = QQ.div(6, 3)
    assert type(q) is int and q == 2
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_scalars_are_ints_in_both_fields(field):
    """0 and 1 are the literals, so every scalar a field hands out that is
    integral is an int: from_int, an integral quotient, the coefficient
    pool, and the coefficients of the Elements built from them."""
    assert all(type(field.from_int(n)) is int for n in (-3, 0, 1, 7))
    assert type(field.div(6, 3)) is int and field.div(6, 3) == 2
    assert type(field.div(1, 1)) is int and field.div(1, 1) == 1
    assert all(type(c) is int for c in field.coeff_pool)
    built = (Element.basis(field, "x") + Element.basis(field, "y",
                                                       field.from_int(-2)))
    built = tensor(built, Element(field, {"z": 1, "w": field.div(4, 2)}))
    assert built.terms and all(type(c) is int for c in built.terms.values())


def test_div_by_zero_raises_in_both_fields():
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


def test_prime_div_is_multiplication_by_the_inverse():
    F = PrimeField(7)
    x = Element.basis(F, "x")
    for a in range(F.p):
        if a:
            inv = F.div(1, a)
            assert type(inv) is int and 0 < inv < 7
            assert F.reduce(inv * a) == 1
            assert x.scaled(inv).scaled(a) == x
            assert (Element.basis(F, "x", F.div(F.from_int(3), a))
                    == Element.basis(F, "x", F.from_int(3)).scaled(inv))
    # a bare product of ints is not a field product until it is reduced
    assert 3 * F.div(1, 3) == 15 and F.reduce(15) == 1


def test_one_is_a_primitive_first_root_of_unity_over_f2(tmp_path, capsys):
    F = PrimeField(2)
    assert F.primitive_root_of_unity(1) == 1
    assert F.primitive_root_of_unity(2) is None
    # the qt-coaction suite applies to Z/1 over F_2 and passes
    rc = cli.main(["check", "qt-coaction", "--instance", "grp-Zn:1",
                   "--field", "fp:2", "--samples", "3",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 0, capsys.readouterr()


def test_the_roots_of_unity_in_qq_are_one_and_minus_one():
    assert QQ.primitive_root_of_unity(1) == 1
    assert QQ.primitive_root_of_unity(2) == -1
    for n in (3, 4, 6):
        assert QQ.primitive_root_of_unity(n) is None


def test_primality_agrees_with_trial_division_below_2000():
    for n in range(-3, 2000):
        trial = n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
        assert is_prime(n) is trial, n


def test_a_large_prime_is_certified_at_once():
    t0 = time.perf_counter()
    F = parse_field("fp:%d" % (2 ** 61 - 1))
    assert time.perf_counter() - t0 < 0.1
    assert F.p == 2 ** 61 - 1


@pytest.mark.parametrize("n", [
    561, 1105,  # Carmichael numbers
    2 ** 61 + 1,  # = 3 * 768614336404564651
    # the least strong pseudoprime to the first 12 prime bases
    318665857834031151167461,
])
def test_composites_are_refused(n):
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(n)


def test_a_prime_field_too_large_to_certify_is_a_usage_error(capsys):
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(MAX_PRIME)
    assert is_prime(MAX_PRIME - 2) in (True, False)
    rc = cli.main(["check", "mha-axioms", "--instance", "grp-S3",
                   "--field", "fp:%d" % MAX_PRIME])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: cannot certify"), err


def test_the_coefficient_pool_is_read_off_p_once_per_field():
    """The nonzero elements of F_p when p <= 11, else -2, -1, 1, 2 (the QQ
    pool) reduced mod p; built with the field, never by listing it."""
    assert QQ.coeff_pool == (-2, -1, 1, 2)
    for p in (2, 3, 5, 7, 11, 13, 101, 99999999977):
        F = PrimeField(p)
        want = (range(1, p) if p <= 11
                else [F.from_int(n) for n in (-2, -1, 1, 2)])
        assert F.coeff_pool == tuple(want)


def test_a_huge_prime_field_runs_the_axioms(tmp_path):
    t0 = time.perf_counter()
    rc = cli.main(["check", "mha-axioms", "--instance", "grp-S3",
                   "--field", "fp:99999999977", "--samples", "2",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert time.perf_counter() - t0 < 2


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


def manifest_refusals():
    """(suite, instance, field name) -> None for each check cell of the
    manifest tests/golden.json that runs, and the ValueError message of each
    it refuses: the cell's last stderr line without its "error: " prefix."""
    out = {}
    for key, value in load()["cells"].items():
        argv = key.split()
        if argv[0] == "check":
            opts = dict(zip(argv[2::2], argv[3::2]))
            out[argv[1], opts["--instance"], opts["--field"]] = (
                value["stderr"].removeprefix("error: ")
                if value["exit"] == 2 else None)
    return out


def test_no_float_coefficient_in_any_suite(monkeypatch):
    """Every suite on instances that exercise integrals, the cyclic
    R-matrix, scaling pairs, infinite bases and the dual, with every
    coefficient of every Element built (tensor products and basis vectors,
    which skip __init__, included) checked for its type, and over F_5 for
    its range: 0 < c < 5 in an Element, and 0 <= c < 5 for the bare scalars
    that counit, pairing and the integral return.  A suite whose manifest
    cell is refused raises that refusal word for word; any other exception
    is a fault and fails the test."""
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
    refusals = manifest_refusals()
    for name in ("grp-Z2", "sweedler-H4", "fun-Z", "dual:grp-Z2"):
        for field in (QQ, PrimeField(5)):
            for suite in cli.SUITES:
                refusal = refusals[suite, name, field.name]
                if refusal is None:
                    cli.run_suite(suite, name, field, 1, 0)
                    continue
                with pytest.raises(ValueError) as exc:
                    cli.run_suite(suite, name, field, 1, 0)
                assert str(exc.value) == refusal
    assert seen == {int, Fraction}

    # the suites' scalars happen to stay small: sums of 4s leave [0, 5)
    # unreduced
    F5 = PrimeField(5)
    H = cli.build_instance("sweedler-H4", F5)
    dual = cli.build_instance("dual:sweedler-H4", F5)

    def fours(alg):
        return Element(F5, {s: 4 for s in alg.basis})
    H.counit(fours(H.algebra))
    dual.pairing(fours(dual.algebra), fours(H.algebra))
    IntegralData(H, {s: 4 for s in H.algebra.basis}, H.algebra.unit).phi(
        fours(H.algebra))
