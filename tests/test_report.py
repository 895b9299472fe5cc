"""The law-sampling primitive and the sub-report merge of Report: a law is
a check of its variables, run over an iterable of variable tuples drawn
from the report's own seeded stream; an equation law's check is built by
equal, which renders the one witness format."""

import random

import pytest

from ydcheck.fields import QQ
from ydcheck.instances import build_instance
from ydcheck.mha import draws
from ydcheck.modules import regular_module
from ydcheck.report import Report, equal


def _report():
    return Report("suite", build_instance("grp-Z2", QQ), 0, 5)


def test_a_report_reads_its_subject_and_draws_from_its_seed():
    A = build_instance("sweedler-H4", QQ)
    alg, mod = A.algebra, regular_module(A)
    rep = Report("s", A, 7, 5)
    assert (rep.suite, rep.instance, rep.field_name, rep.seed,
            rep.samples) == ("s", "sweedler-H4", "rational", 7, 5)
    got = list(rep.draws(alg, (mod, 3)))
    assert len(got) == 5
    assert got == list(draws(random.Random(7), 5, alg, (mod, 3)))
    # n overrides samples, and n=0 draws nothing at all
    state = rep.rng.getstate()
    assert list(rep.draws(alg, n=0)) == []
    assert rep.rng.getstate() == state
    assert len(list(rep.draws(alg, n=2))) == 2


def _counting(n):
    """Variable tuples (i, i * i) for i < n, logging each one drawn."""
    drawn = []

    def samples():
        for i in range(n):
            drawn.append(i)
            yield i, i * i

    return drawn, samples()


def _failing_at(results):
    """A check of two variables that returns results[i] on tuple i and
    logs the variables it was passed."""
    seen = []

    def check(i, sq):
        seen.append((i, sq))
        return results[i]

    return seen, check


def test_first_witness_is_recorded_and_ends_the_stream():
    rep = _report()
    drawn, samples = _counting(5)
    seen, check = _failing_at([None, "first", None, "second", "third"])
    rep.law("l", "statement", check, samples)
    # the check takes each tuple as its variables, and no tuple is drawn
    # after the first witness
    assert seen == [(0, 0), (1, 1)]
    assert drawn == [0, 1]
    (r,) = rep.laws
    assert (r.law, r.statement, r.ok, r.witness) == ("l", "statement", False,
                                                     "first")


def test_a_passing_stream_is_consumed_in_full():
    rep = _report()
    drawn, samples = _counting(7)
    seen, check = _failing_at([None] * 7)
    rep.law("l", "statement", check, samples)
    assert drawn == list(range(7))
    assert seen == [(i, i * i) for i in range(7)]
    (r,) = rep.laws
    assert r.ok and r.witness is None
    assert "witness" not in r.as_dict()


def test_an_empty_stream_passes():
    rep = _report()

    def never(*variables):
        raise AssertionError("checked with no variables drawn")

    rep.law("l", "statement", never, iter(()))
    assert rep.laws[0].ok and rep.laws[0].witness is None


def test_law_group_keeps_each_first_witness_and_stops_when_all_failed():
    rep = _report()
    drawn = []
    calls = {"a": [], "b": [], "c": []}

    def law(name, fails_at):
        def check(i, label):
            calls[name].append(i)
            return "%s@%s" % (name, label) if i in fails_at else None
        return (name, "statement " + name, check)

    def samples():
        for i in range(10):
            drawn.append(i)
            yield i, "s%d" % i

    rep.law_group([law("a", {1, 2}), law("b", {4, 6}), law("c", {3})],
                  samples())
    # every law fails by sample 4, so sample 5 is never drawn
    assert drawn == [0, 1, 2, 3, 4]
    # a failed law is not evaluated again
    assert calls == {"a": [0, 1], "b": [0, 1, 2, 3, 4], "c": [0, 1, 2, 3]}
    assert [(r.law, r.statement, r.ok, r.witness) for r in rep.laws] == [
        ("a", "statement a", False, "a@s1"),
        ("b", "statement b", False, "b@s4"),
        ("c", "statement c", False, "c@s3")]


def test_law_group_runs_on_while_one_law_holds():
    rep = _report()
    drawn = []

    def samples():
        for i in range(6):
            drawn.append(i)
            yield (i,)

    rep.law_group([("a", "sa", lambda i: "a@%d" % i if i == 0 else None),
                   ("b", "sb", lambda i: None)], samples())
    assert drawn == list(range(6))
    assert [(r.ok, r.witness) for r in rep.laws] == [(False, "a@0"),
                                                     (True, None)]


def test_merge_tags_ids_and_keeps_order_and_fields():
    sub = _report()
    sub.add("x", "sx")
    sub.add("y", "sy", "w")
    sub.add("z", "sz", "w2")
    rep = _report()
    rep.add("first", "s0")
    rep.merge(sub, "tag:1")
    assert [(r.law, r.statement, r.ok, r.witness) for r in rep.laws] == [
        ("first", "s0", True, None),
        ("x[tag:1]", "sx", True, None),
        ("y[tag:1]", "sy", False, "w"),
        ("z[tag:1]", "sz", False, "w2")]
    assert [r.law for r in sub.laws] == ["x", "y", "z"]


def test_a_law_id_is_recorded_once_per_report():
    rep = _report()
    rep.add("x", "sx")
    with pytest.raises(ValueError, match="duplicate law id 'x'"):
        rep.add("x", "sx", "w")
    sub = _report()
    sub.add("y", "sy")
    rep.merge(sub, "a")
    with pytest.raises(ValueError, match=r"duplicate law id 'y\[a\]'"):
        rep.merge(sub, "a")
    assert [r.law for r in rep.laws] == ["x", "y[a]"]


def test_equal_names_the_variables_by_the_first_side():
    def lhs(a, b):
        return a + b
    # the second side's parameter names play no part in the witness
    check = equal(lhs, lambda x, y: x * y)
    assert check(2, 2) is None
    assert check(1, 3) == "a=1 ; b=3 ; lhs = 4 ; rhs = 3"
    check = equal(lambda v, w: [v, w], lambda v, w: [w, v])
    assert check("p", "q") == ("v='p' ; w='q' ; lhs = ['p', 'q'] ; "
                               "rhs = ['q', 'p']")
    with pytest.raises(ValueError, match="lhs, rhs pairs"):
        equal(lhs)


def test_equal_tries_its_equations_in_order_and_stops_at_the_first_failure():
    evaluated = []

    def side(name, value):
        def f(a):
            evaluated.append(name)
            return value(a)
        return f

    check = equal(side("l1", abs), side("r1", abs),
                  side("l2", lambda a: a), side("r2", lambda a: -a),
                  side("l3", lambda a: a), side("r3", lambda a: a + 1))
    assert check(0) == "equation 3 ; a=0 ; lhs = 0 ; rhs = 1"
    assert evaluated == ["l1", "r1", "l2", "r2", "l3", "r3"]
    evaluated.clear()
    # no side after the first failing equation is evaluated
    assert check(2) == "equation 2 ; a=2 ; lhs = 2 ; rhs = -2"
    assert evaluated == ["l1", "r1", "l2", "r2"]


def test_equal_without_variables_renders_the_report_check_witness():
    rep = _report()
    rep.check("c", "sc", [1], [2])
    rep.law("l", "sl", equal(lambda: [1], lambda: [2]), [()])
    assert rep.laws[0].witness == rep.laws[1].witness == "lhs = [1] ; rhs = [2]"
    assert equal(lambda: 1, lambda: 1)() is None
