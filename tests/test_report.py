"""The law-sampling primitive and the sub-report merge of Report: a law is
a check of its variables, run over an iterable of variable tuples."""

import pytest

from ydcheck.report import Report


def _report():
    return Report("suite", "inst", "rational", 0, 5)


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
    sub.add("x", "sx", True)
    sub.add("y", "sy", False, "w")
    sub.add("z", "sz", False, "w2")
    rep = _report()
    rep.add("first", "s0", True)
    rep.merge(sub, "tag:1")
    assert [(r.law, r.statement, r.ok, r.witness) for r in rep.laws] == [
        ("first", "s0", True, None),
        ("x[tag:1]", "sx", True, None),
        ("y[tag:1]", "sy", False, "w"),
        ("z[tag:1]", "sz", False, "w2")]
    assert [r.law for r in sub.laws] == ["x", "y", "z"]


def test_a_law_id_is_recorded_once_per_report():
    rep = _report()
    rep.add("x", "sx", True)
    with pytest.raises(ValueError, match="duplicate law id 'x'"):
        rep.add("x", "sx", False, "w")
    sub = _report()
    sub.add("y", "sy", True)
    rep.merge(sub, "a")
    with pytest.raises(ValueError, match=r"duplicate law id 'y\[a\]'"):
        rep.merge(sub, "a")
    assert [r.law for r in rep.laws] == ["x", "y[a]"]
