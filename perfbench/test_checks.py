"""Tests of the benchmark's own output checks.  Standalone (no ydcheck):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import itertools
import json
import unittest
from types import SimpleNamespace

from checks import (check_report, parse_table, check_dimension,
                    check_associative, check_unit, check_deterministic,
                    check_control)
from worker import Ledger, run_control


def s3_table():
    """The group algebra of S3 in the dump format: basis e_g, e_g e_h =
    e_{gh}."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for g, h in itertools.product(perms, repeat=2):
        gh = tuple(g[h[x]] for x in range(3))
        table.append([index[g], index[h], [[index[gh], "1"]]])
    return {"basis": [str(p) for p in perms], "table": table}


def raw(payload):
    return json.dumps(payload).encode()


def report(ok=True, laws=None, suite="yd", instance="grp-S3", seed=4):
    if laws is None:
        laws = [{"law": "yd-compat", "ok": True}]
    return raw({"ok": ok, "laws": laws, "suite": suite,
                "instance": instance, "seed": seed})


CELL = ["check", "yd", "--instance", "grp-S3", "--samples", "2"]


class TableChecks(unittest.TestCase):

    def test_group_algebra_is_associative(self):
        table, n = parse_table(raw(s3_table()))
        self.assertEqual(n, 6)
        self.assertIsNone(check_associative(table, n))

    def test_every_single_altered_entry_is_rejected(self):
        base = s3_table()
        for pos in range(len(base["table"])):
            altered = json.loads(json.dumps(base))
            altered["table"][pos][2][0][1] = "2"
            table, n = parse_table(raw(altered))
            self.assertIsNotNone(check_associative(table, n),
                                 "entry %d altered but accepted" % pos)

    def test_group_algebra_has_a_unit(self):
        table, n = parse_table(raw(s3_table()))
        self.assertIsNone(check_unit(table, n))

    def test_degenerate_tables_are_rejected(self):
        # an empty or zeroed table is associative but has no unit
        emptied = dict(s3_table(), table=[])
        zeroed = s3_table()
        for entry in zeroed["table"]:
            entry[2][0][1] = "0"
        for payload in (emptied, zeroed):
            table, n = parse_table(raw(payload))
            self.assertIsNone(check_associative(table, n))
            self.assertIsNotNone(check_unit(table, n))

    def test_a_dropped_product_with_the_unit_is_rejected(self):
        # entry 3 is e_1 e_g for the identity 1 of S3 (index 0)
        dropped = s3_table()
        self.assertEqual(dropped["table"][3][:2], [0, 3])
        del dropped["table"][3]
        table, n = parse_table(raw(dropped))
        self.assertIsNotNone(check_unit(table, n))

    def test_rational_coefficients_are_exact(self):
        # A = Q e with e e = (1/3) e is associative; 1/3 must not round
        table, n = parse_table(raw({"basis": ["e"],
                                    "table": [[0, 0, [[0, "1/3"]]]]}))
        self.assertIsNone(check_associative(table, n))

    def test_dimension(self):
        self.assertIsNone(check_dimension(16, 4))
        self.assertIsNotNone(check_dimension(12, 4))

    def test_out_of_range_index_is_unreadable(self):
        bad = {"basis": ["e"], "table": [[0, 0, [[3, "1"]]]]}
        with self.assertRaises(ValueError):
            parse_table(raw(bad))

    def test_repeated_basis_label_is_unreadable(self):
        with self.assertRaises(ValueError):
            parse_table(raw({"basis": ["e", "e"], "table": []}))


class ReportChecks(unittest.TestCase):

    def test_good_report(self):
        self.assertIsNone(check_report(report(), 0, CELL, 4))

    def test_rejections(self):
        self.assertIsNotNone(check_report(report(), 1, CELL, 4))
        self.assertIsNotNone(check_report(report(ok=False), 0, CELL, 4))
        self.assertIsNotNone(check_report(report(laws=[]), 0, CELL, 4))
        self.assertIsNotNone(check_report(
            report(laws=[{"law": "x", "ok": False}]), 0, CELL, 4))
        self.assertIsNotNone(check_report(report(seed=5), 0, CELL, 4))
        self.assertIsNotNone(check_report(report(suite="gyd"), 0, CELL, 4))
        self.assertIsNotNone(check_report(report(instance="grp-Z2"), 0,
                                          CELL, 4))
        self.assertIsNotNone(check_report(b"{not json", 0, CELL, 4))

    def test_instance_must_match_exactly(self):
        for other in ("dual:grp-S3", "D(grp-S3)", "grp-S3 "):
            self.assertIsNotNone(check_report(report(instance=other), 0,
                                              CELL, 4), other)

    def test_dcp_report_names_the_double(self):
        cell = ["check", "dcp", "--instance", "grp-S3"]
        self.assertIsNone(check_report(
            report(suite="dcp", instance="D(grp-S3)"), 0, cell, 4))
        for other in ("grp-S3", "D(dual:grp-S3)"):
            self.assertIsNotNone(check_report(
                report(suite="dcp", instance=other), 0, cell, 4), other)


class DeterminismCheck(unittest.TestCase):

    def test_identical_bytes_pass(self):
        self.assertIsNone(check_deterministic([b"abc", b"abc", b"abc"]))

    def test_differing_bytes_are_rejected(self):
        self.assertIsNotNone(check_deterministic([b"abc", b"abc", b"abd"]))
        self.assertIsNotNone(check_deterministic([b"abc", None]))


def law(name, ok, witness=None):
    return SimpleNamespace(law=name, ok=ok, witness=witness)


class Controls(unittest.TestCase):

    def test_caught_control_is_not_a_failure(self):
        ledger = Ledger()
        rep = SimpleNamespace(laws=[law("antipode", False, "x=1")])
        ledger.op("control", check_control(rep, "antipode"))
        self.assertEqual((ledger.attempted, ledger.failed), (1, 0))

    def test_uncaught_control_counts_as_failed(self):
        ledger = Ledger()
        passing = SimpleNamespace(laws=[law("antipode", True)])
        no_witness = SimpleNamespace(laws=[law("antipode", False)])
        other_law = SimpleNamespace(laws=[law("counit", False, "x=1")])
        for rep in (passing, no_witness, other_law):
            ledger.op("control", check_control(rep, "antipode"))
        self.assertEqual((ledger.attempted, ledger.failed), (3, 3))

    def test_control_that_crashes_counts_as_failed(self):
        def crash(mha, seed):
            raise ValueError("boom")
        ledger = Ledger()
        ledger.op("control", run_control(crash, None, 0))
        self.assertEqual(ledger.failed, 1)
        self.assertIn("boom", ledger.reasons[0])


if __name__ == "__main__":
    unittest.main()
