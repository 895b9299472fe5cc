"""CLI contract: subcommands, exit codes, and byte-deterministic reports."""

import json
import os
import subprocess
import sys

import pytest

from ydcheck.cli import main, SUITES
from ydcheck.instances import INSTANCE_NAMES


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_list_suites_and_instances(capsys):
    rc, out, _ = run(["list", "suites"], capsys)
    assert rc == 0
    assert out.split() == SUITES
    rc, out, _ = run(["list", "instances"], capsys)
    assert rc == 0
    assert out.split() == INSTANCE_NAMES


def test_check_writes_report_and_exits_zero(tmp_path, capsys):
    out_path = str(tmp_path / "rep.json")
    rc, out, _ = run(["check", "mha-axioms", "--instance", "grp-Z2",
                      "--samples", "25", "--out", out_path], capsys)
    assert rc == 0
    assert "PASS" in out
    data = json.loads(open(out_path).read())
    assert data["ok"] is True
    assert data["schema"] == 1
    assert data["suite"] == "mha-axioms"
    assert data["laws"]


def test_reports_are_byte_identical_for_identical_configs(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["check", "yd", "--instance", "grp-S3", "--samples", "12",
            "--seed", "7"]
    assert run(args + ["--out", p1], capsys)[0] == 0
    assert run(args + ["--out", p2], capsys)[0] == 0
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    assert b"PASS" not in b1  # no stray console text in the report


def test_seed_changes_leave_report_valid(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["check", "comodule", "--instance", "fun-Z", "--samples", "8"]
    assert run(base + ["--seed", "1", "--out", p1], capsys)[0] == 0
    assert run(base + ["--seed", "2", "--out", p2], capsys)[0] == 0
    d1, d2 = json.load(open(p1)), json.load(open(p2))
    assert d1["seed"] == 1 and d2["seed"] == 2
    assert d1["ok"] and d2["ok"]


def test_unknown_instance_is_a_usage_error(capsys):
    rc, _, err = run(["check", "mha-axioms", "--instance", "no-such"], capsys)
    assert rc == 2
    assert "unknown instance" in err


def test_bad_field_is_a_usage_error(capsys):
    rc, _, err = run(["check", "mha-axioms", "--instance", "grp-Z2",
                      "--field", "real"], capsys)
    assert rc == 2
    assert "field" in err


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-suite", "--instance", "grp-Z2"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_qt_suite_rejects_non_cyclic_instance(capsys):
    rc, _, err = run(["check", "qt-coaction", "--instance", "grp-S3"], capsys)
    assert rc == 2
    assert "cyclic" in err


def test_dump_dcp_is_deterministic_and_atomic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for p in (p1, p2):
        rc, _, _ = run(["dump", "dcp", "--instance", "grp-Z2", "--out", p],
                       capsys)
        assert rc == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()
    data = json.load(open(p1))
    assert len(data["basis"]) == 4
    assert data["convention"] == "standard"
    assert not os.path.exists(p1 + ".tmp")


def test_dump_dcp_at_twisted_pair(tmp_path, capsys):
    p = str(tmp_path / "h4.json")
    rc, _, _ = run(["dump", "dcp", "--instance", "sweedler-H4",
                    "--pair", "scale:2,3", "--out", p], capsys)
    assert rc == 0
    assert len(json.load(open(p))["basis"]) == 16


def test_dump_bad_pair_is_a_usage_error(capsys):
    rc, _, err = run(["dump", "dcp", "--instance", "grp-Z2",
                      "--pair", "bogus:1", "--out", "/tmp/never.json"], capsys)
    assert rc == 2
    assert "pair" in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.mark.parametrize("args", [
    ["check", "yd", "--instance", "dual:sweedler-H4", "--samples", "1",
     "--seed", "3"],
    ["check", "centre-equivalence", "--instance", "dual:grp-S3",
     "--samples", "1", "--seed", "2"],
    ["dump", "dcp", "--instance", "sweedler-H4", "--pair", "scale:2,3"],
], ids=["yd", "centre-equivalence", "dump-dcp"])
def test_outputs_are_byte_identical_across_hash_seeds(tmp_path, args):
    """Term dicts are filled in whatever order the memos and tables were
    built; reports and dumps must not depend on it, nor on string hashing."""
    outs = []
    for hash_seed in ("0", "1"):
        path = str(tmp_path / ("out-%s.json" % hash_seed))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "ydcheck.cli"] + args + ["--out", path],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]
