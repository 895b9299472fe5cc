"""CLI contract: subcommands, exit codes, and byte-deterministic reports."""

import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest

import ydcheck.cli as cli
from ydcheck.cli import main, parse_pair, SUITES
from ydcheck.double import DiagonalCrossedProduct, check_dcp
from ydcheck.fields import PrimeField
from ydcheck.instances import INSTANCE_NAMES, build_instance
from ydcheck.report import Report


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_list_suites_and_instances(capsys):
    rc, out, _ = run(["list", "suites"], capsys)
    assert rc == 0
    assert out.split() == list(SUITES) == [
        "mha-axioms", "braid", "extended-modules", "comodule", "yd",
        "centre-equivalence", "gyd", "t-category", "dcp",
        "double-correspondence", "module-algebra", "qt-coaction",
        "hq-monoidal"]
    rc, out, _ = run(["list", "instances"], capsys)
    assert rc == 0
    assert out.split() == INSTANCE_NAMES == [
        "fun-Z", "fun-Dinf", "grp-S3", "grp-Z2", "grp-Zn:<n>", "sweedler-H4",
        "dual:<name>"]


def test_check_writes_report_and_exits_zero(tmp_path, capsys):
    out_path = str(tmp_path / "rep.json")
    rc, out, _ = run(["check", "mha-axioms", "--instance", "grp-Z2",
                      "--samples", "25", "--out", out_path], capsys)
    assert rc == 0
    assert "PASS" in out
    data = json.loads(open(out_path).read())
    assert data["ok"] is True
    assert data["schema"] == 2
    assert data["suite"] == "mha-axioms"
    assert data["laws"]


@pytest.mark.parametrize("suite", list(SUITES))
def test_each_runner_reports_its_suite_instance_and_seed(suite):
    rep = cli.run_suite(suite, "grp-Z2", PrimeField(5), 1, 3)
    instance = "D(grp-Z2)" if suite == "dcp" else "grp-Z2"
    assert (rep.suite, rep.instance, rep.field_name, rep.seed) == (
        suite, instance, "fp:5", 3)
    assert rep.ok and rep.laws, rep.summary()


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


def test_dump_dcp_at_scaling_pair_over_prime_field(tmp_path, capsys):
    p = str(tmp_path / "h4-f5.json")
    rc, _, err = run(["dump", "dcp", "--instance", "sweedler-H4", "--field",
                      "fp:5", "--pair", "scale:2,3", "--out", p], capsys)
    assert rc == 0, err
    assert len(json.load(open(p))["basis"]) == 16
    mha = build_instance("sweedler-H4", PrimeField(5))
    dcp = DiagonalCrossedProduct(mha, parse_pair(mha, "scale:2,3"))
    rep = check_dcp(dcp, samples=50, seed=0)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("pair,field,message", [
    ("scale:5,1", "fp:5", "scaling parameter must be invertible"),
    ("scale:1/5,3", "fp:5", "zero denominator"),
    ("scale:1/0,3", "rational", "zero denominator"),
])
def test_scale_factor_zero_in_the_field_is_a_usage_error(pair, field, message,
                                                         capsys):
    rc, _, err = run(["dump", "dcp", "--instance", "sweedler-H4", "--field",
                      field, "--pair", pair, "--out", "/tmp/never.json"],
                     capsys)
    assert rc == 2
    assert message in err


@pytest.mark.parametrize("pair,digest", [
    # 32 entries of this dump are 1/2
    ("scale:1/2,3",
     "7e0a397ba6fbf56d682a6ff9bd2cded16557c86eeaba0dba5d936baf0956aff9"),
    # a decimal scale factor, read as fractions.Fraction reads it
    ("scale:1.5,2",
     "d6b1d6f78c1093e6bdd88789e13416be0cf0baee1187b65ad56b9436fcf56b6f"),
])
def test_rational_scale_dump_keeps_its_bytes(pair, digest, tmp_path, capsys):
    # sha256 of each dump as written when QQ coefficients were all Fractions
    p = str(tmp_path / "h4-scaled.json")
    rc, _, _ = run(["dump", "dcp", "--instance", "sweedler-H4",
                    "--pair", pair, "--out", p], capsys)
    assert rc == 0
    assert hashlib.sha256(open(p, "rb").read()).hexdigest() == digest


def test_malformed_scale_factor_is_a_usage_error(capsys):
    rc, _, err = run(["dump", "dcp", "--instance", "sweedler-H4",
                      "--pair", "scale:x,2", "--out", "/tmp/never.json"],
                     capsys)
    assert rc == 2
    assert "Invalid literal for Fraction: 'x'" in err


def test_dump_bad_pair_is_a_usage_error(capsys):
    rc, _, err = run(["dump", "dcp", "--instance", "grp-Z2",
                      "--pair", "bogus:1", "--out", "/tmp/never.json"], capsys)
    assert rc == 2
    assert "pair" in err


@pytest.mark.parametrize("args,reason", [
    (["dump", "dcp", "--instance", "grp-S3", "--pair", "inner:9,1"],
     "inner pair indices must lie in 0..5"),
    (["dump", "dcp", "--instance", "grp-S3", "--pair", "inner:-1,1"],
     "inner pair indices must lie in 0..5"),
    (["dump", "dcp", "--instance", "grp-S3", "--pair", "inner:a,1"],
     "inner pair indices must be whole numbers, not 'a'"),
    (["dump", "dcp", "--instance", "grp-S3", "--pair", "scale:2,3"],
     "scaling pairs need the basis 1, g, x, gx of Sweedler's H4, not "
     "grp-S3's"),
    (["check", "mha-axioms", "--instance", "grp-Zn:0"],
     "grp-Zn:<n> needs a whole number n >= 1, not '0'"),
    (["check", "mha-axioms", "--instance", "grp-Zn:-3"],
     "grp-Zn:<n> needs a whole number n >= 1, not '-3'"),
], ids=["inner-too-large", "inner-negative", "inner-not-a-number",
        "scale-off-h4", "zn-zero", "zn-negative"])
def test_bad_input_is_a_usage_error_with_a_reason(args, reason, tmp_path,
                                                  capsys):
    out = str(tmp_path / "never.json")
    rc, _, err = run(args + ["--out", out], capsys)
    assert rc == 2
    assert "error: %s\n" % reason in err
    assert not os.path.exists(out)


def test_zero_samples_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "never.json")
    with pytest.raises(SystemExit) as exc:
        main(["check", "mha-axioms", "--instance", "grp-Z2", "--samples", "0",
              "--out", out])
    assert exc.value.code == 2
    assert "argument --samples: must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("bad", [
    ["check", "no-suite", "--instance", "grp-Z2"],
    ["check", "mha-axioms", "--instance", "grp-Z2", "--samples", "0"],
    ["check", "mha-axioms"],
    ["dump", "dcp", "--instance", "grp-Z2"],
], ids=["choice", "samples", "missing-instance", "missing-out"])
def test_the_shared_parser_carries_nothing_between_calls(bad, tmp_path,
                                                         capsys):
    """main builds its parser once per process and shares it; a usage error
    in one call changes neither the exit code nor the output of the next."""
    out = str(tmp_path / "r.json")
    good = ["check", "braid", "--instance", "grp-S3", "--field", "fp:5",
            "--samples", "3", "--seed", "3", "--out", out]
    cli._parser.cache_clear()
    first = run(good, capsys)
    parser = cli._parser()
    with open(out, "rb") as f:
        report = f.read()
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert run(good, capsys) == first
    with open(out, "rb") as f:
        assert f.read() == report
    assert cli._parser() is parser


def test_importing_the_cli_builds_no_parser_and_stays_light():
    """The parser is built on the first call of main, not at import, and
    importing the CLI pulls in neither dataclasses nor inspect."""
    code = ("import sys, ydcheck.cli as cli; "
            "assert cli._parser.cache_info().currsize == 0; "
            "assert not {'dataclasses', 'inspect'} & set(sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("command", [
    ["check", "mha-axioms", "--instance", "grp-Z2", "--samples", "2"],
    ["dump", "dcp", "--instance", "grp-Z2"],
], ids=["check", "dump"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_is_a_usage_error_before_any_build(
        command, where, tmp_path, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("an instance was built for an unwritable --out")
    monkeypatch.setattr(cli, "build_instance", no_build)
    out = tmp_path / "report"
    if where == "a-directory":
        out.mkdir()
    else:
        out = out / "x.json"
    rc, stdout, err = run(command + ["--out", str(out)], capsys)
    assert (rc, stdout) == (2, "")
    assert err == "error: --out %s is a directory or in a missing one\n" % out
    assert sorted(os.listdir(tmp_path)) == (
        ["report"] if where == "a-directory" else [])


def test_a_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise PermissionError("replace refused")
    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(PermissionError):
        cli._write_atomic(str(tmp_path / "rep.json"), "{}")
    assert os.listdir(tmp_path) == []


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # a lone surrogate cannot be encoded, so the write itself fails
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(str(tmp_path / "rep.json"), "\ud800")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["check", "mha-axioms", "--instance", "grp-Z2", "--samples", "2"],
    ["dump", "dcp", "--instance", "grp-Z2"],
], ids=["check", "dump"])
def test_an_out_that_cannot_be_written_is_a_usage_error(command, tmp_path,
                                                         capsys):
    """The temporary file's path is taken by a directory: the run exits 2
    with one error line and no traceback, and leaves that directory and no
    file of its own."""
    out = tmp_path / "rep.json"
    (tmp_path / "rep.json.tmp").mkdir()
    rc, stdout, err = run(command + ["--out", str(out)], capsys)
    assert rc == 2
    assert "wrote" not in stdout
    assert err.startswith("error: cannot write --out %s: " % out)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["rep.json.tmp"]
    assert os.listdir(tmp_path / "rep.json.tmp") == []


def test_a_corrupted_instance_is_an_internal_error(monkeypatch, capsys):
    """An antipode x3 copy of grp-S3 breaks the inner automorphisms that
    t-category conjugates by: a defect in the instance, not in the input."""
    real = cli.build_instance

    def build(name, field):
        mha = real(name, field)
        bad = copy.copy(mha)
        three = field.from_int(3)
        bad._antipode = lambda s: mha._antipode(s).scaled(three)
        return bad

    monkeypatch.setattr(cli, "build_instance", build)
    rc, out, err = run(["check", "t-category", "--instance", "grp-S3",
                        "--samples", "3"], capsys)
    assert rc == 3
    assert out == ""
    assert err.endswith("internal error: ConstructionError: conj:(1, 0, 2): "
                        "not a bijection at a=1*(0, 1, 2)\n")


PANEL = ["fun-Z", "fun-Dinf", "grp-S3", "grp-Z2", "grp-Zn:4", "sweedler-H4",
         "dual:grp-Z2"]
NOT_CYCLIC = ("qt-coaction needs a cyclic group algebra instance "
              "(grp-Z2 or grp-Zn:<n>)")
#: the panel cells the CLI refused before suites declared their needs
REFUSED = {
    **{("dcp", name, field): "the crossed product needs a "
       "finite-dimensional unital instance"
       for name in ("fun-Z", "fun-Dinf") for field in ("rational", "fp:5")},
    **{("double-correspondence", name, field): "integrals are computed on "
       "finite-dimensional unital instances only"
       for name in ("fun-Z", "fun-Dinf") for field in ("rational", "fp:5")},
    **{("qt-coaction", name, field): NOT_CYCLIC
       for name in ("fun-Z", "fun-Dinf", "grp-S3", "sweedler-H4",
                    "dual:grp-Z2") for field in ("rational", "fp:5")},
    ("qt-coaction", "grp-Zn:4", "rational"):
        "no primitive 4-th root of unity in rational",
}


def test_every_cell_runs_or_is_refused_before_any_law(tmp_path, monkeypatch,
                                                      capsys):
    """13 suites x PANEL x {QQ, F_5}: a refused cell exits 2 with its reason
    before any law is sampled or recorded; every other cell passes with
    law ids unique in its report."""
    def no_law(*args, **kwargs):
        raise AssertionError("a law was checked on a refused cell")

    out = str(tmp_path / "rep.json")
    for suite in SUITES:
        for name in PANEL:
            for field in ("rational", "fp:5"):
                argv = ["check", suite, "--instance", name, "--field", field,
                        "--samples", "1", "--out", out]
                cell = (suite, name, field)
                if cell in REFUSED:
                    with monkeypatch.context() as m:
                        m.setattr(Report, "law_group", no_law)
                        m.setattr(Report, "add", no_law)
                        rc, _, err = run(argv, capsys)
                    assert rc == 2, (cell, err)
                    assert err == "error: %s\n" % REFUSED[cell], cell
                    assert not os.path.exists(out)
                    continue
                rc, _, err = run(argv, capsys)
                assert rc == 0, (cell, err)
                ids = [law["law"] for law in json.load(open(out))["laws"]]
                assert ids and len(ids) == len(set(ids)), cell
                os.remove(out)


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
