"""Command-line verification driver.

    ydcheck check <suite> --instance <name> [--field rational|fp:<p>]
                  [--seed <n>] [--samples <n>] [--out <path>]
    ydcheck list suites|instances
    ydcheck dump dcp --instance <name> [--pair <spec>] --out <path>

Exit codes: 0 all laws hold, 1 at least one law failed, 2 usage error.
Reports are JSON without timestamps; identical configurations produce
byte-identical files (written atomically via a temporary file)."""

import argparse
import json
import os
import sys

from .fields import parse_field, parse_scalar
from .report import Report
from .mha import check_mha_axioms, check_braid
from .modules import (check_comodule, check_extended_modules,
                      finite_dim_inclusion, regular_module, counit_module,
                      coproduct_coaction, trivial_coaction)
from .yd import check_yd_suite, check_equivalence, canonical_yd
from .gyd import (AutoPair, identity_pair, check_gyd, gyd_fixtures_at,
                  check_t_category, trivial_gyd, gyd_from_yd)
from .double import (DiagonalCrossedProduct, drinfeld_double, check_dcp,
                     check_double_correspondence)
from .modalg import (check_module_algebra_suite, check_hq_monoidal,
                     check_qt_coaction, translation_module_algebra,
                     counit_module_algebra)
from .instances import (build_instance, INSTANCE_NAMES, ConstructionError,
                        qt_for_cyclic, group_Zn, inner_automorphism,
                        h4_scaling_automorphism)


SUITES = ["mha-axioms", "braid", "extended-modules", "comodule", "yd",
          "centre-equivalence", "gyd", "t-category", "dcp",
          "double-correspondence", "module-algebra", "qt-coaction",
          "hq-monoidal"]


def _default_pairs(mha, name):
    """Twisted automorphism pairs available on an instance; identity
    otherwise."""
    if name == "grp-S3":
        g, h = (1, 0, 2), (1, 2, 0)
        return [AutoPair(inner_automorphism(mha, g), inner_automorphism(mha, h)),
                AutoPair(inner_automorphism(mha, h), inner_automorphism(mha, g))]
    if name == "sweedler-H4" and mha.field.name == "rational":
        s2 = h4_scaling_automorphism(mha, mha.field.from_int(2))
        s3 = h4_scaling_automorphism(mha, mha.field.from_int(3))
        return [AutoPair(s2, s3), AutoPair(s3, s2)]
    return [identity_pair(mha)]


def parse_pair(mha, spec):
    """identity | inner:<i>,<j> | scale:<a>,<b> with i, j basis indices and
    a, b scale factors written p, p/q or as decimals."""
    if spec == "identity":
        return None
    kind, _, rest = spec.partition(":")
    parts = rest.split(",")
    if kind == "inner" and len(parts) == 2:
        basis = mha.algebra.basis
        if basis is None:
            raise ValueError("inner pairs need a finite basis")
        g, h = basis[int(parts[0])], basis[int(parts[1])]
        return AutoPair(inner_automorphism(mha, g), inner_automorphism(mha, h))
    if kind == "scale" and len(parts) == 2:
        return AutoPair(
            h4_scaling_automorphism(mha, parse_scalar(mha.field, parts[0])),
            h4_scaling_automorphism(mha, parse_scalar(mha.field, parts[1])))
    raise ValueError("bad pair spec %r (identity | inner:<i>,<j> | "
                     "scale:<a>,<b>)" % spec)


def run_suite(suite, name, field, samples, seed):
    mha = build_instance(name, field)
    if suite == "mha-axioms":
        return check_mha_axioms(mha, samples, seed)
    if suite == "braid":
        return check_braid(mha, samples, seed)
    if suite == "extended-modules":
        rep = check_extended_modules(mha, samples, seed)
        if mha.algebra.basis is not None:
            rep.laws.extend(finite_dim_inclusion(
                coproduct_coaction(regular_module(mha)), seed=seed).laws)
        return rep
    if suite == "comodule":
        rep = Report(suite, mha.name, mha.field.name, seed, samples)
        rep.merge(check_comodule(coproduct_coaction(regular_module(mha)),
                                 samples, seed, suite), "delta")
        rep.merge(check_comodule(trivial_coaction(counit_module(mha)),
                                 samples, seed, suite), "trivial")
        return rep
    if suite == "yd":
        return check_yd_suite(mha, samples, seed)
    if suite == "centre-equivalence":
        return check_equivalence(mha, samples, seed)
    if suite == "gyd":
        rep = Report(suite, mha.name, mha.field.name, seed, samples)
        pairs = _default_pairs(mha, name)
        if len(pairs) > 1:
            pairs = [identity_pair(mha)] + pairs
        for i, pair in enumerate(pairs):
            for fx in gyd_fixtures_at(mha, pair):
                rep.merge(check_gyd(fx, samples, seed, suite),
                          "%s@%d" % (fx.name, i))
        return rep
    if suite == "t-category":
        return check_t_category(mha, _default_pairs(mha, name), samples, seed)
    if suite == "dcp":
        return check_dcp(drinfeld_double(mha), samples=max(samples, 200),
                         seed=seed)
    if suite == "double-correspondence":
        gyds = [trivial_gyd(mha), gyd_from_yd(canonical_yd(mha))]
        return check_double_correspondence(mha, gyds, samples, seed)
    if suite == "module-algebra":
        return check_module_algebra_suite(mha, samples, seed)
    if suite == "qt-coaction":
        if name == "grp-Z2":
            n = 2
        elif name.startswith("grp-Zn:"):
            n = int(name.split(":")[1])
        else:
            raise ValueError("qt-coaction needs a cyclic group algebra "
                             "instance (grp-Z2 or grp-Zn:<n>)")
        qt = qt_for_cyclic(n, field, mha=mha)
        rep = Report(suite, mha.name, mha.field.name, seed, samples)
        rep.merge(check_qt_coaction(
            translation_module_algebra(mha, group_Zn(n)), qt, samples, seed),
            "translation")
        rep.merge(check_qt_coaction(counit_module_algebra(mha), qt,
                                    samples, seed), "counit")
        return rep
    if suite == "hq-monoidal":
        return check_hq_monoidal(mha, min(samples, 15), seed)
    raise ValueError("unknown suite %r" % suite)


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ydcheck")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--field", default="rational")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=int, default=40)
    p_check.add_argument("--out")

    p_list = sub.add_parser("list", help="list registered suites or instances")
    p_list.add_argument("what", choices=["suites", "instances"])

    p_dump = sub.add_parser("dump", help="dump a constructed object")
    p_dump.add_argument("object", choices=["dcp"])
    p_dump.add_argument("--instance", required=True)
    p_dump.add_argument("--pair", default="identity")
    p_dump.add_argument("--field", default="rational")
    p_dump.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.command == "list":
        for line in SUITES if args.what == "suites" else INSTANCE_NAMES:
            print(line)
        return 0

    try:
        field = parse_field(args.field)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.command == "dump":
        try:
            mha = build_instance(args.instance, field)
            pair = parse_pair(mha, args.pair)
            dcp = DiagonalCrossedProduct(mha, pair)
            payload = dcp.structure_constants()
        except (KeyError, ValueError, ConstructionError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        _write_atomic(args.out, json.dumps(payload, indent=2, sort_keys=True))
        print("wrote %s" % args.out)
        return 0

    try:
        rep = run_suite(args.suite, args.instance, field, args.samples,
                        args.seed)
    except (KeyError, ValueError, ConstructionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(rep.summary())
    print("%s: %s on %s (%s), %d laws" %
          ("PASS" if rep.ok else "FAIL", args.suite, args.instance,
           args.field, len(rep.laws)))
    if args.out:
        _write_atomic(args.out, rep.to_json())
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
