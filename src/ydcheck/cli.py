"""Command-line verification driver.

    ydcheck check <suite> --instance <name> [--field rational|fp:<p>]
                  [--seed <n>] [--samples <n>] [--out <path>]
    ydcheck list suites|instances
    ydcheck dump dcp --instance <name> [--pair <spec>] --out <path>

SUITES gives each suite its runner and what it needs of an instance, checked
on the built instance before anything else is built.  Exit codes: 0 all laws
hold, 1 a law failed, 2 usage error (a suite that does not apply, or an
--out that is a directory or in a missing one), 3 internal error.  Reports
are JSON without timestamps; identical configs give byte-identical files
(written atomically via a temporary file)."""

import argparse
import functools
import json
import os
import sys

from .fields import parse_field
from .mha import check_mha_axioms, check_braid
from .modules import check_comodule_suite, check_extended_modules
from .yd import check_yd_suite, check_equivalence
from .gyd import check_gyd_suite, check_t_category, identity_pair, parse_pair
from .double import (DiagonalCrossedProduct, check_dcp_suite,
                     check_double_correspondence_suite)
from .modalg import (check_module_algebra_suite, check_hq_monoidal,
                     check_qt_coaction_suite)
from .instances import (build_instance, INSTANCE_NAMES, ConstructionError,
                        root_of_unity)


class NotApplicable(ValueError):
    """A suite's hypothesis fails on an instance."""


def _finite_unital(reason):
    def need(mha):
        if mha.algebra.basis is None or not mha.algebra.has_unit:
            raise NotApplicable(reason)
    return need


def _cyclic_with_root(mha):
    n = mha.cyclic_order
    if n is None:
        raise NotApplicable("qt-coaction needs a cyclic group algebra "
                            "instance (grp-Z2 or grp-Zn:<n>)")
    if root_of_unity(mha.field, n) is None:
        raise NotApplicable("no primitive %d-th root of unity in %s"
                            % (n, mha.field.name))


def _default_pairs(mha, name=None):  # name: perfbench/worker.py passes it
    return [parse_pair(mha, s) for s in mha.pair_specs] or [identity_pair(mha)]


#: suite -> (runner(mha, samples, seed), requirements): each requirement
#: raises NotApplicable on an instance the suite's hypothesis fails on
SUITES = {
    "mha-axioms": (check_mha_axioms,),
    "braid": (check_braid,),
    "extended-modules": (check_extended_modules,),
    "comodule": (check_comodule_suite,),
    "yd": (check_yd_suite,),
    "centre-equivalence": (check_equivalence,),
    "gyd": (check_gyd_suite,),
    "t-category": (lambda mha, samples, seed: check_t_category(
        mha, _default_pairs(mha), samples, seed),),
    "dcp": (check_dcp_suite, _finite_unital(
        "the crossed product needs a finite-dimensional unital instance")),
    "double-correspondence": (check_double_correspondence_suite, _finite_unital(
        "integrals are computed on finite-dimensional unital instances only")),
    "module-algebra": (check_module_algebra_suite,),
    "qt-coaction": (check_qt_coaction_suite, _cyclic_with_root),
    "hq-monoidal": (check_hq_monoidal,),
}


def applicable(suite, name, field):
    """Build an instance and check the suite's requirements on it."""
    mha = build_instance(name, field)
    for need in SUITES[suite][1:]:
        need(mha)
    return mha


def run_suite(suite, name, field, samples, seed):
    return SUITES[suite][0](applicable(suite, name, field), samples, seed)


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise


@functools.cache
def _parser():
    """The argument parser and its check subparser, built on the first call
    of main and shared by every later one in the process (parse_args keeps
    no state between calls)."""
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
    return parser, p_check


def main(argv=None):
    """Run one command; returns its exit code.  The parser is built once
    per process, on the first call, so importing the module does not pay
    for it."""
    parser, p_check = _parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for line in SUITES if args.what == "suites" else INSTANCE_NAMES:
            print(line)
        return 0
    if args.command == "check" and args.samples < 1:
        p_check.error("argument --samples: must be at least 1")
    out = args.out if args.out is None else os.path.abspath(args.out)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
        print("error: --out %s is a directory or in a missing one" % args.out,
              file=sys.stderr)
        return 2

    # a dump of the crossed product needs what the dcp suite needs
    suite = args.suite if args.command == "check" else "dcp"
    try:
        mha = applicable(suite, args.instance, parse_field(args.field))
        pair = parse_pair(mha, args.pair) if args.command == "dump" else None
    except (KeyError, ValueError, ConstructionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    try:
        if args.command == "dump":
            payload = DiagonalCrossedProduct(mha, pair).structure_constants()
        else:
            rep = SUITES[suite][0](mha, args.samples, args.seed)
    except Exception as exc:  # the inputs were accepted: the defect is ours
        import traceback  # here only: importing it adds 0.25 MB to every run
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3

    if args.command == "dump":
        _write_atomic(args.out, json.dumps(payload, indent=2, sort_keys=True))
        print("wrote %s" % args.out)
        return 0
    print(rep.summary())
    print("%s: %s on %s (%s), %d laws" %
          ("PASS" if rep.ok else "FAIL", args.suite, args.instance,
           args.field, len(rep.laws)))
    if args.out:
        _write_atomic(args.out, rep.to_json())
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
