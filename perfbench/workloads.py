"""The three workloads: which `ydcheck` calls each one makes, and which
instances, fixtures, automorphism pairs and doubles its set-up builds.

A cell is one CLI call, as an argv list without `--seed` and `--out` (the
benchmark adds both; `dump` takes no seed).  Every cell here is one the CLI
accepts: cells it rejects as not applicable (exit 2) are left out, so no
operation fails on a correct program.
"""

SUITES = ["mha-axioms", "braid", "extended-modules", "comodule", "yd",
          "centre-equivalence", "gyd", "t-category", "dcp",
          "double-correspondence", "module-algebra", "qt-coaction",
          "hq-monoidal"]

# suites the CLI rejects on instances without a finite basis and a unit
_FINITE_ONLY = ("dcp", "double-correspondence")


def _check(suite, instance, field, samples):
    return ["check", suite, "--instance", instance, "--field", field,
            "--samples", str(samples)]


def _dump(instance, pair="identity"):
    return ["dump", "dcp", "--instance", instance, "--pair", pair,
            "--field", "rational"]


def _multiplier_qq():
    # fun-* are infinite and non-cyclic: no dcp, double-correspondence or
    # qt-coaction
    return [_check(s, inst, "rational", 30)
            for inst in ("fun-Z", "fun-Dinf") for s in SUITES
            if s not in _FINITE_ONLY + ("qt-coaction",)]


def _finite_fp():
    # qt-coaction needs a cyclic instance with a primitive n-th root of
    # unity in F_5: grp-Z2 and grp-Zn:4 qualify, grp-Zn:5 does not
    cells = [_check(s, inst, "fp:5", 10)
             for inst in ("grp-Z2", "grp-S3", "sweedler-H4") for s in SUITES
             if s != "qt-coaction" or inst == "grp-Z2"]
    cells.append(_check("qt-coaction", "grp-Zn:4", "fp:5", 10))
    return cells


def _dual_cliff():
    # one sample: on dual:grp-S3 a single sample of yd costs 0.4 s to 5.7 s,
    # depending on the seed
    cells = [_check(s, "dual:grp-S3", "rational", 1)
             for s in ("yd", "centre-equivalence")]
    cells += [_check(s, "dual:sweedler-H4", "rational", 1)
              for s in ("yd", "centre-equivalence", "t-category", "dcp",
                        "double-correspondence")]
    cells.append(_dump("dual:sweedler-H4"))
    cells.append(_dump("sweedler-H4", "scale:2,3"))
    return cells


WORKLOADS = {
    "multiplier-qq": _multiplier_qq(),
    "finite-fp": _finite_fp(),
    "dual-cliff": _dual_cliff(),
}

#: whole rounds (every cell once) per untraced run, the same in every run so
#: that every run attempts the same operations; a round took about 8, 7 and
#: 4 s (multiplier-qq, finite-fp, dual-cliff) on 2 shared CPUs under Python
#: 3.11, so a run measures about 30 s of calls
ROUNDS = {"multiplier-qq": 4, "finite-fp": 4, "dual-cliff": 6}

#: dimension of each finite base whose crossed product is dumped
BASE_DIM = {"sweedler-H4": 4, "dual:sweedler-H4": 4, "grp-S3": 6,
            "dual:grp-S3": 6, "grp-Z2": 2}


def arg(cell, flag, default=None):
    """The value of `flag` in a cell's argv."""
    return cell[cell.index(flag) + 1] if flag in cell else default


def cell_name(cell):
    """A short, unique, file-name-safe label for a cell."""
    parts = [cell[0], cell[1], arg(cell, "--instance"),
             arg(cell, "--field", "rational")]
    if cell[0] == "dump":
        parts.append(arg(cell, "--pair"))
    return "_".join(parts).replace(":", "-").replace(",", "-")


def instances(cells):
    """The (instance, field) pairs a list of cells names, with the suites
    (and `dump` pairs) run on each, in first-use order."""
    out = {}
    for cell in cells:
        key = (arg(cell, "--instance"), arg(cell, "--field", "rational"))
        uses = out.setdefault(key, [])
        uses.append(cell[1] if cell[0] == "check" else
                    "dump:" + arg(cell, "--pair"))
    return out
