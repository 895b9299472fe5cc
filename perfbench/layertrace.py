"""Per-layer tracing of `ydcheck` calls, from outside the program.

Two mechanisms, both set up from here and removed after each traced call:

* A deterministic profiler hook (`cProfile`, the C implementation of the
  `sys.setprofile` hook) records calls, self time and per-caller self time
  of every function, closures and stdlib `fractions.Fraction` included.
  Each function belongs to the layer of its source file (`fractions` counts
  as `fields`); a function outside the layers (a builtin, other stdlib) has
  its self time shared among the layers of its callers.  A layer's self
  time is therefore its inclusive time minus the time spent in child
  layers.  Call counts of chosen code objects give the per-layer counts.
* Wrappers installed by patching class attributes and module-level names
  (in every module that imported the name) observe what the profiler
  cannot see: the basis images asked of the memoized `bilinear`/`linear`
  extensions, the term counts returned across the linear layer's
  boundary, the bytes of rendered reports, and the calls of the four
  public twist operators (counted at the class attributes, so the count
  does not depend on how `mha` implements them).
"""

import cProfile
import os
import pstats
import sys
import types

LAYERS = ("fields", "linear", "mha", "instances", "modules", "yd", "gyd",
          "double", "modalg", "report", "cli")

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                 "__rpow__", "__pos__", "__neg__", "__abs__", "__eq__",
                 "__lt__", "__gt__", "__le__", "__ge__", "__bool__")
_GF_OPS = _FRACTION_OPS + ("__ne__",)

# the four twist operators of a multiplier Hopf algebra
TWISTS = ("script_t", "script_t_inv", "script_t_prime", "script_t_prime_inv")

# the per-layer metrics, in report order, with unit and better direction
PER_LAYER = [("%s.self_s" % layer, "s", "lower") for layer in LAYERS] + [
    ("fields.scalar_ops", "count", "lower"),
    ("linear.elements_built", "count", "lower"),
    ("linear.memo_lookups", "count", "lower"),
    ("linear.memo_misses", "count", "lower"),
    ("linear.memo_hit_ratio", "ratio", "higher"),
    ("linear.max_support", "count", "lower"),
    ("linear.solve_calls", "count", "lower"),
    ("mha.slice_calls", "count", "lower"),
    ("mha.twist_calls", "count", "lower"),
    ("mha.antipode_calls", "count", "lower"),
    ("instances.dual_antipode_calls", "count", "lower"),
    ("instances.build_s", "s", "lower"),
    ("modules.act_calls", "count", "lower"),
    ("modules.coaction_calls", "count", "lower"),
    ("gyd.braiding_inv_rounds", "count", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def label(code):
    """The key cProfile files a code object under."""
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _nested(func, name):
    """Labels of the code objects called `name` defined inside `func`."""
    return {label(c) for c in func.__code__.co_consts
            if isinstance(c, types.CodeType) and c.co_name == name}


def _labels(owner, names):
    out = set()
    for name in names:
        f = owner.__dict__.get(name)
        if isinstance(f, types.FunctionType):
            out.add(label(f.__code__))
    return out


class Tracer:
    """Traces calls made through `call`; `metrics` summarizes them."""

    def __init__(self):
        import fractions
        import ydcheck.cli  # imports every layer, so self.modules has all
        from ydcheck import (fields, linear, mha, instances, modules, gyd,
                             report)
        self.modules = [sys.modules[n] for n in sorted(sys.modules)
                        if n.startswith("ydcheck.")]
        self._linear, self._mha, self._report = linear, mha, report
        pkg = os.path.dirname(os.path.abspath(ydcheck.__file__))
        self._layer_of_file = {
            os.path.join(pkg, layer + ".py"): layer for layer in LAYERS}
        self._layer_of_file[os.path.join(pkg, "__init__.py")] = "cli"
        self._layer_of_file[fractions.__file__] = "fields"
        # the wrappers' own time is overhead, charged to no layer
        self._own_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep

        self.counted = {
            "fields.scalar_ops": _labels(fractions.Fraction, _FRACTION_OPS)
            | _labels(fields.GF, _GF_OPS),
            "linear.elements_built": {label(linear.Element.__init__.__code__)},
            "linear.solve_calls": {
                label(linear.lin_solve.__code__),
                label(linear.kernel_basis.__code__),
                label(linear.QuotientSpace.__init__.__code__)},
            "mha.antipode_calls": _labels(mha.MultiplierHopfAlgebra,
                                          ("antipode", "antipode_inv")),
            "instances.dual_antipode_calls":
                _nested(instances.DualHopf.__init__, "anti")
                | _nested(instances.DualHopf.__init__, "anti_inv"),
            "modules.act_calls": _labels(modules.UnitalModule, ("act",)),
            "modules.coaction_calls": _labels(modules.Coaction,
                                              ("slice_r", "slice_l")),
            "gyd.braiding_inv_rounds": _nested(gyd.gyd_braiding_inv,
                                               "attempt"),
        }
        self.slice_labels = set()   # filled as instances are built
        self.profile = cProfile.Profile()
        self.memo_lookups = 0
        self.memo_misses = 0
        self.max_support = 0
        self.report_bytes = 0
        self.twist_calls = 0
        self._exts = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _support(self, out):
        n = len(out.terms)
        if n > self.max_support:
            self.max_support = n
        return out

    def _extension(self, factory, arity):
        tracer = self

        def traced_factory(field, f):
            ext = factory(field, f)
            tracer._exts.append(ext)
            if arity == 1:
                def traced(x):
                    tracer.memo_lookups += len(x.terms)
                    return tracer._support(ext(x))
            else:
                def traced(x, y):
                    tracer.memo_lookups += len(x.terms) * len(y.terms)
                    return tracer._support(ext(x, y))
            return traced

        return traced_factory

    def _returns_element(self, func):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._support(func(*args, **kwargs))

        return traced

    def _record_slices(self, init):
        tracer = self

        def traced_init(obj, algebra, **kwargs):
            for key in ("delta_r", "delta_l", "delta_r2", "delta_l2"):
                code = getattr(kwargs.get(key), "__code__", None)
                if code is not None:
                    tracer.slice_labels.add(label(code))
            init(obj, algebra, **kwargs)

        return traced_init

    def _count_twist(self, method):
        tracer = self

        def traced(obj, x2):
            tracer.twist_calls += 1
            return method(obj, x2)

        return traced

    def _count_bytes(self, to_json):
        tracer = self

        def traced(rep):
            text = to_json(rep)
            tracer.report_bytes += len(text.encode())
            return text

        return traced

    def _patch_attr(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_name(self, func, replacement):
        """Rebind `func` in every ydcheck module that holds it by name."""
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is func:
                    self._patch_attr(mod, name, replacement)

    def install(self):
        lin, mha, report = self._linear, self._mha, self._report
        self._patch_name(lin.bilinear, self._extension(lin.bilinear, 2))
        self._patch_name(lin.linear, self._extension(lin.linear, 1))
        for func in (lin.tensor, lin.apply_leg, lin.apply_pair_legs,
                     lin.flip):
            self._patch_name(func, self._returns_element(func))
        self._patch_attr(lin.Element, "map_terms",
                         self._returns_element(lin.Element.map_terms))
        init = mha.MultiplierHopfAlgebra.__dict__["__init__"]
        self._patch_attr(mha.MultiplierHopfAlgebra, "__init__",
                         self._record_slices(init))
        mha_cls = mha.MultiplierHopfAlgebra
        for name in TWISTS:
            self._patch_attr(mha_cls, name,
                             self._count_twist(mha_cls.__dict__[name]))
        self._patch_attr(report.Report, "to_json",
                         self._count_bytes(report.Report.to_json))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- tracing -----------------------------------------------------------

    def call(self, func, *args):
        """Run func(*args) with every wrapper installed and the profiler
        on; basis images computed by the memos it built count as misses."""
        self.install()
        try:
            self.profile.enable()
            try:
                return func(*args)
            finally:
                self.profile.disable()
        finally:
            self.uninstall()
            for ext in self._exts:
                cell = ext.__closure__[ext.__code__.co_freevars.index("cache")]
                self.memo_misses += len(cell.cell_contents)
            self._exts.clear()

    def _layer(self, key):
        filename = key[0]
        layer = self._layer_of_file.get(filename)
        if layer is None and filename.startswith(self._own_dir):
            layer = "perfbench"
        return layer

    def metrics(self):
        """Per-layer self time and counts over every traced call."""
        stats = pstats.Stats(self.profile).stats
        shares = {}

        def resolve(key, busy):
            # how a function's self time splits among layers
            if key in shares:
                return shares[key]
            layer = self._layer(key)
            if layer is not None:
                return {layer: 1.0}
            callers = stats[key][4] if key in stats else {}
            total = sum(edge[2] for edge in callers.values())
            out = {}
            for caller, edge in callers.items():
                if caller in busy or total <= 0:
                    continue
                for lay, w in resolve(caller, busy | {key}).items():
                    out[lay] = out.get(lay, 0.0) + w * edge[2] / total
            if not out:
                out = {"other": 1.0}
            shares[key] = out
            return out

        self_s = dict.fromkeys(LAYERS, 0.0)
        for key, (cc, nc, tt, ct, callers) in stats.items():
            for layer, w in resolve(key, frozenset()).items():
                if layer in self_s:
                    self_s[layer] += tt * w

        def calls(labels):
            return sum(stats[k][1] for k in labels if k in stats)

        out = {"%s.self_s" % layer: t for layer, t in self_s.items()}
        for name, labels in self.counted.items():
            out[name] = calls(labels)
        out["mha.slice_calls"] = calls(self.slice_labels)
        out["linear.memo_lookups"] = self.memo_lookups
        out["linear.memo_misses"] = self.memo_misses
        out["linear.memo_hit_ratio"] = (
            1.0 - self.memo_misses / self.memo_lookups
            if self.memo_lookups else 0.0)
        out["linear.max_support"] = self.max_support
        out["report.bytes"] = self.report_bytes
        out["mha.twist_calls"] = self.twist_calls
        return out
