"""Per-layer tracing of ``hkc`` from outside the package.

The tracer wraps public functions of the six ``src/hkc`` modules and puts
the originals back afterwards; nothing in ``src/`` changes.  A function
imported by name (``from .connections import curvature``) is bound once
per importing module, so every binding of the same function object is
replaced, in every ``hkc`` module that holds it.  Methods are wrapped on
their class, and the suites in the harness's dispatch table.

Two kinds of wrapper:

* a counter only counts calls.  It is used on the hot jet-level functions
  (``dot``, ``matvec``, ``Dual`` creation), whose recursive calls go
  through the module-level name and are therefore counted too;
* a span times each call with ``perf_counter``.  A span's self time is its
  duration minus the time covered by spans that ran inside it.  None of
  the spanned functions calls itself, so summed durations are not counted
  twice.

Stats are aggregated in memory as ``name -> [calls, total_s, self_s]``.
"""

import importlib
import time
from collections import defaultdict
from functools import wraps

MODULES = ("numlin", "sphere3s", "connections", "curvature", "records",
           "harness")

# (module, function) -> stat name; counted, not timed
COUNTERS = {
    ("numlin", "dot"): "numlin.dot",
    ("numlin", "matvec"): "numlin.matvec",
    ("numlin", "directional_derivative"): "numlin.directional_derivative",
    ("records", "make_record"): "records.make_record",
}

# (module, function) -> (stat name, position of the ConnectionKind argument
# or None); timed spans
FUNCTION_SPANS = {
    ("numlin", "gram_schmidt"): ("numlin.gram_schmidt", None),
    ("connections", "cov_deriv"): ("connections.cov_deriv", 0),
    ("connections", "h_form_gap"): ("connections.h_form_gap", None),
    ("connections", "lie_bracket"): ("connections.lie_bracket", None),
    ("connections", "torsion"): ("connections.torsion", 0),
    ("connections", "curvature"): ("connections.curvature", 0),
    ("curvature", "ricci"): ("curvature.ricci", 1),
    ("curvature", "cross_check_rbar"): ("curvature.cross_check_rbar", None),
    ("curvature", "rbar_algebraic"): ("curvature.rbar_algebraic", None),
    ("curvature", "sectional"): ("curvature.sectional", None),
    ("curvature", "holomorphic_sectional_bar"):
        ("curvature.holomorphic_sectional_bar", None),
    ("curvature", "theorem_sec_data"): ("curvature.theorem_sec_data", None),
    ("curvature", "verify_symmetries"): ("curvature.verify_symmetries", None),
    ("harness", "resolve_conventions"): ("harness.resolve_conventions", None),
    ("harness", "sample_point"): ("harness.sampling", None),
    ("harness", "sample_unit_tangent"): ("harness.sampling", None),
    ("harness", "sample_unit_H"): ("harness.sampling", None),
}

# (module, class, method) -> stat name; timed spans
METHOD_SPANS = {
    ("sphere3s", "ThreeSasakiStructure", "frame_H"): "sphere3s.frame_H",
    ("sphere3s", "ThreeSasakiStructure", "h_tensor"): "sphere3s.h_tensor",
    ("sphere3s", "ThreeSasakiStructure", "check_structure_axioms"):
        "sphere3s.check_structure_axioms",
    ("records", "VerificationReport", "to_json"): "records.to_json",
}


def _setter(owner, key):
    if isinstance(owner, dict):
        return lambda value: owner.__setitem__(key, value)
    return lambda value: setattr(owner, key, value)


class Tracer:
    """Context manager that instruments the ``hkc`` package while active.

    ``stats`` maps a stat name to ``[calls, total_s, self_s]``; it keeps
    its values after the tracer exits.
    """

    def __init__(self):
        self.modules = {name: importlib.import_module(f"hkc.{name}")
                        for name in MODULES}
        # the package namespace re-exports the public functions too
        self.namespaces = [importlib.import_module("hkc"),
                           *self.modules.values()]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack = []
        self._undo = []

    # ---------------- wrappers ----------------

    def _counter(self, func, name):
        stat = self.stats[name]

        @wraps(func)
        def counted(*args, **kwargs):
            stat[0] += 1
            return func(*args, **kwargs)
        return counted

    def _span(self, func, name, kind_pos=None):
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        suffix = {}
        if kind_pos is not None:
            kinds = self.modules["connections"].ConnectionKind
            suffix = {kinds.LEVI_CIVITA: ".lc", kinds.H_CONNECTION: ".h"}
        for key in [name + tail for tail in suffix.values()] or [name]:
            stats[key]  # create the entry, so spans never called report zeros

        @wraps(func)
        def spanned(*args, **kwargs):
            key = name if kind_pos is None else name + suffix[args[kind_pos]]
            stack.append(0.0)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stat = stats[key]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if stack:
                    stack[-1] += dur
        return spanned

    # ---------------- patching ----------------

    def _replace(self, owner, key, new):
        old = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        _setter(owner, key)(new)
        self._undo.append((owner, key, old))

    def _replace_everywhere(self, func, new):
        """Rebind ``func`` to ``new`` in every namespace that holds it."""
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if value is func:
                    self._replace(ns, attr, new)

    def __enter__(self):
        mods = self.modules
        try:
            for (mod, fn), name in COUNTERS.items():
                func = getattr(mods[mod], fn)
                self._replace_everywhere(func, self._counter(func, name))
            dual = mods["numlin"].Dual
            self._replace(dual, "__init__",
                          self._counter(dual.__init__, "numlin.Dual.created"))
            for (mod, fn), (name, kind_pos) in FUNCTION_SPANS.items():
                func = getattr(mods[mod], fn)
                self._replace_everywhere(func, self._span(func, name, kind_pos))
            for (mod, cls, meth), name in METHOD_SPANS.items():
                owner = getattr(mods[mod], cls)
                self._replace(owner, meth,
                              self._span(vars(owner)[meth], name))
            table = vars(mods["harness"])["_SUITE_FUNCS"]
            for suite, func in list(table.items()):
                self._replace(table, suite,
                              self._span(func, f"harness.suite.{suite}"))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            _setter(owner, key)(old)
