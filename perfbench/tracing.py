"""In-memory span tracer that wraps degcalc's public functions and methods.

The tracer patches the package from outside: each public function of a
degcalc module, each public method (plus the ring's arithmetic dunders) of the
classes those modules define, and the scipy entry points the modules import
are replaced by a timing wrapper.  Every bound name that refers to a wrapped
function, in any degcalc module or in the modules passed to ``install``, is
rebound, so callers that imported a name with ``from ... import`` see the
wrapper too.  ``uninstall`` restores every original binding.

Each call pushes a frame; on return the call's duration is added to its
parent's child time, so self time is duration minus the time its child calls
cover.  Per-name counts, total and self time are always aggregated.  Spans
(name, start, end, parent, job) are also kept in memory for the less frequent
names, up to ``SPAN_CAP``; the very frequent ring, cylinder-function and
quadrature calls are only aggregated.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import weakref

LAYERS = ("powerfun", "weights", "flows", "groupoid", "diffop",
          "schrodinger", "cli")

#: scipy kernels as bound inside degcalc modules: (module, attribute)
SCIPY_ENTRY_POINTS = (("flows", "quad"), ("flows", "brentq"),
                      ("schrodinger", "eigsh"),
                      ("schrodinger", "eigh_tridiagonal"))

#: dunder methods worth tracing (ring arithmetic, constructors, evaluation)
TRACED_DUNDERS = frozenset((
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__"))

#: name prefixes that are aggregated only (too frequent to keep one span each)
AGGREGATE_ONLY = ("powerfun.", "diffop.CylinderFunction.",
                  "weights.Weight.__call__", "scipy.quad",
                  "groupoid.GPhiElement.", "groupoid.rho_")

#: ring operations counted as ``powerfun.ops``
RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__", "divide_term", "derivative",
            "invert", "flip")

SPAN_CAP = 300_000


class Tracer:
    """Aggregated call statistics plus a bounded in-memory span list."""

    def __init__(self):
        self.stats = {}          # name -> [count, total_s, self_s]
        self.spans = []          # (id, name, start, end, parent_id, job)
        self.dropped_spans = 0
        self.job = None          # index of the job being run
        self.terms_max = 0
        self.membership_undecided = 0
        self.first_apply_s = []
        self._seen_flows = weakref.WeakSet()
        self._stack = []         # frames: [child_s, effective_span_id]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        keep = not name.startswith(AGGREGATE_ONLY)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else None
            span_id = None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id if keep else parent_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, name, start, end,
                                             parent_id, tracer.job))
                    else:
                        tracer.dropped_spans += 1
            if observe is not None:
                observe(args, result, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observer(self, name):
        if name.startswith("powerfun.RadialFunction.") and \
                name.rsplit(".", 1)[1] in RING_OPS:
            return self._observe_terms
        if name == "weights.membership_order":
            return self._observe_membership
        if name == "flows.Flow.apply":
            return self._observe_apply
        return None

    def _observe_terms(self, args, result, dur):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.terms_max:
            self.terms_max = len(terms)

    def _observe_membership(self, args, result, dur):
        if not result.decided:
            self.membership_undecided += 1

    def _observe_apply(self, args, result, dur):
        flow = args[0]
        if flow not in self._seen_flows:
            self._seen_flows.add(flow)
            self.first_apply_s.append(dur)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, extra_modules=()):
        """Wrap every traced callable and rebind every name that refers to
        one, in the degcalc package and in ``extra_modules``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"degcalc.{layer}")
                   for layer in LAYERS}
        replacement = {}   # id(original function) -> wrapper
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replacement[id(obj)] = self._wrap(name, obj,
                                                      self._observer(name))
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for layer, attr in SCIPY_ENTRY_POINTS:
            obj = getattr(modules[layer], attr)
            if id(obj) not in replacement:
                replacement[id(obj)] = self._wrap(f"scipy.{attr}", obj)
                originals[id(obj)] = obj
        targets = [importlib.import_module("degcalc"), *modules.values(),
                   *extra_modules]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement and originals[id(obj)] is obj:
                    self._patch(mod, attr, replacement[id(obj)])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw, self._observer(name))
            else:
                continue   # properties and plain attributes
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call(self, name, fn):
        """Run ``fn()`` inside a span called ``name`` (used for job roots)."""
        return self._wrap(name, fn)()

    # -- results ------------------------------------------------------------

    def count(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_ms(self, *names):
        return 1e3 * sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_ms(self, *names):
        return 1e3 * sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def names(self, prefix):
        return [n for n in self.stats if n.startswith(prefix)]

    def write(self, path):
        """Spans as JSON lines, followed by one line of aggregated stats."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            fh.write(json.dumps({
                "stats": {n: {"count": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in sorted(self.stats.items())
                          if c},
                "dropped_spans": self.dropped_spans}) + "\n")
