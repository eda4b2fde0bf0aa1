"""Spans around the package's public functions, for the traced run only.

The tracer rebinds each public entry point of ``neumann_lab`` (and
``scipy.sparse.linalg.splu`` / ``gmres``) to a wrapper that records a
span ``(name, start, end, parent, thread)`` in memory.  Every module that
imported a wrapped function by name gets the wrapper too, so calls made
inside the package are traced as well as calls made by the benchmark.
``uninstall`` puts the original objects back.

A span's self time is its duration minus its direct children's; a
layer's self time is the sum over its spans.  A public name that no
longer exists marks its layers as unmeasured instead of failing the run.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

ROUTES = {"direct_augmented": "solver.solve.direct",
          "fredholm_iteration": "solver.solve.fredholm"}

# (module, attribute, layers it measures); the first layer names the span,
# except for neumann_operator (assemble or cache hit) and solve_neumann
# (one span per route).
FUNCTIONS = (
    ("neumann_lab.domain", "build_mesh", ("domain.build_mesh",)),
    ("neumann_lab.domain", "distance_to_boundary", ("domain.distance",)),
    ("neumann_lab.field", "gradient", ("field.gradient",)),
    ("neumann_lab.field", "neumann_operator", ("field.assemble",)),
    ("neumann_lab.solver", "solve_neumann", tuple(ROUTES.values())),
    ("neumann_lab.solver", "solve_regularized", ("solver.solve.regularized",)),
    ("neumann_lab.solver", "solve_neumann_pinned", ("solver.solve.pinned",)),
    ("neumann_lab.norms", "pairwise_holder_max", ("norms.kernel",)),
    ("neumann_lab.norms", "holder_report_bundle", ("norms.bundle",)),
    ("neumann_lab.verify", "run_family_study", ("verify",)),
    ("neumann_lab.verify", "convergence_study", ("verify",)),
)
CLASSMETHODS = (("neumann_lab.field", "GridFunction", "from_expression"),
                ("neumann_lab.field", "BoundaryFunction", "from_expression"))
# (attribute, span, layer); GMRES runs inside the Fredholm route, so its
# time is that route's.
SCIPY = (("splu", "solver.factor", "solver.factor"),
         ("gmres", "solver.krylov", "solver.solve.fredholm"))
CHARGED_TO = {span: layer for _, span, layer in SCIPY}

# Layers whose self time is module work; ``verify`` and ``cli`` are the
# harness around them.
MODULE_LAYERS = ("domain.build_mesh", "domain.distance", "expr.eval", "field.assemble",
                 "field.gradient", "solver.factor", "solver.solve.direct",
                 "solver.solve.regularized", "solver.solve.pinned",
                 "solver.solve.fredholm", "norms.kernel", "norms.bundle")


class Tracer:
    """In-memory span recorder with counters, installed by rebinding."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent index, thread id)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.unmeasured = set()      # layers whose public name is gone
        self._local = threading.local()
        self._restore = []           # (owner, attribute, original)
        self._assembled = weakref.WeakSet()

    # -- recording ----------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, fn, name, after=None):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            with _Span(tracer, span_name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every traced name in every module that holds it."""
        special = {
            "neumann_operator": (self._operator_span, None),
            "solve_neumann": (_route_span, self._after_solve),
            "distance_to_boundary": (None, self._after_distance),
            "pairwise_holder_max": (None, self._after_kernel),
        }
        for modname, attr, layers in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.unmeasured.update(layers)
                continue
            name, after = special.get(attr, (None, None))
            self._rebind(fn, self._wrap(fn, name or layers[0], after))
        for modname, cls_name, attr in CLASSMETHODS:
            cls = getattr(sys.modules.get(modname), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if not isinstance(fn, classmethod):
                self.unmeasured.add("expr.eval")
                continue
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, classmethod(
                self._wrap(fn.__func__, "expr.eval", self._after_expr)))
        for attr, span, layer in SCIPY:
            fn = getattr(spla, attr, None)
            if fn is None:
                self.unmeasured.add(layer)
                continue
            self._restore.append((spla, attr, fn))
            after = self._after_splu if attr == "splu" else None
            setattr(spla, attr, self._wrap(fn, span, after))

    def _rebind(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("neumann_lab"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- counters -----------------------------------------------------------

    def _operator_span(self, mesh, *args, **kwargs):
        if mesh in self._assembled:
            self.counters["field.operator.hits"] += 1
            return None
        self._assembled.add(mesh)
        return "field.assemble"

    def _after_solve(self, rep, *args, **kwargs):
        if rep.strategy == "fredholm_iteration":
            self.counters["solver.krylov.iterations"] += int(rep.iterations)

    def _after_distance(self, out, mesh, *args, **kwargs):
        self.counters["domain.distance.pairs"] += len(out) * int(mesh.n_boundary)

    def _after_kernel(self, out, coords, comps, *args, **kwargs):
        n = np.shape(comps)[-1]
        self.counters["norms.pairs_scanned"] += int(out[2])
        self.counters["norms.pairs_total"] += n * (n - 1) // 2

    def _after_expr(self, out, cls, mesh, *args, **kwargs):
        self.counters["expr.eval.nodes"] += int(
            out.all_values().size if hasattr(out, "all_values") else out.values.size)

    def _after_splu(self, lu, *args, **kwargs):
        self.counters["solver.lu_fill_nnz"] += int(lu.L.nnz + lu.U.nnz)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Self time per layer, summed over spans (seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[CHARGED_TO.get(name, name)] += (end - start) - child[k]
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "thread": t}
                for n, s, e, p, t in self.spans]


def _route_span(f, g, strategy="direct_augmented", *args, **kwargs):
    return ROUTES.get(strategy, f"solver.solve.{strategy}")


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def _stack(self):
        local = self.tracer._local
        if not hasattr(local, "stack"):
            local.stack = []
        return local.stack

    def __enter__(self):
        spans = self.tracer.spans
        self.index = len(spans)
        spans.append(None)
        self._stack().append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        self.tracer.spans[self.index] = (self.name, self.start, end, parent,
                                         threading.get_ident())
        self.tracer.calls[self.name] += 1
        return False
