"""Span tracing from outside the package, by wrapping the module-level names
its callers look up at call time.

A span is (id, parent id, name, start, end, paused, attrs); spans nest
through a call stack, so the parent of a span is the innermost span open
when it started.  A span's duration is end - start minus the time it was
paused for a speed probe (see speed.py).  Self time is a span's duration
minus its children's durations (the process is single-threaded, so
children never overlap).

Nothing here changes what the wrapped functions compute: each wrapper
passes its arguments through and returns the result unchanged.
"""

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name); see README.md for the layer each feeds
WRAPPED = (
    ("etacurv.solver", "all_derivatives", "grid.derivs"),
    ("etacurv.solver", "batch_geometry", "geometry"),
    ("etacurv.solver", "evaluate", "expr.batch"),
    ("etacurv.solver", "eval_with_derivs", "expr.batch"),
    ("etacurv.solver", "check_two_convex", "domain.two_convex"),
    ("etacurv.solver", "jacobian", "solver.jacobian"),
    ("etacurv.solver", "residual", "solver.residual"),
    ("scipy.sparse.linalg", "splu", "lu.factor"),
    ("etacurv.radial", "evaluate", "expr.scalar"),
    ("etacurv.cli", "build_grid", "cli.verify_grid"),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "child_s",
                 "paused")

    def __init__(self, sid, parent, name, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.child_s = 0.0
        self.paused = 0.0
        self.start = time.perf_counter()
        self.end = None

    @property
    def dur(self):
        """Duration without the time the span spent paused."""
        return self.end - self.start - self.paused

    @property
    def self_s(self):
        return self.dur - self.child_s

    def as_list(self):
        return [self.id, self.parent, self.name, self.start, self.end,
                self.paused, self.attrs]


class Tracer:
    """In-memory span recorder; install() wraps WRAPPED, restore() undoes it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.missing = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), parent.id if parent else None, name, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.dur

    def pause(self, seconds):
        """Take time spent outside the program out of every open span."""
        for sp in self._stack:
            if sp.end is None:
                sp.paused += seconds

    def _wrap(self, fn, name):
        tracer = self

        if name == "geometry":
            def wrapper(*args, **kwargs):
                coeffs = kwargs.get("coeffs", args[2] if len(args) > 2 else True)
                nodes = int(getattr(args[0], "shape", (1, 1))[0])
                with tracer.span(name, coeffs=bool(coeffs), nodes=nodes):
                    return fn(*args, **kwargs)
        elif name == "lu.factor":
            def wrapper(A, *args, **kwargs):
                with tracer.span(name, jac_nnz=int(A.nnz)) as sp:
                    lu = fn(A, *args, **kwargs)
                    sp.attrs["fill_nnz"] = int(lu.nnz)
                return _LUProxy(lu, tracer)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every name in WRAPPED that exists; record the missing ones
        (a layer a later version of the package removed reads as zero)."""
        for modname, attr, name in WRAPPED:
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def restore(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def children(self, root):
        """All spans below root (any depth), in start order."""
        ids = {root.id}
        out = []
        for sp in self.spans[root.id + 1:]:
            if sp.parent in ids:
                ids.add(sp.id)
                out.append(sp)
        return out


class _LUProxy:
    """SuperLU stand-in that times solve() and forwards everything else."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("lu.solve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
