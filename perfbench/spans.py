"""Per-layer spans recorded from outside the program.

The tracer replaces each layer's public entry points by wrappers that time
every call.  A wrapper is installed in every ``sphere7`` module namespace
that holds the original function, so a call through ``from .fock import
build_rho`` is traced as well as one through ``fock.build_rho``.

A span's self time is its duration minus the part of that interval covered
by its child spans.  The children of a span may overlap when they run on
worker threads (``cmd_verify`` checks the levels in a thread pool), so the
covered part is the length of the union of the child intervals.  A span
opened on a thread with no open span (a pool worker) is a child of the
outermost span open on the main thread.

Time spent in ``quaternions`` and ``rational`` runs inside dunder methods
(``Quaternion.__mul__``, ``CRat.__add__``); wrapping those would distort the
run, so it counts towards the self time of its caller in ``coframe`` and
``weyl``.
"""

import sys
import threading
import time
from collections import defaultdict

# layer metric name -> the (module, attribute) entry points it wraps
ENTRY_POINTS = {
    "cli.main": [("sphere7.cli", "main")],
    "u2h.verify_jacobi": [("sphere7.u2h", "verify_jacobi")],
    "u2h.bracket_table": [("sphere7.u2h", "bracket_table")],
    "weyl.verify_embedding": [("sphere7.weyl", "verify_embedding")],
    "weyl.embedded_generators": [("sphere7.weyl", "embedded_generators")],
    "classical.verify_classical": [("sphere7.classical", "verify_classical")],
    "fock.build_rho": [("sphere7.fock", "build_rho")],
    "fock.verify_brackets": [("sphere7.fock", "verify_brackets")],
    "fock.verify_reality": [("sphere7.fock", "verify_reality")],
    "fock.commutant_dimension": [("sphere7.fock", "commutant_dimension")],
    "fock.casimir_deviation": [("sphere7.fock", "casimir_deviation")],
    "fock.k_spectrum": [("sphere7.fock", "k_spectrum")],
    "fock.matrix_of_laurent": [("sphere7.fock", "matrix_of_laurent")],
    "fock.partial_sum_distance": [("sphere7.fock", "partial_sum_distance")],
    "coframe.pullback": [("sphere7.coframe", "pullback")],
    "coframe.path_geometry": [("sphere7.connection", "PathSpec.point"),
                              ("sphere7.connection", "PathSpec.tangent")],
    "connection.connection_matrix": [("sphere7.connection",
                                      "connection_matrix")],
    "connection.parallel_transport": [("sphere7.connection",
                                       "parallel_transport")],
    "connection.gauge_matrix": [("sphere7.connection", "gauge_matrix")],
}


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class _Span:
    __slots__ = ("name", "start", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.children = []


class Tracer:
    """Collects per-name self time and call counts of the wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self._patches = []

    def reset(self):
        self.self_s.clear()
        self.calls.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        stack = self._stack()
        span = _Span(name, self.clock())
        if not stack and threading.current_thread() is threading.main_thread():
            self._root = span
        stack.append(span)
        return span

    def exit(self, span):
        end = self.clock()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else (
            None if span is self._root else self._root)
        busy = end - span.start - covered_length(span.start, end,
                                                 span.children)
        with self._lock:
            if span is self._root:
                self._root = None
            self.self_s[span.name] += busy
            self.calls[span.name] += 1
            if parent is not None:
                parent.children.append((span.start, end))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)
        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every entry point wherever a sphere7 module refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sphere7" or n.startswith("sphere7."))
                   and m is not None]
        for name, targets in ENTRY_POINTS.items():
            for modname, attr in targets:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)
