"""Spans and counts around the library's public functions, patched in from
the benchmark's side so that the library itself stays untouched.

Each wrapped function records, per thread, its call count, its self time
(span duration minus the time its child spans cover) and how often it
raised.  Spans are aggregated as they close instead of being kept: the
eta walk alone closes ~10^5 spans a second, which would not fit in memory
over a run.  Counts are exact integers, so they can be compared between
passes and between runs.

Worker threads of the CLI's validation pool have no open parent span in
their own thread; their root spans are handed to the innermost open span
of the main thread (``cli.main``), which subtracts the union of those
intervals from its own duration.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _bump(stats, name, calls=1, self_s=0.0, raised=0):
    s = stats.get(name)
    if s is None:
        s = stats[name] = [0, 0.0, 0]
    s[0] += calls
    s[1] += self_s
    s[2] += raised


class Tracer:
    """Install with ``install(targets)``, read with ``snapshot()``, and
    remove with ``uninstall()``; while not installed it costs nothing."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._orphans = []
        self._patches = []
        self._main = threading.get_ident()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {})
            with self._lock:
                self._tables.append(st[1])
        return st

    def _wrap(self, name, fn, observe):
        tracer = self

        def span(*args, **kwargs):
            stack, stats = tracer._state()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, stack, stats, frame, t0, raised=1)
                raise
            tracer._close(name, stack, stats, frame, t0, raised=0)
            if observe is not None:
                observe(stats, out)
            return out

        return span

    def _close(self, name, stack, stats, frame, t0, raised):
        t1 = perf_counter()
        stack.pop()
        dur = t1 - t0
        child = frame[0]
        if stack:
            stack[-1][0] += dur
        elif threading.get_ident() == self._main:
            orphans, self._orphans = self._orphans, []
            child += _union_length(orphans, t0, t1)
        else:
            self._orphans.append((t0, t1))
        _bump(stats, name, 1, dur - child, raised)

    def install(self, targets):
        """Wrap every binding of each target inside the ``whitham`` package.

        ``targets`` holds ``(module, attribute, span name, observer)``;
        ``attribute`` may be ``"Class.method"`` for a static method.  All
        modules that imported the function by name get the wrapper too, so
        ``whitham.flow.psi`` is traced as well as ``whitham.spectral.psi``.
        """
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "whitham" or n.startswith("whitham."))
        ]
        for mod_name, attr, name, observe in targets:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                wrapper = self._wrap(name, raw.__func__, observe)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapper))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, observe)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def snapshot(self):
        """Totals over all threads so far: name -> [calls, self_s, raised].
        Call between CLI calls, when no worker thread is running."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, raised) in list(table.items()):
                _bump(out, name, calls, self_s, raised)
        return out


def diff(after, before):
    out = {}
    for name, (calls, self_s, raised) in after.items():
        b = before.get(name, (0, 0.0, 0))
        out[name] = [calls - b[0], self_s - b[1], raised - b[2]]
    return out


# -- what the benchmark traces ------------------------------------------------


def _count_panels(stats, out):
    _bump(stats, "curve.panels", len(out))


def _count_gn_iterations(stats, out):
    # one Jacobian per loop pass: every accepted step, plus the final
    # rejected pass of a stalled run
    _bump(stats, "flow.gn_iterations", len(out.trace) - 1 + (out.status == "stalled"))


TARGETS = (
    ("whitham.polyring", "roots", "polyring.roots", None),
    ("whitham.polyring", "approx_gcd", "polyring.approx_gcd", None),
    ("whitham.bezout", "minimal_solution", "bezout.minimal_solution", None),
    ("whitham.deformation", "tangent_basis", "deformation.tangent_basis", None),
    ("whitham.deformation", "classify", "deformation.classify", None),
    ("whitham.curve", "build_curve", "curve.build_curve", None),
    ("whitham.curve", "homology_basis", "curve.homology_basis", None),
    ("whitham.curve", "integrate_batch", "curve.integrate_batch", None),
    ("whitham.curve", "_subdivide", "curve.subdivide", _count_panels),
    ("whitham.curve", "_walk_eta", "curve.walk_eta", None),
    ("whitham.spectral", "PsiFrame.build", "spectral.frame_build", None),
    ("whitham.spectral", "psi", "spectral.psi", None),
    ("whitham.spectral", "validate", "spectral.validate", None),
    ("whitham.flow", "gauss_newton", "flow.gauss_newton", _count_gn_iterations),
    ("whitham.flow", "project_to_mg", "flow.project_to_mg", None),
    ("whitham.flow", "flow_step", "flow.flow_step", None),
    ("whitham.cli", "main", "cli", None),
)

SPANS = tuple(name for _, _, name, _ in TARGETS)
COUNTERS = ("curve.panels", "flow.gn_iterations")
