"""Span tracer for cylwave, installed from outside the package.

``Tracer.install()`` replaces every public function of the cylwave modules
with a wrapper, in every namespace that binds it: ``fields`` imports
``monopole_matrix`` and ``dipole_matrix`` from ``discrete``, ``cli`` and
``diagnostics`` import ``exact_field``, and so on. A call through a wrapper
records one span:

    id, name, start, end, parent span, op id, thread, work, ok

``work`` is what the layer was asked to do: argument elements for the
special functions, series terms for the exact series, N for assembly and
solves. ``ok`` is 0 for a call that raised or a series that did not
converge. Spans stay in memory in one flat float array until ``save()``.

Spans opened by a worker thread (the sweep's ``ThreadPoolExecutor``) take
as parent the innermost span open on the thread that runs the op, so they
are attributed to their command.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
import types
from array import array

import numpy as np

PACKAGE = "cylwave"
LAYERS = ("specfun", "geometry", "exact", "continuous", "discrete", "fields", "diagnostics", "cli")
COLUMNS = ("id", "name", "start", "end", "parent", "op", "thread", "work", "ok")
ID, NAME, START, END, PARENT, OP, THREAD, WORK, OK = range(len(COLUMNS))
ROOT = "bench.op"


def _size_of(position):
    """Work probe: element count of the argument named ``x``."""

    def probe(args, kwargs, result):
        x = args[position] if len(args) > position else kwargs.get("x", 0.0)
        return float(np.size(x)), 1.0

    return probe


def _series_terms(args, kwargs, result):
    return float(result.n_used), float(result.converged)


def _result_points(args, kwargs, result):
    return float(result.n_points), 1.0


def _system_points(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    return float(system.n_points), 1.0


_PROBES = {
    "exact.exact_field": _series_terms,
    "discrete.assemble_nfm": _result_points,
    "discrete.assemble_mas": _result_points,
    "discrete.solve": _system_points,
    "discrete.solve_dense": _system_points,
    "discrete.solve_circulant_dft": _system_points,
}


def _probe_for(layer, name, fn):
    if name in _PROBES:
        return _PROBES[name]
    if layer == "specfun":
        params = list(inspect.signature(fn).parameters)
        if "x" in params:
            return _size_of(params.index("x"))
    return None


class Tracer:
    """Wraps cylwave's public functions and keeps their spans in memory."""

    def __init__(self):
        self.names = [ROOT]
        self._name_ids = {ROOT: 0}
        self._spans = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = 0
        self._patched = []
        self._op_stack = None
        self.op_id = -1

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer, wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module("%s.%s" % (PACKAGE, layer)) for layer in LAYERS}
        wrappers = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = "%s.%s" % (layer, attr)
                wrappers[id(obj)] = (obj, self._wrap(name, obj, _probe_for(layer, name, obj)))
        for module in [importlib.import_module(PACKAGE)] + list(layers.values()):
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        """Put every original function back where install() found it."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- recording ----------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.thread
        except AttributeError:
            with self._lock:
                local.thread = self._threads
                self._threads += 1
            local.stack = []
            return local.stack, local.thread

    def _adopting_parent(self):
        """Parent for a span opened on a thread with no open span of its own."""
        op_stack = self._op_stack
        try:
            return op_stack[-1]
        except (TypeError, IndexError):
            return -1

    def _record(self, span, name_id, start, end, parent, op_id, thread, work, ok):
        # one extend() call per span keeps concurrent rows whole under the GIL
        self._spans.extend((span, name_id, start, end, parent, op_id, thread, work, ok))

    def _wrap(self, name, fn, probe):
        tracer = self
        name_id = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, thread = tracer._thread_state()
            parent = stack[-1] if stack else tracer._adopting_parent()
            span = next(tracer._ids)
            op_id = tracer.op_id
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                tracer._record(span, name_id, start, end, parent, op_id, thread, 0.0, 0.0)
                raise
            end = clock()
            stack.pop()
            work, ok = probe(args, kwargs, result) if probe is not None else (0.0, 1.0)
            tracer._record(span, name_id, start, end, parent, op_id, thread, work, ok)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; every span inside it nests under it."""
        stack, thread = self._thread_state()
        span = next(self._ids)
        self.op_id, self._op_stack = op_id, stack
        stack.append(span)
        ok = 0.0
        start = time.perf_counter()
        try:
            yield
            ok = 1.0
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span, 0, start, end, -1, op_id, thread, 0.0, ok)
            self.op_id, self._op_stack = -1, None

    # -- output -------------------------------------------------------------

    def spans(self):
        """All recorded spans as an (n, 9) array, columns as in COLUMNS."""
        return np.frombuffer(self._spans, dtype=float).reshape(-1, len(COLUMNS)).copy()

    def save(self, path):
        np.savez(path, spans=self.spans(), names=np.array(self.names), columns=np.array(COLUMNS))


def parent_rows(spans):
    """Row of each span's parent in ``spans``, or -1 for a root."""
    n = spans.shape[0]
    ids = spans[:, ID].astype(np.int64)
    row_of = np.full(int(ids.max()) + 1 if n else 0, -1, dtype=np.int64)
    row_of[ids] = np.arange(n)
    parent_ids = spans[:, PARENT].astype(np.int64)
    known = (parent_ids >= 0) & (parent_ids < row_of.size)
    rows = np.full(n, -1, dtype=np.int64)
    rows[known] = row_of[parent_ids[known]]
    return rows


def _union_length(lo, hi):
    order = np.argsort(lo, kind="stable")
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in zip(lo[order], hi[order]):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: duration minus the part its children cover.

    Children on the parent's own thread run one after another, so their
    durations add up. Children on other threads may overlap each other, so
    for a parent that has any, the covered part is the length of the union
    of all its children's intervals, clipped to the parent's interval.
    """
    spans = np.asarray(spans, dtype=float).reshape(-1, len(COLUMNS))
    n = spans.shape[0]
    parent = parent_rows(spans)
    has_parent = parent >= 0
    duration = spans[:, END] - spans[:, START]
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)

    cross = np.zeros(n, dtype=bool)
    cross[has_parent] = spans[has_parent, THREAD] != spans[parent[has_parent], THREAD]
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        lo = np.maximum(spans[kids, START], spans[p, START])
        hi = np.minimum(spans[kids, END], spans[p, END])
        covered[p] = _union_length(lo, hi)
    return duration - covered


def layer_of(name):
    return name.split(".", 1)[0]
