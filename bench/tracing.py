"""Outside-in tracing of bdivkit's layers for the benchmark's traced runs.

``Tracer.install`` replaces every public function of the package modules,
in every ``bdivkit`` namespace that binds it (``reduction`` binds
``star_subdivide`` through ``from .fans import``), and a few hot methods on
their classes, with wrappers that record one span per call.  No source file
of the package changes.

Spans live in memory, one compact record per call with its parent's id, and
are reduced when the op's process ends: a span's self time is its duration
minus the time its wrapped children cover.  Children that run on a batch worker thread
hang off the innermost open span of the main thread, and their intervals are
merged before subtraction, since two threads can overlap.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from array import array

MODULES = ("exact", "fans", "logpairs", "reduction", "dcc", "bounds", "cli")

# (module, class, method, span name)
METHODS = (
    ("fans", "Fan", "locate", "fans.Fan.locate"),
    ("fans", "Fan", "__post_init__", "fans.Fan.construct"),
    ("fans", "Cone", "barycentric", "fans.Cone.barycentric"),
    ("logpairs", "BDivisor", "value", "logpairs.BDivisor.value"),
)


class _ThreadSpans:
    """Spans opened on one thread; a span's id is its index here."""

    def __init__(self, tidx: int):
        self.tidx = tidx
        self.name = array("i")
        self.parent_thread = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}


class Tracer:
    def __init__(self):
        self.names = []
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._main = None

    def _spans(self) -> _ThreadSpans:
        with self._lock:
            spans = _ThreadSpans(len(self._threads))
            self._threads.append(spans)
        self._local.spans = spans
        if threading.current_thread() is threading.main_thread():
            self._main = spans
        return spans

    def _wrap(self, fn, name: str, observe=None):
        nid = len(self.names)
        self.names.append(name)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.spans
            except AttributeError:
                st = self._spans()
            stack = st.stack
            i = len(st.start)
            if stack:
                st.parent_thread.append(st.tidx)
                st.parent.append(stack[-1])
            else:
                main = self._main
                if main is not None and main is not st and main.stack:
                    st.parent_thread.append(main.tidx)
                    st.parent.append(main.stack[-1])
                else:
                    st.parent_thread.append(-1)
                    st.parent.append(-1)
            st.name.append(nid)
            st.end.append(0.0)
            stack.append(i)
            st.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                st.end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(st.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and the listed methods."""
        pkg = importlib.import_module("bdivkit")
        modules = {m: importlib.import_module(f"bdivkit.{m}") for m in MODULES}
        observers = _observers(modules)
        wrapped = {}
        for ns in (pkg, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("bdivkit.")
                ):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    wrapped[obj] = self._wrap(obj, name, observers.get(name))
                setattr(ns, attr, wrapped[obj])
        for mod, cls_name, method, name in METHODS:
            cls = getattr(modules[mod], cls_name)
            setattr(cls, method, self._wrap(getattr(cls, method), name, observers.get(name)))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus merged counters."""
        cross = {}
        child = []
        for st in self._threads:
            covered = array("d", bytes(8 * len(st.start)))
            child.append(covered)
        for st, covered in zip(self._threads, child):
            start, end, pt, parent = st.start, st.end, st.parent_thread, st.parent
            tidx = st.tidx
            for i in range(len(start)):
                p = parent[i]
                if p < 0:
                    continue
                if pt[i] == tidx:
                    covered[p] += end[i] - start[i]
                else:
                    cross.setdefault((pt[i], p), []).append((start[i], end[i]))
        spans = {}
        counters = {}
        for st, covered in zip(self._threads, child):
            for key, value in st.counters.items():
                counters[key] = counters.get(key, 0) + value
            calls = [0] * len(self.names)
            total = [0.0] * len(self.names)
            own = [0.0] * len(self.names)
            start, end, names, tidx = st.start, st.end, st.name, st.tidx
            for i in range(len(start)):
                nid = names[i]
                dur = end[i] - start[i]
                calls[nid] += 1
                total[nid] += dur
                own[nid] += dur - covered[i] - _union(cross.get((tidx, i), ()))
            for nid, name in enumerate(self.names):
                if calls[nid]:
                    agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    agg["calls"] += calls[nid]
                    agg["total_s"] += total[nid]
                    agg["self_s"] += own[nid]
        return {"spans": spans, "counters": counters}


def _union(intervals) -> float:
    covered = 0.0
    reach = None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            covered += b - a
            reach = b
        elif b > reach:
            covered += b - reach
            reach = b
    return covered


def _add(counters: dict, key: str, n: int) -> None:
    counters[key] = counters.get(key, 0) + n


def _observers(modules: dict) -> dict:
    """Counters read off the results of a few wrapped calls."""
    closure_type = modules["dcc"].SumClosure

    def cut(counters, args, result):
        _add(counters, "reduction.cuts", 1)
        _add(counters, "reduction.rays_added", len(result[1].rays_added))

    def checked(counters, args, result):
        _add(counters, "reduction.verify_reduction.checked", result.checked)

    def closure(counters, args, result):
        if isinstance(args[0], closure_type):
            _add(counters, "dcc.closure_size", len(result))

    def hit(counters, args, result):
        if result is not None:
            _add(counters, "fans.Cone.barycentric.hits", 1)

    return {
        "reduction.build_cut": cut,
        "reduction.verify_reduction": checked,
        "dcc.materialize": closure,
        "fans.Cone.barycentric": hit,
    }


def layer_metric(summary: dict, name: str):
    """Value and unit of one per-layer metric named in BENCHMARK.json."""
    spans, counters = summary["spans"], summary["counters"]
    if name.endswith(".hit_ratio"):
        base = name[: -len(".hit_ratio")]
        calls = spans.get(base, {}).get("calls", 0)
        return (counters.get(f"{base}.hits", 0) / calls if calls else 0.0), "ratio"
    if name.endswith(".calls"):
        return spans.get(name[: -len(".calls")], {}).get("calls", 0), "count"
    if name.endswith(".self_s"):
        base = name[: -len(".self_s")]
        if base in spans:
            return spans[base]["self_s"], "s"
        # a bare layer name sums every wrapped function of that layer
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(base + ".")), "s"
    return counters.get(name, 0), "count"
